"""Paired perfbench runs: a base commit against a head commit.

    python3 tools/bench_pairs.py --base 7f09321 --head HEAD --workload c2q-unit \
        --workload bk-fig7 --seed 43 --pairs 10 --claim hist_edges_per_s

Exports both commits with `git archive` into fresh directories under
.bench_build/pairs/ (the working tree is not read, so commit first), then runs
`perfbench/run.py --trace 0` in each, alternating which side goes first from
pair to pair. Each run's output is kept in .bench_build/pairs/logs/. For each
--workload given (the option repeats; workloads run one after another), prints,
per end-to-end metric of the head's BENCHMARK.json, both sides' median and
quartiles, how many pairs the head won and a no-regression verdict (see
`regression`: `worse`, `unresolved` or `ok`). Once every workload has run, it
appends one row per workload with the same statistics and verdicts to
BENCH_perfbench.json at the repository root, and the exit code is 1 if any
metric is `worse`.

With --claim, also applies the claim protocol to that metric on the first
workload listed (the others are only compared): the head must
win at least 9 of 10 pairs (rounded up for other pair counts) and its median
must beat the base's by more than the base's quartile spread. The verdict is
printed and recorded, and the exit code is 1 if the claim does not hold. A
run that fails (a build error, a failed check or a failed step) stops the
script before anything is recorded.

The verdict's examples run with `python3 -m doctest tools/bench_pairs.py`.
"""

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from datetime import datetime, timezone
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "pairs"
LEDGER = ROOT / "BENCH_perfbench.json"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(sha):
    """A fresh copy of commit `sha`'s files; the perfbench build inside it is kept between calls."""
    tree = WORK / sha[:12]
    if not (tree / "perfbench" / "run.py").is_file():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
    return tree


def run(tree, workload, seed, seconds, log):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    log.write(proc.stdout)
    log.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: perfbench failed in {tree} (exit {proc.returncode}); see {log.name}")
    return json.loads(lines[-1])["metrics"]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def summary(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def fmt(s):
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def regression(base, head, better, bound):
    """The no-regression verdict on one metric, from its runs on each side.

    `worse`: the head median is worse than the base median by more than
    `bound` times the base median. `unresolved`: not worse, but the base's
    quartile spread exceeds that same margin and not every head run beats
    every base run, so the runs are too spread to show that nothing moved.
    `ok`: neither.

    >>> regression([100, 101, 99, 100], [70, 71, 69, 70], "higher", 0.25)
    'worse'
    >>> regression([100, 101, 99, 100], [90, 91, 89, 90], "higher", 0.25)
    'ok'
    >>> regression([50, 80, 120, 150], [95, 96, 94, 95], "higher", 0.25)
    'unresolved'
    >>> regression([50, 80, 120, 150], [151, 152, 160, 155], "higher", 0.25)
    'ok'
    >>> regression([1.0, 1.0, 1.1, 0.9], [1.3, 1.3, 1.3, 1.3], "lower", 0.25)
    'worse'
    """
    b, h = summary(base), summary(head)
    margin = bound * abs(b["median"])
    gap = h["median"] - b["median"] if better == "higher" else b["median"] - h["median"]
    if gap < -margin:
        return "worse"
    beats_all = min(head) > max(base) if better == "higher" else max(head) < min(base)
    if b["q3"] - b["q1"] > margin and not beats_all:
        return "unresolved"
    return "ok"


def compare(trees, metrics, workload, a):
    """Run a.pairs alternating pairs on `workload` and return per-metric statistics."""
    results = {"base": [], "head": []}
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for i in range(a.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            log_path = logs / f"{workload}-seed{a.seed}-pair{i}-{side}.log"
            with open(log_path, "w") as log:
                res = run(trees[side], workload, a.seed, a.seconds, log)
            results[side].append(res)
            print(f"{workload} pair {i + 1}/{a.pairs} {side}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res.items()), flush=True)

    rows = {}
    print(f"\n{workload:<20} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32}  wins  verdict")
    for name, m in metrics.items():
        b = [r[name]["value"] for r in results["base"]]
        h = [r[name]["value"] for r in results["head"]]
        better = (lambda x, y: x > y) if m["better"] == "higher" else (lambda x, y: x < y)
        wins = sum(better(y, x) for x, y in zip(b, h))
        rows[name] = {"unit": m["unit"], "better": m["better"], "base": summary(b), "head": summary(h),
                      "wins": wins, "verdict": regression(b, h, m["better"], m["bound"])}
        print(f"{name:<20} {fmt(rows[name]['base']):>32} {fmt(rows[name]['head']):>32}  "
              f"{wins:>2}/{a.pairs}  {rows[name]['verdict']}")
    return rows


def verdict(rows, claim, pairs):
    """The claim protocol applied to metric `claim` of `rows`."""
    r = rows[claim]
    gap = r["head"]["median"] - r["base"]["median"]
    gap = gap if r["better"] == "higher" else -gap
    spread = r["base"]["q3"] - r["base"]["q1"]
    need = math.ceil(0.9 * pairs)
    holds = r["wins"] >= need and gap > spread
    print(f"\nclaim {claim}: {r['wins']}/{pairs} pairs won (need {need}), "
          f"median gap {gap:.5g} vs base quartile spread {spread:.5g}: {'holds' if holds else 'FAILS'}")
    return {"metric": claim, "wins": r["wins"], "wins_needed": need, "median_gap": gap,
            "base_quartile_spread": spread, "holds": holds}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent commit")
    ap.add_argument("--head", default="HEAD", help="the changed commit")
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload to compare on; repeat for more (--claim applies to the first)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--claim", help="an end-to-end metric the head claims to improve")
    a = ap.parse_args()
    if a.pairs < 2:
        return "bench_pairs: --pairs must be at least 2"

    base, head = git("rev-parse", a.base), git("rev-parse", a.head)
    trees = {"base": export(base), "head": export(head)}
    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if a.claim and a.claim not in metrics:
        return f"bench_pairs: {a.claim} is not an end-to-end metric"

    entries = []
    for n, workload in enumerate(a.workload):
        rows = compare(trees, metrics, workload, a)
        claim = verdict(rows, a.claim, a.pairs) if a.claim and n == 0 else None
        entries.append({
            "base": base, "head": head, "workload": workload, "seed": a.seed, "pairs": a.pairs,
            "seconds": a.seconds, "cpus": os.cpu_count(), "cpu": cpu_model(),
            "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
            "claim": claim, "metrics": rows,
        })
    ledger = json.loads(LEDGER.read_text()) if LEDGER.is_file() else []
    LEDGER.write_text(json.dumps(ledger + entries, indent=1) + "\n")
    print(f"appended {len(entries)} row(s) to {LEDGER.name}")
    worse = [f"{e['workload']} {n}" for e in entries for n, r in e["metrics"].items() if r["verdict"] == "worse"]
    if worse:
        print("worse than the base by more than the bound: " + ", ".join(worse))
    holds = all(e["claim"] is None or e["claim"]["holds"] for e in entries)
    return 0 if holds and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
