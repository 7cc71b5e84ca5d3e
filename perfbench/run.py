"""Tracker replay benchmark: replays a seeded interaction stream through the
trackers' StreamingInfluenceAlgo API and prints their metrics.

    python3 perfbench/run.py --workload c2q-unit --seed 1 --seconds 30 --trace 0

Builds the program first if needed (see build.py). Prints a human-readable
report, then, as the last line of standard output, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Exits
non-zero if a build step, a check or a declared metric fails.
"""

import argparse
import json
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

# Longest a run may take once built; the JVM is killed past it.
DEADLINE_S = 170


def declared(trace):
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # Unwinds through the `finally` below and subprocess.run, which kill
    # the compiler or the JVM before the runner exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        wanted = declared(a.trace)
        build.build()
    except (build.BuildError, OSError, ValueError, KeyError) as e:
        return f"run: {e}"

    out = build.OUT / "runs" / f"{a.workload}-seed{a.seed}-trace{a.trace}"
    out.mkdir(parents=True, exist_ok=True)
    result = out / "result.json"
    result.unlink(missing_ok=True)

    jvm = build.java("repro.perfbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", str(out),
    ])
    try:
        code = jvm.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return f"run: the replay did not finish within {DEADLINE_S} s"
    finally:
        if jvm.poll() is None:
            jvm.kill()
            jvm.wait()

    if not result.is_file():
        return f"run: the replay exited with code {code} and wrote no result"
    res = json.loads(result.read_text())
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        return f"run: metrics missing from the result: {missing}"
    res["metrics"] = {m["name"]: res["metrics"][m["name"]] for m in wanted}
    print(json.dumps(res), flush=True)
    return 0 if code == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
