"""Compare the BENCH| lines of two `sbt "bench/test"` logs.

    python3 tools/diff_bench_lines.py OLD.log NEW.log

Takes every line holding `BENCH|` from each log, from that marker on, and
groups them by exhibit (`BENCH|Fig7|`, ...) in the order printed. Each
exhibit's lines must be identical in both logs, except the last column of
Fig13to14's rows (edges/s, a wall-clock throughput), which is ignored. Prints
each differing line, `-` for OLD and `+` for NEW, then, for information, each
masked row's edges/s in OLD and NEW and their ratio NEW/OLD. Exits 1 on any
difference in the compared lines, or 2 if a log holds no BENCH| line; the
edges/s values never change the exit code.
"""

import argparse
import difflib
import sys

MARK = "BENCH|"
TIMED = "Fig13to14"


def bench_lines(path):
    """Exhibit -> its BENCH| lines, with Fig13to14's edges/s column masked,
    and the masked line -> its edges/s values, in the order printed."""
    by, timed = {}, {}
    with open(path, errors="replace") as f:
        for line in f:
            at = line.find(MARK)
            if at < 0:
                continue
            line = line[at:].rstrip("\n")
            exhibit = line[len(MARK):].split("|", 1)[0]
            if exhibit == TIMED:
                head, _, last = line.rpartition(" ")
                try:
                    value = float(last)
                    line = head.rstrip() + " *"  # the padding varies with the width
                    timed.setdefault(line, []).append(value)
                except ValueError:
                    pass
            by.setdefault(exhibit, []).append(line)
    return by, timed


def print_timed(old, new):
    """Print each masked row's edges/s in both logs and NEW/OLD."""
    rows = [(line, o, n) for line in new if line in old for o, n in zip(old[line], new[line])]
    if not rows:
        return
    print(f"{TIMED} edges/s (not compared): OLD NEW NEW/OLD")
    for line, o, n in rows:
        row = " ".join(line[len(MARK) + len(TIMED) + 1:-1].split())
        ratio = f"{n / o:.3f}" if o else "-"
        print(f"  {row:<36} {o:>10.1f} {n:>10.1f} {ratio:>7}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="log of the reference run")
    ap.add_argument("new", help="log of the run to check")
    a = ap.parse_args()

    (old, old_timed), (new, new_timed) = bench_lines(a.old), bench_lines(a.new)
    for path, by in ((a.old, old), (a.new, new)):
        if not by:
            print(f"diff_bench_lines: no {MARK} line in {path}")
            return 2

    differ = 0
    for exhibit in sorted(old.keys() | new.keys()):
        o, n = old.get(exhibit, []), new.get(exhibit, [])
        for d in difflib.unified_diff(o, n, lineterm="", n=0):
            if d[:1] in "-+" and d[:3] not in ("---", "+++"):
                print(d)
                differ += 1
    total = sum(map(len, new.values()))
    print_timed(old_timed, new_timed)
    if differ:
        print(f"diff_bench_lines: {differ} differing lines")
        return 1
    print(f"diff_bench_lines: {total} {MARK} lines identical across {len(new)} exhibits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
