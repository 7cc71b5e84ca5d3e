"""Check a re-recorded golden-steps.tsv against a base commit's copy.

    python3 tools/check_golden.py --base 03df6a1 --tracker HistApprox

Reads src/test/resources/golden-steps.tsv from the working tree and from the
base commit. Both must hold the same rows in the same order, by stream,
tracker and t. Rows of every other tracker must be byte-identical. Rows of
`--tracker` must keep t, seeds and value, and their cumulative oracle calls
must be at most the base's at every step. Prints how many of that tracker's
rows changed and exits 1 on the first violation.
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "src/test/resources/golden-steps.tsv"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the commit whose golden file is the reference")
    ap.add_argument("--tracker", required=True, help="the tracker whose call column may fall")
    a = ap.parse_args()

    old = subprocess.run(["git", "show", f"{a.base}:{GOLDEN}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    new = (ROOT / GOLDEN).read_text().splitlines()
    if len(old) != len(new):
        return f"check_golden: {len(old)} rows at {a.base}, {len(new)} now"

    fewer = 0
    for n, (o, w) in enumerate(zip(old, new), start=1):
        of, wf = o.split("\t"), w.split("\t")
        if of[:3] != wf[:3]:
            return f"check_golden: row {n} is {wf[:3]}, was {of[:3]}"
        if of[1] != a.tracker:
            if o != w:
                return f"check_golden: row {n} of {of[1]} changed:\n  {o}\n  {w}"
        elif of[:5] != wf[:5]:
            return f"check_golden: row {n} changed seeds or value:\n  {o}\n  {w}"
        elif int(wf[5]) > int(of[5]):
            return f"check_golden: row {n} makes more calls:\n  {o}\n  {w}"
        else:
            fewer += int(wf[5]) < int(of[5])
    rows = sum(o.split("\t")[1] == a.tracker for o in old)
    print(f"check_golden: {len(new)} rows; other trackers byte-identical; "
          f"{a.tracker}: {rows} rows keep t, seeds and value, {fewer} with fewer cumulative calls, none more")
    return 0


if __name__ == "__main__":
    sys.exit(main())
