"""Count non-comment lines of Scala files at a base revision and now.

    python3 tools/ncloc.py --base REV PATH...

Each PATH is a `.scala` file or a directory searched for them, relative to
the current directory or absolute. A counted line is one that is not blank and
does not start, after whitespace, with `//`, `/*` or `*`. Prints, for every
file found at REV (read through `git show`) or in the working tree, its count
at REV, its count now and the difference, then the totals; `-` marks a file
that does not exist on that side.
"""

import argparse
import os
import subprocess
import sys

COMMENT = ("//", "/*", "*")


def count(text):
    n = 0
    for line in text.splitlines():
        s = line.strip()
        if s and not s.startswith(COMMENT):
            n += 1
    return n


def show(n):
    return "-" if n is None else str(n)


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True, text=True).stdout


def scala_files(root, rev, path):
    """The .scala files under `path` at `rev` and in the working tree."""
    at_rev = git(root, "ls-tree", "-r", "--name-only", rev, "--", path).split()
    here = []
    full = os.path.join(root, path)
    if os.path.isfile(full):
        here = [path]
    elif os.path.isdir(full):
        for d, _, names in os.walk(full):
            here += [os.path.relpath(os.path.join(d, f), root) for f in names]
    return sorted({f for f in at_rev + here if f.endswith(".scala")})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("paths", nargs="+")
    args = ap.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel").strip()
    files = sorted({f for p in args.paths for f in scala_files(root, args.base, os.path.relpath(os.path.abspath(p), root))})
    if not files:
        sys.exit("no .scala file under " + " ".join(args.paths))

    total_old = total_new = 0
    width = max(len(f) for f in files)
    print(f"{'file':<{width}}  {args.base:>8}  {'now':>8}  {'diff':>6}")
    for f in files:
        try:
            old = count(git(root, "show", f"{args.base}:{f}"))
        except subprocess.CalledProcessError:
            old = None
        path = os.path.join(root, f)
        new = count(open(path, encoding="utf-8").read()) if os.path.isfile(path) else None
        total_old += old or 0
        total_new += new or 0
        print(f"{f:<{width}}  {show(old):>8}  {show(new):>8}  {(new or 0) - (old or 0):>+6}")
    print(f"{'total':<{width}}  {total_old:>8}  {total_new:>8}  {total_new - total_old:>+6}")


if __name__ == "__main__":
    main()
