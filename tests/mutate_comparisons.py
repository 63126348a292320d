"""
Comparison-flip mutation audit: flip one comparison operator of a module
at a time (`<` and `<=`, `>` and `>=`, `==` and `!=`), run tests against
the mutant, and report whether any test fails (killed) or none does
(survived). A survivor either needs a boundary test, with the reason for
that boundary, or is equivalent: no input tells the two apart.

Each mutant runs in a copy of the repository in a temporary directory, so
the checkout is never edited. With --first, the given test paths run
first and only the mutants they leave alive go on to the whole suite.

    python tests/mutate_comparisons.py src/stallwatch/sorting.py \\
        --first tests/test_sorting.py tests/test_acceptance.py

Not collected by pytest: the name has no `test_` prefix. Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIP = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">",
        ast.Eq: "!=", ast.NotEq: "=="}
TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
        ast.Eq: "==", ast.NotEq: "!="}


def sites(source: bytes) -> list[tuple[int, int, int, str, str]]:
    """Each flippable operator of `source`: its line, its byte span in
    `source`, its text and the text it flips to, in source order. ast gives
    a comparison operator no position of its own: it is the one operator
    in the bytes between its two operands, among spaces and parentheses."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:
        return starts[lineno - 1] + col  # ast columns are UTF-8 byte offsets

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if type(op) in FLIP:
                lo = offset(left.end_lineno, left.end_col_offset)
                text = TEXT[type(op)].encode()
                at = source.index(text, lo, offset(right.lineno, right.col_offset))
                found.append((left.end_lineno, at, at + len(text),
                              TEXT[type(op)], FLIP[type(op)]))
            left = right
    return sorted(found, key=lambda site: site[1])


def passes(copy: Path, tests: list[str]) -> bool:
    """Whether every test in `tests` passes in `copy`, stopping at the
    first failure. No bytecode is written: a flip between `==` and `!=`
    keeps the file's size, and may keep its mtime second, so a cached
    module could stand in for the mutant."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help="source files, relative to the repository root")
    parser.add_argument("--first", nargs="*", default=[],
                        help="test paths to run before the whole suite")
    parser.add_argument("--list", action="store_true",
                        help="print the sites and run nothing")
    args = parser.parse_args()
    if args.list:
        for module in args.modules:
            for line, _, _, old, new in sites((ROOT / module).read_bytes()):
                print(f"{module}:{line} {old} -> {new}")
        return 0

    totals = {"killed": 0, "survived": 0}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_work"))
        for module in args.modules:
            target = copy / module
            original = target.read_bytes()
            for line, lo, hi, old, new in sites(original):
                target.write_bytes(original[:lo] + new.encode() + original[hi:])
                try:
                    alive = ((not args.first or passes(copy, args.first))
                             and passes(copy, ["tests"]))
                finally:
                    target.write_bytes(original)
                verdict = "survived" if alive else "killed"
                totals[verdict] += 1
                print(f"{module}:{line} {old} -> {new}: {verdict}", flush=True)
    print(f"{totals['killed']} killed, {totals['survived']} survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
