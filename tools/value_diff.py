"""Compare every output of the value corpus between a parent revision and
this checkout; exit 1 when a family not named in ``--expect-changes``
differs.

``python tools/value_diff.py --parent REV [--expect-changes FAMILY ...]``
exports REV with ``git archive`` into a temporary directory and runs this
checkout's ``tools/value_corpus.py`` twice, in subprocesses: once on the
parent's ``src`` and once on this checkout's, so that both get the same
inputs.  BLAS and OpenMP run on one thread in both.  It then prints one line
per family: ``identical``, or how many outputs differ, with the largest
absolute difference and the largest relative one (an output's absolute
difference over the parent's largest magnitude in it).  An output compares
by its bytes, so -0.0 and 0.0 differ; a text output's differences are
those of the numbers in it, where the text around them is the same.  A
shape, type or text that differs otherwise, and an output or family on one
side only, differ by ``nan``.  Matmul and QR round as the machine's BLAS
does, so the report compares two trees on one machine and no digest is
kept.  Standard library and numpy only; run from anywhere.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tools" / "value_corpus.py"
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def difference(old: np.ndarray, new: np.ndarray) -> tuple[float, float] | None:
    """``None`` if the two outputs are the same bytes of the same type and
    shape, else their largest absolute and relative differences."""
    if old.dtype == new.dtype and old.shape == new.shape and old.tobytes() == new.tobytes():
        return None
    if old.dtype.kind == new.dtype.kind == "U" and old.shape == new.shape == ():
        old_text, new_text = str(old), str(new)
        if _NUMBER.sub("#", old_text) != _NUMBER.sub("#", new_text):
            return math.nan, math.nan
        old, new = (np.array(_NUMBER.findall(t), dtype=float) for t in (old_text, new_text))
    if old.dtype.kind not in "iufc" or new.dtype.kind not in "iufc" or old.shape != new.shape:
        return math.nan, math.nan
    scale = float(np.abs(old).max(initial=0.0))
    gap = float(np.abs(new - old).max(initial=0.0))
    return gap, (gap / scale if scale else (0.0 if gap == 0 else math.inf))


def compare(parent: dict, change: dict) -> dict[str, tuple[int, int, float, float]]:
    """Per family of either side (``{family: {output: array}}``): the
    number of outputs, how many differ, and their largest absolute and
    relative differences (0 where none differs)."""
    out = {}
    for family in sorted(parent.keys() | change.keys()):
        old, new = parent.get(family, {}), change.get(family, {})
        names = old.keys() | new.keys()
        gaps = [difference(old[name], new[name]) if name in old and name in new
                else (math.nan, math.nan) for name in names]
        gaps = [gap for gap in gaps if gap is not None]
        # nan (not comparable) ranks above every number
        largest = [max(values, key=lambda v: (math.isnan(v), v)) for values in zip(*gaps)] or [0.0, 0.0]
        out[family] = (len(names), len(gaps), *largest)
    return out


def report(comparison: dict, expected=()) -> tuple[list[str], int]:
    """The report's lines and the exit code: 1 if a family that is not
    ``expected`` to change differs, else 0."""
    lines, code = [], 0
    for family, (outputs, differing, gap, relative) in comparison.items():
        if not differing:
            verdict = "identical"
        else:
            verdict = (f"{differing} of {outputs} outputs differ, largest absolute {gap:.3g},"
                       f" relative {relative:.3g}")
            if family in expected:
                verdict += " (expected)"
            else:
                code = 1
        lines.append(f"{family:<18} {outputs:>5} outputs  {verdict}")
    return lines, code


def load(directory: Path) -> dict:
    """``{family: {output: array}}`` from a corpus run's ``.npz`` files."""
    out = {}
    for path in sorted(directory.glob("*.npz")):
        with np.load(path, allow_pickle=False) as data:
            out[path.stem] = {name: data[name] for name in data.files}
    return out


def export(rev: str, destination: Path) -> None:
    """The tree of ``rev`` in ``destination``, by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(destination, **safe)


def run_corpus(tree: Path, outputs: Path) -> dict:
    outputs.mkdir()
    subprocess.run([sys.executable, str(CORPUS), str(tree), str(outputs)], check=True,
                   env={**os.environ, **THREADS})
    return load(outputs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare with")
    parser.add_argument("--expect-changes", nargs="*", default=[], metavar="FAMILY",
                        help="families whose outputs may differ")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="value-diff-") as scratch:
        scratch = Path(scratch)
        export(args.parent, scratch / "parent")
        parent = run_corpus(scratch / "parent", scratch / "parent-outputs")
        change = run_corpus(ROOT, scratch / "change-outputs")
    comparison = compare(parent, change)
    unknown = sorted(set(args.expect_changes) - comparison.keys())
    if unknown:
        print(f"no such family: {', '.join(unknown)}", file=sys.stderr)
        return 2
    lines, code = report(comparison, args.expect_changes)
    print(f"values of {args.parent} against this checkout:")
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
