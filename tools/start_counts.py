"""Print what the start basis costs per solve: multisection passes,
inverse-iteration steps, finishing Jacobi sweeps and the best-of-k time.

Solves: dense ``random_hermitian(1, N)`` at N = 2, 8, 32 and 128 (one
matrix each), and the N = 24 oracle stack of a level sweep, H =
``random_hermitian(1, 24)`` and every ``H + x H'`` of the default grid with
H' = ``random_hermitian(2, 24, 0.05)``.  Passes are calls of the Sturm
counts, steps are the QR re-orthonormalizations of inverse iteration, and
sweeps are the most that any member of the solve took.  Counts come from
one wrapped solve; times from ``k`` unwrapped ones.

Reported, not gated.  Run from anywhere:
``python tools/start_counts.py [--repeats k]`` (k = 10 by default).
"""

import argparse
import functools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from qperturb import eigensolver
from qperturb.models import random_hermitian
from qperturb.numkernel import add_scaled
from qperturb.verify import DEFAULT_X_GRID


def counted(solve):
    """Passes, steps and the largest member's sweeps of one call of ``solve``."""
    counts = {"passes": 0, "steps": 0, "sweeps": 0}
    sturm_counts, diagonalize, qr = eigensolver._sturm_counts, eigensolver._diagonalize, np.linalg.qr

    def counting_sturm(*args):
        counts["passes"] += 1
        return sturm_counts(*args)

    def counting_qr(*args, **kwargs):
        counts["steps"] += 1
        return qr(*args, **kwargs)

    def counting_finish(*args):
        sweeps = diagonalize(*args)
        counts["sweeps"] = max(counts["sweeps"], int(sweeps.max(initial=0)))
        return sweeps

    eigensolver._sturm_counts, eigensolver._diagonalize = counting_sturm, counting_finish
    np.linalg.qr = counting_qr
    try:
        solve()
    finally:
        eigensolver._sturm_counts, eigensolver._diagonalize = sturm_counts, diagonalize
        np.linalg.qr = qr
    return counts


def best_time(solve, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        solve()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10, help="timed solves per case (k)")
    args = parser.parse_args()
    solves = {f"dense N = {n}": random_hermitian(1, n).array[None] for n in (2, 8, 32, 128)}
    h, hp = random_hermitian(1, 24), random_hermitian(2, 24, 0.05)
    members = [h.array, *(add_scaled(h, hp, x).array for x in DEFAULT_X_GRID)]
    solves[f"oracle N = 24, B = {len(members)}"] = np.stack(members)
    print(f"{'solve':<22} {'passes':>6} {'steps':>5} {'sweeps':>6} {'best of ' + str(args.repeats):>11}")
    for name, stack in solves.items():
        solve = functools.partial(eigensolver._eigensystems, stack)
        counts = counted(solve)
        ms = best_time(solve, args.repeats) * 1e3
        print(f"{name:<22} {counts['passes']:>6} {counts['steps']:>5} {counts['sweeps']:>6} "
              f"{ms:>8.3f} ms")


if __name__ == "__main__":
    main()
