"""Print what the start basis costs per solve: multisection passes, Newton
evaluations, inverse-iteration Thomas solves, QR factorizations, finishing
Jacobi sweeps and the best-of-k time; exit 1 when any solve takes a
finishing sweep.

Solves: dense ``random_hermitian(1, N)`` at N = 2, 8, 32 and 128 (one
matrix each), and the N = 32 one scaled by 2^600 and by 2^-600, whose
counts must be the unscaled one's (a solve runs at its largest entry's
scale); the N = 24 oracle stack of a level sweep, H =
``random_hermitian(1, 24)`` and every ``H + x H'`` of the default grid with
H' = ``random_hermitian(2, 24, 0.05)``; and two solves whose shifts Newton's
method does not all polish, so that inverse iteration takes its QR between
steps: six 4-fold levels at N = 24, ``U diag(E) U^H`` with U the Q factor of
a seeded complex Gaussian matrix, and
``random_hermitian(33, 12) + 3e-3 random_hermitian(34, 12, 0.05)``, where
every Newton step of one eigenvalue overshoots its bracket and bisects.
Last, four 64-fold levels at N = 256, built the same way: its start basis
leaves an off-diagonal norm about a fifth of the finishing tolerance, the
closest of these rows, so a drift in the start shows here first as a
finishing sweep.
Passes are calls of the Sturm counts, Newton steps calls of the pivot sums,
solves calls of the Thomas recurrences and QR the batched factorizations;
each call serves every member of its batch.  Sweeps are the most that any
member of the solve took.  Counts come from one wrapped solve; times from
``k`` unwrapped ones.

A good start needs no finishing sweep, so one is a failure of the start
basis.  Run from anywhere:
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
from qperturb.numkernel import HermitianMatrix, add_scaled
from qperturb.verify import DEFAULT_X_GRID

COUNTED = {"passes": "_sturm_counts", "newton": "_pivot_sums", "solves": "_thomas_solve"}


def counted(solve):
    """Passes, Newton steps, solves, QR factorizations and the largest
    member's sweeps of one call of ``solve``."""
    counts = dict.fromkeys([*COUNTED, "qr", "sweeps"], 0)
    originals = {name: getattr(eigensolver, name) for name in (*COUNTED.values(), "_diagonalize")}
    qr = np.linalg.qr

    def counting(key, function):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return wrapper

    def counting_finish(*args):
        sweeps = originals["_diagonalize"](*args)
        counts["sweeps"] = max(counts["sweeps"], int(sweeps.max(initial=0)))
        return sweeps

    for key, name in COUNTED.items():
        setattr(eigensolver, name, counting(key, originals[name]))
    eigensolver._diagonalize, np.linalg.qr = counting_finish, counting("qr", qr)
    try:
        solve()
    finally:
        for name, function in originals.items():
            setattr(eigensolver, name, function)
        np.linalg.qr = qr
    return counts


def prescribed(levels, seed):
    """The ``(1, N, N)`` stack of ``U diag(levels) U^H``, U the Q factor of a
    complex Gaussian matrix drawn with ``seed``."""
    n = len(levels)
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return HermitianMatrix((u * levels) @ u.conj().T).array[None]


def best_time(solve, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        solve()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10, help="timed solves per case (k)")
    args = parser.parse_args()
    solves = {f"dense N = {n}": random_hermitian(1, n).array[None] for n in (2, 8, 32, 128)}
    for k in (600, -600):
        solves[f"dense N = 32 x 2^{k}"] = solves["dense N = 32"] * 2.0**k
    h, hp = random_hermitian(1, 24), random_hermitian(2, 24, 0.05)
    members = [h.array, *(add_scaled(h, hp, x).array for x in DEFAULT_X_GRID)]
    solves[f"oracle N = 24, B = {len(members)}"] = np.stack(members)
    solves["clusters N = 24"] = prescribed(np.repeat(np.arange(6.0) - 2.5, 4), 3)
    h, hp = random_hermitian(33, 12), random_hermitian(34, 12, 0.05)
    solves["Newton fails N = 12"] = add_scaled(h, hp, 3e-3).array[None]
    solves["clusters N = 256"] = prescribed(np.repeat(np.arange(4.0) - 1.5, 64), 4)
    columns = [*COUNTED, "qr", "sweeps"]
    print(f"{'solve':<22} " + " ".join(f"{c:>6}" for c in columns)
          + f" {'best of ' + str(args.repeats):>11}")
    swept = []
    for name, stack in solves.items():
        solve = functools.partial(eigensolver._eigensystems, stack)
        counts = counted(solve)
        ms = best_time(solve, args.repeats) * 1e3
        print(f"{name:<22} " + " ".join(f"{counts[c]:>6}" for c in columns) + f" {ms:>8.3f} ms")
        if counts["sweeps"]:
            swept.append(name)
    if swept:
        print(f"finishing sweeps in: {', '.join(swept)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
