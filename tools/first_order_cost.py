"""Print what one ``first_order`` call costs against its one N^3 product.

For the seed-1/seed-2 dense pair (H' at entry scale 0.05) at N = 32, 128
and 256, with BLAS pinned to one thread:

- minor page faults (``ru_minflt``) per call over 200 ``first_order`` calls
  made right after H's decomposition, the first of which computes and keeps
  ``||H'||_F`` and ``Phi^dagger``;
- the best-of-k time per call of ``first_order``, of ``level_shifts`` and of
  the bare product ``H' @ Phi``, each the mean of a batch of calls;
- the product's share of the ``first_order`` time.

The calls alternate a basis state and a superposition, at x = 0.01.

Reported, not gated.  Run from anywhere:
``python tools/first_order_cost.py [--repeats k]`` (k = 5 by default).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from qperturb.eigensolver import jacobi_eigendecompose
from qperturb.models import random_hermitian
from qperturb.perturbation import StateVector, first_order, level_shifts

CALLS = 200


def best_time(call, repeats, calls=CALLS):
    """Smallest mean time per call over ``repeats`` batches of ``calls`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed batches per case (k)")
    args = parser.parse_args()
    print(f"{'N':>4} {'faults/call':>11} {'first_order':>11} {'level_shifts':>12} "
          f"{'H@Phi':>9} {'share':>6}   (ms per call, best of {args.repeats})")
    for n in (32, 128, 256):
        h, hp = random_hermitian(1, n), random_hermitian(2, n, 0.05)
        rng = np.random.default_rng(n)
        states = [
            StateVector.basis_state(n, n // 2),
            StateVector.from_unnormalized(rng.normal(size=n) + 1j * rng.normal(size=n)),
        ]
        cycle = itertools.cycle(states)
        decomp = jacobi_eigendecompose(h)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(CALLS):
            first_order(decomp, hp, next(cycle), 0.01)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / CALLS
        full = best_time(lambda: first_order(decomp, hp, next(cycle), 0.01), args.repeats)
        shifts = best_time(lambda: level_shifts(hp, decomp), args.repeats)
        product = best_time(lambda: hp.array @ decomp.eigenvectors, args.repeats)
        print(f"{n:>4} {faults:>11.1f} {full * 1e3:>11.3f} {shifts * 1e3:>12.3f} "
              f"{product * 1e3:>9.3f} {product / full:>6.0%}")


if __name__ == "__main__":
    main()
