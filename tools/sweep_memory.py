"""Print the working memory of one ``level_sweep``, in copies of its complex
``(B + 1, N, N)`` stack of H and the B members ``H + x H'``.

Two numbers, both for the seed-1/seed-2 dense pair (H' at entry scale 0.05)
and B strengths from 1e-1 down to 1e-3:

- the tracemalloc peak of the sweep: numpy registers its buffers with
  tracemalloc and BLAS workspaces are not traced, so it repeats from run to
  run;
- the growth of ``ru_maxrss`` over the sweep, in a fresh process, in MB and
  in copies.

Reported, not gated.  Run from anywhere:
``python tools/sweep_memory.py [--dim N] [--points B]`` (N = 256 and
B = 20 by default).
"""

import argparse
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from qperturb.models import random_hermitian
from qperturb.verify import level_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=256)
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--rss", action="store_true", help="measure ru_maxrss only")
    args = parser.parse_args()
    h, hp = random_hermitian(1, args.dim), random_hermitian(2, args.dim, 0.05)
    strengths = np.geomspace(1e-1, 1e-3, args.points)
    stack_mb = (args.points + 1) * h.array.nbytes / 2**20
    if args.rss:  # ru_maxrss is in KiB on Linux
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        level_sweep(h, hp, strengths)
        grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 2**10
        print(f"ru_maxrss growth (fresh process): {grown:.0f} MB, "
              f"{grown / stack_mb:.1f} copies")
        return
    print(f"N = {args.dim}, {args.points} strengths: stack {stack_mb:.1f} MB", flush=True)
    # First: a child starts from its parent's ru_maxrss, kept across exec.
    subprocess.run([sys.executable, __file__, "--rss", "--dim", str(args.dim),
                    "--points", str(args.points)], check=True)
    tracemalloc.start()
    level_sweep(h, hp, strengths)
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    print(f"tracemalloc peak: {peak:.0f} MB, {peak / stack_mb:.1f} copies")


if __name__ == "__main__":
    main()
