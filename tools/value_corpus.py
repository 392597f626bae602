"""Write the value corpus of one tree's ``qperturb``: the outputs that
``tools/value_diff.py`` compares between two trees, one ``<family>.npz``
file per family, each output an array (a text output a string array).

Run as ``python tools/value_corpus.py TREE OUTDIR``.  It imports
``qperturb`` from ``TREE/src`` and its inputs from this checkout's
``tests/`` and ``perfbench/``, so that two trees get the same inputs.
Families:

- ``random-hermitian``: ``random_hermitian(seed, N)`` for seeds 1-3 and
  N = 1-12, 16, 24, 32, 33, 64 and 128;
- ``power-of-two``: ``random_hermitian(1, N)`` at N = 5 and 24 scaled by
  2^40, 2^-40, 2^-440, 2^-470, 2^500, 2^600 and 2^-600;
- ``zero-and-diagonal``: zero and diagonal matrices, and a 1e-170
  off-diagonal;
- ``hard-spectra``: the tests' ``HARD_SPECTRA`` and
  ``random_hermitian(1001822, 24)``;
- ``repeated-levels``: 27 levels from {-3, 0, 3}, and four 64-fold levels
  at N = 256 (six 4-fold levels are in ``hard-spectra``);
- ``oracle-stacks``: the stack H, H + x H' over the default grid that a
  sweep solves, for the dense pairs ``random_hermitian(1, N)``,
  ``random_hermitian(2, N, 0.05)`` at N = 2, 5, 12, 24 and 64 and the
  tests' ``ORACLE_PAIRS``;
- ``sweep-records``: every level and superposition sweep record of those
  pairs;
- ``cli-box``: the stdout of the six commands of the benchmark's
  ``cli-box`` workload (seed 1), run in process, and the model files;
- ``cli-dense``: the stdout of ``spectrum``, ``perturb --x 0.01 --level 0``
  and ``sweep`` on CI's dense pairs, ``model random --seed 1 --dim N`` and
  ``model random --seed 2 --dim N --scale 0.05`` at N = 24 and 128, run in
  process like ``cli-box``, with the model files, every exit code and
  everything written to stderr.  It is the only family that covers dense
  ``first_order`` output (corrections, state and residual).

A matrix's outputs are ``jacobi_eigendecompose``'s eigenvalues and
eigenvectors, or the error it raised as text.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = [*range(1, 13), 16, 24, 32, 33, 64, 128]
SCALINGS = [40, -40, -440, -470, 500, 600, -600]
ORACLE_SIZES = [2, 5, 12, 24, 64]
CLI_DENSE_SIZES = [24, 128]


def cli_dense():
    """The ``cli-dense`` family: each command's stdout, the model files, the
    exit codes and stderr, from ``cli.main`` run in a temporary directory."""
    from qperturb import cli

    out, codes, errors = {}, [], io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="value-corpus-") as workdir:
        os.chdir(workdir)
        try:
            for n in CLI_DENSE_SIZES:
                h, hp = f"H{n}.txt", f"Hp{n}.txt"
                commands = [
                    ["model", "random", "--seed", "1", "--dim", str(n), "--out-h", h],
                    ["model", "random", "--seed", "2", "--dim", str(n), "--scale", "0.05", "--out-h", hp],
                    ["spectrum", h],
                    ["perturb", h, hp, "--x", "0.01", "--level", "0"],
                    ["sweep", h, hp],
                ]
                for command in commands:
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(errors):
                        codes.append(cli.main(command))
                    out[" ".join(command)] = np.array(stdout.getvalue())
                for name in (h, hp):
                    out[name] = np.array(Path(name).read_text())
        finally:
            os.chdir(cwd)
    out["exit codes"] = np.array(codes)
    out["stderr"] = np.array(errors.getvalue())
    return out


def corpus():
    """Every family's outputs: ``{family: {output name: array}}``."""
    from test_eigensolver import HARD_SPECTRA, _prescribed
    from test_verify import ORACLE_PAIRS
    from workloads import CliBox

    from qperturb import HermitianMatrix, QPerturbError, eigensolver, jacobi_eigendecompose
    from qperturb import StateVector, add_scaled, level_sweep, random_hermitian, superposition_sweep
    from qperturb.verify import DEFAULT_X_GRID

    def solved(name, matrix):
        try:
            dec = jacobi_eigendecompose(matrix)
        except (QPerturbError, ValueError) as error:
            return {f"{name} error": np.array(f"{type(error).__name__}: {error}")}
        return {f"{name} eigenvalues": dec.eigenvalues, f"{name} eigenvectors": dec.eigenvectors}

    def matrices(named):
        out = {}
        for name, matrix in named:
            out.update(solved(name, matrix))
        return out

    def records(rows):
        return np.array([[r.x, r.level, r.perturbative, r.exact, r.abs_error] for r in rows])

    pairs = {f"dense-{n}": (random_hermitian(1, n), random_hermitian(2, n, 0.05)) for n in ORACLE_SIZES}
    pairs.update({name: make() for name, make in ORACLE_PAIRS.items()})
    stacks, sweeps = {}, {}
    for name, (h, hp) in pairs.items():
        stack = np.stack([h.array, *(add_scaled(h, hp, x).array for x in DEFAULT_X_GRID)])
        stacks[f"{name} eigenvalues"], stacks[f"{name} eigenvectors"] = eigensolver._eigensystems(stack)
        state = StateVector.from_unnormalized(np.arange(1, h.dim + 1) * (1 - 0.5j))
        sweeps[f"{name} level"] = records(level_sweep(h, hp))
        sweeps[f"{name} superposition"] = records(superposition_sweep(h, hp, state))
    with tempfile.TemporaryDirectory(prefix="value-corpus-") as workdir:
        box = CliBox(1, workdir)
        cli = {f"{i} {' '.join(command)}": np.array(out.decode())
               for i, (command, out) in enumerate(zip(box.commands, box.expected))}
        cli.update({name: np.array(text.decode()) for name, text in box.model_files.items()})
        cli["set-up errors"] = np.array("\n".join(box.setup_errors))
    return {
        "random-hermitian": matrices(
            (f"seed {seed} N {n}", random_hermitian(seed, n)) for seed in (1, 2, 3) for n in SIZES
        ),
        "power-of-two": matrices(
            (f"N {n} x 2^{k}", HermitianMatrix(random_hermitian(1, n).array * 2.0**k))
            for n in (5, 24) for k in SCALINGS
        ),
        "zero-and-diagonal": matrices([
            *((f"zero N {n}", HermitianMatrix(np.zeros((n, n)))) for n in (1, 3, 8)),
            ("diagonal", HermitianMatrix(np.diag([3.0, 1.0, 2.0]))),
            ("extreme diagonal", HermitianMatrix(np.diag([1e150, 1e-160, -3.0]))),
            ("equal diagonal", HermitianMatrix(np.diag([1.0, 1.0]))),
            ("off-diagonal 1e-170", HermitianMatrix([[1.0, 1e-170], [1e-170, 2.0]])),
            ("pure off-diagonal 1e-170", HermitianMatrix([[0.0, 1e-170], [1e-170, 0.0]])),
        ]),
        "hard-spectra": matrices([
            *((name, make()) for name, make in HARD_SPECTRA.items()),
            ("dense-24 seed 1001822", random_hermitian(1001822, 24)),
        ]),
        "repeated-levels": matrices([
            ("27 levels from {-3, 0, 3}", _prescribed(np.repeat([-3.0, 0.0, 3.0], 9), seed=5)),
            ("four 64-fold levels N 256", _prescribed(np.repeat(np.arange(4.0) - 1.5, 64), seed=4)),
        ]),
        "oracle-stacks": stacks,
        "sweep-records": sweeps,
        "cli-box": cli,
        "cli-dense": cli_dense(),
    }


def main(tree: str, outdir: str) -> int:
    src = Path(tree).resolve() / "src"
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import qperturb

    if not Path(qperturb.__file__).resolve().is_relative_to(src):
        print(f"qperturb imported from {qperturb.__file__}, not from {src}", file=sys.stderr)
        return 1
    for family, outputs in corpus().items():
        np.savez(Path(outdir) / f"{family}.npz", **outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
