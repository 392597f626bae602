"""Command-line interface: spectrum, perturb, sweep, model.

Reports are line-oriented ``key = value`` text (vectors as comma-joined
``(re,im)`` tokens) so tests and scripts can grep exact keys; sweeps emit
CSV with the header ``x,level,perturbative,exact,abs_error`` followed by
``# order level=<n> slope=<s>`` comment lines.  Each command returns its text
and ``main`` writes it to stdout, exit code 0.  Any package error, ``OSError``
(such as a missing file) or ``ValueError`` (such as ``--x nan``) maps to a
single ``error: <Name>: <detail>`` line on stderr and exit code 1; warnings
raised on the way to such an error are dropped, so that line is all of
stderr.  argparse usage errors print a usage message on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .eigensolver import jacobi_eigendecompose
from .errors import DimensionMismatch, InsufficientData, ParseError, QPerturbError
from .fileio import _pair, format_matrix, format_real, parse_matrix, parse_vector
from .models import BoxModelSpec, box_hamiltonian, box_potential_matrix, random_hermitian
from .perturbation import (
    DEFAULT_TOL_DEGEN,
    DEFAULT_TOL_NUM,
    StateVector,
    first_order,
    residual_norm,
)
from .verify import (
    DEFAULT_X_GRID,
    convergence_order,
    level_sweep,
    superposition_sweep,
)

CSV_HEADER = "x,level,perturbative,exact,abs_error"


def _vector_line(values) -> str:
    return ", ".join(_pair(z) for z in np.asarray(values, dtype=np.complex128))


def _load_matrix(path: str):
    return parse_matrix(Path(path).read_text())


def _load_matrices(args):
    hamiltonian = _load_matrix(args.hamiltonian)
    perturbation = _load_matrix(args.perturbation)
    if hamiltonian.dim != perturbation.dim:
        raise DimensionMismatch(f"H dim {hamiltonian.dim} vs H' dim {perturbation.dim}")
    return hamiltonian, perturbation


def _load_state(path: str) -> StateVector:
    return parse_vector(Path(path).read_text())


def spectrum_report(args) -> str:
    matrix = _load_matrix(args.hamiltonian)
    decomp = jacobi_eigendecompose(matrix)
    lines = [f"dim = {decomp.dim}"]
    for m in range(decomp.dim):
        lines.append(f"eigenvalue_{m} = {format_real(decomp.eigenvalues[m])}")
    for m in range(decomp.dim):
        lines.append(f"phi_{m} = {_vector_line(decomp.eigenvector(m))}")
    return "\n".join(lines) + "\n"


def solve_report(args) -> str:
    hamiltonian, perturbation = _load_matrices(args)
    if args.level is not None:
        mode, state = "level", StateVector.basis_state(hamiltonian.dim, args.level)
    else:
        mode, state = "state", _load_state(args.state)
    decomp = jacobi_eigendecompose(hamiltonian)
    result = first_order(
        decomp, perturbation, state, args.x, args.tol_degen, args.tol_num
    )
    psi1_full = decomp.synthesize(result.perturbed_state)
    residual = residual_norm(
        hamiltonian, perturbation, args.x, result.total_energy, psi1_full
    )
    lines = [
        f"dim = {decomp.dim}",
        f"x = {format_real(args.x)}",
        f"mode = {mode}",
    ]
    if mode == "level":
        lines.append(f"level = {args.level}")
    for n in range(decomp.dim):
        lines.append(f"E_{n} = {format_real(decomp.eigenvalues[n])}")
        lines.append(f"shift_{n} = {format_real(result.level_shifts[n])}")
        lines.append(f"E1_{n} = {format_real(result.perturbed_levels[n])}")
    lines.append(f"E = {format_real(result.expected_energy)}")
    lines.append(f"Eprime = {format_real(result.total_first_order)}")
    lines.append(f"E1 = {format_real(result.total_energy)}")
    lines.append(f"b = {_vector_line(state.coefficients)}")
    lines.append(f"a = {_vector_line(result.corrections)}")
    lines.append(f"psi1 = {_vector_line(result.perturbed_state)}")
    lines.append(f"psi1_normalized = {_vector_line(result.perturbed_state_normalized)}")
    lines.append(f"residual = {format_real(residual)}")
    return "\n".join(lines) + "\n"


def _sweep_grid(args) -> tuple[float, ...]:
    if args.points is None and args.x_min is None and args.x_max is None:
        return DEFAULT_X_GRID
    points = 5 if args.points is None else args.points
    x_min = 1e-3 if args.x_min is None else args.x_min
    x_max = 1e-1 if args.x_max is None else args.x_max
    if points < 2:
        raise InsufficientData(f"need at least 2 grid points, got {points}")
    if not (0 < x_min < x_max) or not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise InsufficientData("grid bounds must satisfy 0 < x-min < x-max")
    # Descending, largest strength first, matching the default grid's order.
    return tuple(np.logspace(math.log10(x_max), math.log10(x_min), points))


def sweep_csv(args) -> str:
    hamiltonian, perturbation = _load_matrices(args)
    xs = _sweep_grid(args)
    if args.state is not None:
        records = superposition_sweep(hamiltonian, perturbation, _load_state(args.state), xs)
    else:
        levels = None if args.level is None else [args.level]
        records = level_sweep(hamiltonian, perturbation, xs, levels)
    lines = [CSV_HEADER]
    by_level = {}
    for r in records:
        lines.append(
            f"{format_real(r.x)},{r.level},{format_real(r.perturbative)},"
            f"{format_real(r.exact)},{format_real(r.abs_error)}"
        )
        by_level.setdefault(r.level, []).append(r)
    for level in sorted(by_level):
        fit = convergence_order(by_level[level])
        slope = "floored" if fit.floored else format_real(fit.slope)
        lines.append(f"# order level={level} slope={slope}")
    return "\n".join(lines) + "\n"


def _parse_potential(spec: str) -> tuple[str, float]:
    kind, sep, raw = spec.partition(":")
    if not sep:
        raise ParseError(f"potential must look like kind:value, got {spec!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"bad potential value {raw!r}") from None
    return kind, value


def _write_matrix(path: str, matrix) -> str:
    Path(path).write_text(format_matrix(matrix))
    return f"{path}\n"


def run_model(args) -> str:
    if args.family != "box":
        return _write_matrix(args.out_h, random_hermitian(args.seed, args.dim, args.scale))
    if Path(args.out_h).resolve() == Path(args.out_hp).resolve():
        raise ParseError(f"--out-h and --out-hp name the same file {args.out_h!r}")
    kind, value = _parse_potential(args.potential)
    spec = BoxModelSpec(args.levels, args.width, kind, value)
    written = _write_matrix(args.out_h, box_hamiltonian(spec))
    return written + _write_matrix(args.out_hp, box_potential_matrix(spec))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qperturb",
        description="First-order perturbation of dense Hermitian matrices, "
        "verified against exact diagonalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalues and eigenvectors of H")
    p_spec.add_argument("hamiltonian", help="matrix file for H")
    p_spec.set_defaults(func=spectrum_report)

    p_solve = sub.add_parser("perturb", help="first-order result at one strength")
    p_solve.add_argument("hamiltonian", help="matrix file for H")
    p_solve.add_argument("perturbation", help="matrix file for H'")
    p_solve.add_argument("--x", type=float, required=True, help="perturbation strength")
    solve_mode = p_solve.add_mutually_exclusive_group(required=True)
    solve_mode.add_argument("--level", type=int, help="eigenstate mode: level index n")
    solve_mode.add_argument("--state", help="superposition mode: vector file with b_j")
    p_solve.add_argument("--tol-degen", type=float, default=DEFAULT_TOL_DEGEN)
    p_solve.add_argument("--tol-num", type=float, default=DEFAULT_TOL_NUM)
    p_solve.set_defaults(func=solve_report)

    p_sweep = sub.add_parser("sweep", help="strength sweep vs the exact oracle (CSV)")
    p_sweep.add_argument("hamiltonian", help="matrix file for H")
    p_sweep.add_argument("perturbation", help="matrix file for H'")
    p_sweep.add_argument("--x-min", type=float, dest="x_min")
    p_sweep.add_argument("--x-max", type=float, dest="x_max")
    p_sweep.add_argument("--points", type=int, help="log-spaced grid size")
    sweep_mode = p_sweep.add_mutually_exclusive_group()
    sweep_mode.add_argument("--level", type=int, help="restrict to one level")
    sweep_mode.add_argument("--state", help="superposition mode: vector file with b_j")
    p_sweep.set_defaults(func=sweep_csv)

    p_model = sub.add_parser("model", help="write generated matrix files")
    model_sub = p_model.add_subparsers(dest="family", required=True)

    p_box = model_sub.add_parser("box", help="particle in a box plus potential")
    p_box.add_argument("--levels", type=int, required=True)
    p_box.add_argument("--width", type=float, required=True)
    p_box.add_argument("--potential", required=True, help="const:v | linear:l | quadratic:k")
    p_box.add_argument("--out-h", default="H.txt")
    p_box.add_argument("--out-hp", default="Hp.txt")
    p_box.set_defaults(func=run_model)

    p_rand = model_sub.add_parser("random", help="seeded random Hermitian matrix")
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--dim", type=int, required=True)
    p_rand.add_argument("--scale", type=float, default=1.0)
    p_rand.add_argument("--out-h", default="H.txt")
    p_rand.set_defaults(func=run_model)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Warnings (numpy's overflow warnings, say) are held back, and dropped when
    # the command ends in an error: its one line says what went wrong.
    with warnings.catch_warnings(record=True) as caught:
        try:
            text = args.func(args)
        except (QPerturbError, OSError, ValueError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
