"""Apply each seeded mutant of the package alone and run the tests that must
kill it; exit 1 when any mutant survives, or when its old text does not
occur exactly once (so a refactor updates the list instead of dropping a
mutant silently).

A mutant is one exact text replacement in one file of ``src/qperturb``.
Each runs in a fresh temporary copy of ``src/``, ``tests/`` and
``pyproject.toml`` (which makes every warning an error), as
``python -m pytest -q -x -p no:cacheprovider -p no:hypothesispytest <test
files>`` with the copy's ``src`` first on ``PYTHONPATH``; Hypothesis's
pytest plugin only adds reports, which no verdict reads.  A mutant is
killed when pytest reports a failing test; any other outcome than a
failure or a pass (a collection error, say) counts against the list too.
Standard library only.

Run from anywhere: ``python tools/mutants.py``.  Reference: DeMillo, Lipton
& Sayward, "Hints on test data selection: help for the practicing
programmer", *IEEE Computer* 11(4), 1978.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST_FAILED = 1  # pytest's exit code when some test failed
PLUGINS_OFF = ("-p", "no:cacheprovider", "-p", "no:hypothesispytest")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # test files, one of which must fail


EIGENSOLVER, VERIFY = "src/qperturb/eigensolver.py", "src/qperturb/verify.py"
MUTANTS = [
    Mutant(
        "first-order levels unsorted", VERIFY,
        "first = np.sort(decomp.eigenvalues + np.array(grid)[:, None] * shifts, axis=1)",
        "first = decomp.eigenvalues + np.array(grid)[:, None] * shifts",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "empty levels swept", VERIFY,
        '    if not selected:\n        raise InsufficientData("need at least one level to sweep")\n',
        "",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "fit without column scaling", VERIFY,
        "scale = np.sqrt((lhs * lhs).sum(axis=0))",
        "scale = np.ones(2)",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "level check after the solve", VERIFY,
        '    selected = range(dim) if levels is None else [checked_index(n, "level", dim) for n in levels]\n'
        '    if not selected:\n        raise InsufficientData("need at least one level to sweep")\n'
        "    grid, _, _, first, exact = _sweep(hamiltonian, perturbation, xs)\n",
        "    grid, _, _, first, exact = _sweep(hamiltonian, perturbation, xs)\n"
        '    selected = range(dim) if levels is None else [checked_index(n, "level", dim) for n in levels]\n'
        '    if not selected:\n        raise InsufficientData("need at least one level to sweep")\n',
        ("tests/test_verify.py",),
    ),
    Mutant(
        "state check after the solve", VERIFY,
        "    if state.dim != hamiltonian.dim:\n"
        '        raise DimensionMismatch(f"state dim {state.dim} vs basis dim {hamiltonian.dim}")\n'
        "    grid, decomp, shifts, _, exact = _sweep(hamiltonian, perturbation, xs)\n",
        "    grid, decomp, shifts, _, exact = _sweep(hamiltonian, perturbation, xs)\n"
        "    if state.dim != hamiltonian.dim:\n"
        '        raise DimensionMismatch(f"state dim {state.dim} vs basis dim {hamiltonian.dim}")\n',
        ("tests/test_verify.py",),
    ),
    Mutant(
        "normalization tolerance 1e-6", "src/qperturb/perturbation.py",
        "NORMALIZATION_ATOL = 1e-10",
        "NORMALIZATION_ATOL = 1e-6",
        ("tests/test_perturbation.py",),
    ),
    Mutant(
        "no ||H'||_F check", "src/qperturb/perturbation.py",
        "    if not math.isfinite(hp_scale):",
        "    if False:",
        ("tests/test_perturbation.py", "tests/test_cli.py"),
    ),
    Mutant(
        "one-point grid accepted", "src/qperturb/cli.py",
        "    if points < 2:",
        "    if points < 1:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "quadratic sign dropped", "src/qperturb/models.py",
        "mat = width * width * np.where(odd, -coupling, coupling)",
        "mat = width * width * coupling",
        ("tests/test_models.py",),
    ),
    Mutant(
        "linear parity dropped", "src/qperturb/models.py",
        "mat = np.where(odd, -width * coupling, 0.0)",
        "mat = -width * coupling",
        ("tests/test_models.py",),
    ),
    Mutant(
        "Newton stop 1e8 times looser", EIGENSOLVER,
        "stop = np.maximum(floor, (unit * gap**2) ** (1.0 / 3.0))",
        "stop = 1e8 * np.maximum(floor, (unit * gap**2) ** (1.0 / 3.0))",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "no bisection fallback", EIGENSOLVER,
        "step = np.where(newton, step, (low + high) / 2.0)",
        "step = np.where(newton, step, x)",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "a bisection ends an entry", EIGENSOLVER,
        "done = newton & (np.abs(step - x) <= stop)",
        "done = np.abs(step - x) <= stop",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "frozen entries keep stepping", EIGENSOLVER,
        "x = np.where(moving, step, x)",
        "x = step",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "a second Newton round", EIGENSOLVER,
        "separated = active & (_SEPARATION * width <= gap) & (x is None)",
        "separated = active & (_SEPARATION * width <= gap)",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "pairwise pivot sums", EIGENSOLVER,
        "total = np.add.accumulate(s, axis=0)[-1]",
        "total = s.sum(axis=0)",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "no QR between the steps", EIGENSOLVER,
        "    if unpolished.size:",
        "    if False:",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "one inverse-iteration step", EIGENSOLVER,
        "    _thomas_solve(multipliers, b, pivots, x)\n    return np.linalg.qr",
        "    return np.linalg.qr",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "first member's start discarded", EIGENSOLVER,
        "        if need[0] == 0:",
        "        if False:",
        ("tests/test_eigensolver.py",),
    ),
    Mutant(
        "no unit scaling", "src/qperturb/numkernel.py",
        "e = np.frexp(np.maximum(*peaks))[1]",
        "e = 0 * np.frexp(np.maximum(*peaks))[1]",
        ("tests/test_eigensolver.py", "tests/test_numkernel.py"),
    ),
    Mutant(
        "eigenvalue overflow unchecked", EIGENSOLVER,
        "        if not np.isfinite(eigenvalues).all():",
        "        if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "identity start basis", EIGENSOLVER,
        "start = _start_basis(scaled)",
        "start = np.broadcast_to(np.eye(n, dtype=np.complex128), scaled.shape).copy()",
        ("tests/test_eigensolver.py",),
    ),
]


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, or why the mutant could not run."""
    source = (ROOT / mutant.path).read_text()
    found = source.count(mutant.old)
    if found != 1:
        return f"old text found {found} times"
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        (copy / mutant.path).write_text(source.replace(mutant.old, mutant.new))
        path = [str(copy / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", *PLUGINS_OFF, *mutant.tests],
            cwd=copy, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if result.returncode == PYTEST_FAILED:
        return "killed"
    if result.returncode == 0:
        return "survived"
    return f"pytest exit code {result.returncode}:\n{result.stdout}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{mutant.name:32} {verdict}  ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{bad} mutant(s) not killed" if bad else "every mutant killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
