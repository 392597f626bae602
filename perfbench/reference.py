"""Independent numpy references for checking every operation's output.

Nothing here calls the package: eigenvalues come from ``numpy.linalg``, and
the first-order quantities are the textbook formulas applied to one matrix
``V = Phi^dagger H' Phi``.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

EIG_RTOL = 1e-12  # eigenvalues within EIG_RTOL * max(1, ||H||_2) of eigvalsh
DECOMP_ATOL = 1e-10  # ||H Phi - Phi Lambda||_F and ||Phi^dagger Phi - I||_F
FIRST_ORDER_TOL = 1e-10  # |got - ref| <= FIRST_ORDER_TOL * max(1, |ref|)
SLOPE_MIN = 1.8
# Tolerances the package uses by default for the removable 0/0 decision.
TOL_DEGEN = 1e-9
TOL_NUM = 1e-9


def close(what, got, ref, tol=FIRST_ORDER_TOL):
    got = np.asarray(got)
    ref = np.asarray(ref)
    if got.shape != ref.shape:
        return [f"{what}: shape {got.shape} vs reference {ref.shape}"]
    excess = np.abs(got - ref) - tol * np.maximum(1.0, np.abs(ref))
    if not np.all(excess <= 0):
        return [f"{what}: off by {float(np.max(np.abs(got - ref))):.3e}"]
    return []


def check_decomposition(h, eigenvalues, eigenvectors):
    """Eigenvalues against eigvalsh; residual and orthogonality of the vectors."""
    n = h.shape[0]
    ref = np.linalg.eigvalsh(h)
    tol = EIG_RTOL * max(1.0, float(np.linalg.norm(h, 2)))
    errors = []
    if eigenvalues.shape != ref.shape or np.max(np.abs(eigenvalues - ref)) > tol:
        errors.append("eigenvalues differ from eigvalsh")
    residual = np.linalg.norm(h @ eigenvectors - eigenvectors * eigenvalues)
    if not residual <= DECOMP_ATOL:
        errors.append(f"||H Phi - Phi Lambda|| = {residual:.3e}")
    orth = np.linalg.norm(eigenvectors.conj().T @ eigenvectors - np.eye(n))
    if not orth <= DECOMP_ATOL:
        errors.append(f"||Phi^dagger Phi - I|| = {orth:.3e}")
    return errors


def eigenbasis_perturbation(hp, eigenvectors):
    """V = Phi^dagger H' Phi."""
    return eigenvectors.conj().T @ hp @ eigenvectors


def check_first_order(v, energies, hp_fro, b, x, result, basis_level=None):
    """Compare a first-order result with the formulas applied to V."""
    w = np.abs(b) ** 2
    energy = float(w @ energies)
    shifts = np.diag(v).real
    eprime = float(w @ shifts)
    nu = v @ b - eprime * b
    den = energy - energies
    removable = np.abs(den) <= TOL_DEGEN * (float(energies[-1] - energies[0]) + 1.0)
    if np.any(np.abs(nu[removable]) > TOL_NUM * hp_fro):
        return ["reference finds a genuine degeneracy"]
    a = np.where(removable, 0.0, nu / np.where(removable, 1.0, den))
    errors = []
    errors += close("expected energy", result.expected_energy, energy)
    errors += close("level shifts", result.level_shifts, shifts)
    errors += close("perturbed levels", result.perturbed_levels, energies + x * shifts)
    errors += close("E'", result.total_first_order, eprime)
    errors += close("E1", result.total_energy, energy + x * eprime)
    errors += close("corrections a", result.corrections, a)
    errors += close("psi1", result.perturbed_state, b + x * a)
    if basis_level is not None and result.corrections[basis_level] != 0:
        errors.append(f"a_n = {result.corrections[basis_level]!r} for basis state n")
    return errors


def residual(h, hp, x, e1, psi):
    """||(H + x H') psi - E1 psi|| / ||psi||."""
    return float(np.linalg.norm((h + x * hp) @ psi - e1 * psi) / np.linalg.norm(psi))


def check_level_sweep(h, hp, records, xs):
    """Every record's exact value against eigvalsh(H + xH') and its
    perturbative value against sort(E_n + x E'_n)."""
    n = h.shape[0]
    energies, vecs = np.linalg.eigh(h)
    shifts = np.diag(eigenbasis_perturbation(hp, vecs)).real
    expected = [(x, level) for x in xs for level in range(n)]
    if [(r.x, r.level) for r in records] != expected:
        return ["level sweep records are not (grid x level) in order"]
    errors = []
    for k, x in enumerate(xs):
        block = records[k * n : (k + 1) * n]
        exact = np.linalg.eigvalsh(h + x * hp)
        tol = EIG_RTOL * max(1.0, float(np.linalg.norm(h + x * hp, 2)))
        if np.max(np.abs(np.array([r.exact for r in block]) - exact)) > tol:
            errors.append(f"exact levels at x={x} differ from eigvalsh")
        errors += close(
            f"perturbative levels at x={x}",
            np.array([r.perturbative for r in block]),
            np.sort(energies + x * shifts),
        )
    return errors


def check_superposition_sweep(h, hp, b, records, xs):
    """Weighted totals E + x E' and sum |b_n|^2 eigvalsh(H + xH')_n."""
    energies, vecs = np.linalg.eigh(h)
    shifts = np.diag(eigenbasis_perturbation(hp, vecs)).real
    w = np.abs(b) ** 2
    errors = []
    for r in records:
        errors += close(f"weighted exact at x={r.x}", r.exact, w @ np.linalg.eigvalsh(h + r.x * hp))
        errors += close(f"weighted E1 at x={r.x}", r.perturbative, w @ energies + r.x * (w @ shifts))
    return errors
