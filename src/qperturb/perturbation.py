"""First-order perturbed energies and eigenstates by summation over the eigenbasis.

Given the spectral decomposition {E_m, phi_m} of H, a perturbation H' and a
normalized state psi = sum_j b_j phi_j, the first-order quantities are

    E      = sum_m |b_m|^2 E_m                       (expected energy)
    E'_n   = <phi_n|H'|phi_n>                        (per-level shift)
    E1_n   = E_n + x E'_n                            (perturbed level)
    E'     = sum_n |b_n|^2 E'_n,   E1 = E + x E'     (weighted totals)
    a_m    = (<phi_m|H'|psi> - E' b_m) / (E - E_m)   (state correction)
    psi1   = b + x a   (eigenbasis coordinates, unnormalized)

For a basis state b = e_n this reduces to the textbook non-degenerate
first-order result: a_n = 0 and a_m = <phi_m|H'|phi_n> / (E_n - E_m).
The m-term with E = E_m is a removable 0/0 whenever its numerator is
negligible (the gauge with no correction along psi itself); a vanishing
denominator with a non-negligible numerator means the instance is
genuinely degenerate and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import SpectralDecomposition
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    NotNormalized,
    ZeroVector,
)
from .numkernel import HermitianMatrix, _norm, _unit_scaled, add_scaled, checked_index

# Unit-norm tolerance for StateVector coefficients.
NORMALIZATION_ATOL = 1e-10
# Defaults for the removable-0/0 vs genuine-degeneracy decision.
DEFAULT_TOL_DEGEN = 1e-9
DEFAULT_TOL_NUM = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Normalized coordinates b_j of a state in the eigenbasis of H."""

    coefficients: np.ndarray

    def __post_init__(self):
        b = np.array(self.coefficients, dtype=np.complex128)
        if b.ndim != 1 or b.shape[0] < 1:
            raise DimensionMismatch(f"expected a 1-D coefficient vector, got {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("state coefficients must be finite")
        norm_sq = float(np.vdot(b, b).real)
        if abs(norm_sq - 1.0) > NORMALIZATION_ATOL:
            raise NotNormalized(math.sqrt(norm_sq))
        b.setflags(write=False)
        object.__setattr__(self, "coefficients", b)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    @classmethod
    def basis_state(cls, dim: int, level: int) -> "StateVector":
        """The n-th eigenbasis unit vector (eigenstate mode).  Both arguments
        must be integers with ``0 <= level < dim``, else
        :class:`DimensionMismatch`."""
        dim = checked_index(dim, "dim")
        level = checked_index(level, "level", dim)
        b = np.zeros(dim, dtype=np.complex128)
        b[level] = 1.0
        return cls(b)

    @classmethod
    def from_unnormalized(cls, coefficients) -> "StateVector":
        """Normalize arbitrary nonzero finite coefficients into a StateVector.

        The coefficients are first scaled by :func:`numkernel._unit_scaled`,
        so that their largest real or imaginary magnitude is in [0.5, 1) and
        the squares in the norm neither overflow nor underflow to zero.  The
        real and imaginary parts are then each divided by the norm.  (numpy
        divides a complex array by a real scalar through the scalar's
        reciprocal, which can leave a basis direction such as
        ``[0.98828125, 0]`` one ulp short of the unit vector.)  So a single
        nonzero entry normalizes to exactly the basis state.
        """
        b = np.asarray(coefficients, dtype=np.complex128)
        if not np.isfinite(b).all():
            raise ValueError("state coefficients must be finite")
        b = _unit_scaled(b)[0]
        norm = float(np.linalg.norm(b))
        if norm == 0.0:
            raise ZeroVector("cannot normalize the zero vector")
        b.real, b.imag = b.real / norm, b.imag / norm
        return cls(b)


@dataclass(frozen=True)
class FirstOrderResult:
    """Everything first order produces for one (H, H', psi, x) instance.

    ``perturbed_state`` holds eigenbasis coordinates b + x*a, unnormalized;
    ``perturbed_state_normalized`` is the same divided by its norm.
    Satisfies E1_n = E_n + x*shift_n and E1 = sum_n |b_n|^2 E1_n.
    """

    expected_energy: float
    level_shifts: np.ndarray
    perturbed_levels: np.ndarray
    total_first_order: float
    total_energy: float
    corrections: np.ndarray
    perturbed_state: np.ndarray
    perturbed_state_normalized: np.ndarray


def expected_energy(state: StateVector, decomp: SpectralDecomposition) -> float:
    """Weighted spectral average ``sum_m |b_m|^2 E_m``.

    Equals E_n exactly when the state is the n-th basis unit vector.
    """
    if state.dim != decomp.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs basis dim {decomp.dim}")
    weights = np.abs(state.coefficients) ** 2
    return float(weights @ decomp.eigenvalues)


def level_shifts(perturbation: HermitianMatrix, decomp: SpectralDecomposition) -> np.ndarray:
    """Per-level first-order shifts ``<phi_n|H'|phi_n>`` (real by hermiticity)."""
    if perturbation.dim != decomp.dim:
        raise DimensionMismatch(
            f"perturbation dim {perturbation.dim} vs basis dim {decomp.dim}"
        )
    phi = decomp.eigenvectors
    hp_phi = perturbation.array @ phi
    # Re(conj(phi) H'phi) summed down each column as one real dot over the
    # (re, im) float64 views of both C-ordered arrays, so H'phi is the only
    # N x N temporary; column n's re*re and im*im sums sit at 2n and 2n + 1.
    sums = np.einsum("ij,ij->j", phi.view(np.float64), hp_phi.view(np.float64))
    return sums[0::2] + sums[1::2]


def total_energy(
    energy: float, shifts, state: StateVector, x: float
) -> tuple[float, float]:
    """Weighted totals: ``E' = sum_n |b_n|^2 shift_n`` and ``E1 = E + x E'``."""
    s = np.asarray(shifts, dtype=np.float64)
    if s.shape != (state.dim,):
        raise DimensionMismatch(f"shift count {s.shape} vs state dim {state.dim}")
    weights = np.abs(state.coefficients) ** 2
    eprime = float(weights @ s)
    return eprime, float(energy + x * eprime)


def correction_coefficients(
    perturbation: HermitianMatrix,
    decomp: SpectralDecomposition,
    state: StateVector,
    energy: float,
    first_order_total: float,
    tol_degen: float = DEFAULT_TOL_DEGEN,
    tol_num: float = DEFAULT_TOL_NUM,
) -> np.ndarray:
    """Eigenbasis coefficients a_m of the first-order state correction.

    a_m = nu_m / (E - E_m) with nu_m = <phi_m|H'|psi> - E' b_m and
    psi = sum_j b_j phi_j.  Denominators with
    |E - E_m| <= tol_degen * (E_max - E_min + 1) are treated as removable
    0/0 (a_m = 0) when |nu_m| <= tol_num * ||H'||_F, and rejected with
    :class:`DegenerateDenominator` otherwise; when several levels qualify,
    the lowest offending index m is the one reported.  Both tolerances must
    be finite and non-negative, and ``||H'||_F`` finite, since an infinite
    one would let every numerator pass as negligible (``ValueError``
    otherwise, before any product).
    """
    if not all(math.isfinite(tol) and tol >= 0 for tol in (tol_degen, tol_num)):
        raise ValueError(f"tol_degen={tol_degen}, tol_num={tol_num}: both must be finite and >= 0")
    if not (perturbation.dim == decomp.dim == state.dim):
        raise DimensionMismatch(
            f"dims disagree: perturbation {perturbation.dim}, basis {decomp.dim}, "
            f"state {state.dim}"
        )
    hp_scale = perturbation.frobenius_norm
    if not math.isfinite(hp_scale):
        raise ValueError("||H'||_F overflows: entries of H' too large for the degeneracy test")
    b = state.coefficients
    hp_psi = perturbation.array @ decomp.synthesize(b)
    numerators = decomp.adjoint @ hp_psi - first_order_total * b
    denominators = energy - decomp.eigenvalues
    spread = float(decomp.eigenvalues[-1] - decomp.eigenvalues[0]) + 1.0
    small = np.abs(denominators) <= tol_degen * spread
    offenders = np.flatnonzero(small & (np.abs(numerators) > tol_num * hp_scale))
    if offenders.size:
        m = int(offenders[0])
        raise DegenerateDenominator(m, abs(denominators[m]), abs(numerators[m]))
    corrections = np.zeros(decomp.dim, dtype=np.complex128)
    np.divide(numerators, denominators, out=corrections, where=~small)
    return corrections


def perturbed_state(
    state: StateVector, corrections, x: float
) -> tuple[np.ndarray, np.ndarray]:
    """First-order state ``psi1 = b + x a`` in eigenbasis coordinates.

    Returned unnormalized together with its normalized companion.  The
    norm is :func:`numkernel._norm`'s, right however large or small its
    squares.  Raises :class:`ZeroVector` when psi1 vanishes and
    ``ValueError`` when its norm is not finite (an entry or the norm itself
    passes the largest float), so no silent zero "normalized" state is made.
    """
    a = np.asarray(corrections, dtype=np.complex128)
    if a.shape != (state.dim,):
        raise DimensionMismatch(f"correction count {a.shape} vs state dim {state.dim}")
    psi1 = state.coefficients + x * a
    norm = _norm(psi1)
    if norm == 0.0:
        raise ZeroVector(
            "x * corrections cancels the state exactly; strength is far outside "
            "the perturbative regime"
        )
    if not math.isfinite(norm):
        raise ValueError("norm of b + x * corrections is not finite (overflow)")
    return psi1, psi1 / norm


def residual_norm(
    hamiltonian: HermitianMatrix,
    perturbation: HermitianMatrix,
    x: float,
    total_energy_value: float,
    psi1,
) -> float:
    """``||(H + x H') psi1 - E1 psi1|| / ||psi1||``.

    ``psi1`` must be given in the computational basis (the one H is written
    in); use :meth:`SpectralDecomposition.synthesize` on eigenbasis
    coordinates first.  The ratio does not change when psi1 is scaled, so
    psi1 is first scaled by :func:`numkernel._unit_scaled`, which puts its
    largest part in [0.5, 1): a finite psi1 is never refused for the size
    of its norm, and the products overflow only where H + x H' itself is
    too large.  Both norms are :func:`numkernel._norm`'s.  Raises
    ``ValueError`` when psi1 has an entry that is not finite.
    """
    v = _unit_scaled(np.asarray(psi1, dtype=np.complex128))[0]
    if v.ndim != 1 or v.shape[0] != hamiltonian.dim:
        raise DimensionMismatch(
            f"state shape {v.shape} vs matrix dim {hamiltonian.dim}"
        )
    norm = _norm(v)
    if norm == 0.0:
        raise ZeroVector("residual of the zero vector is undefined")
    if not math.isfinite(norm):
        raise ValueError("state norm is not finite; its residual is undefined")
    residual = add_scaled(hamiltonian, perturbation, x).array @ v - total_energy_value * v
    return _norm(residual) / norm


def first_order(
    decomp: SpectralDecomposition,
    perturbation: HermitianMatrix,
    state: StateVector,
    x: float,
    tol_degen: float = DEFAULT_TOL_DEGEN,
    tol_num: float = DEFAULT_TOL_NUM,
) -> FirstOrderResult:
    """Assemble every first-order quantity for one instance.

    ``x = 0`` is permitted and reproduces the unperturbed state and energies.
    A call costs one N^3 product, ``H' Phi`` in :func:`level_shifts`, and
    O(N^2) otherwise: ``||H'||_F`` and ``Phi^dagger`` are computed once per
    matrix and per decomposition and kept there.
    """
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("perturbation strength must be finite")
    energy = expected_energy(state, decomp)
    shifts = level_shifts(perturbation, decomp)
    eprime, e1 = total_energy(energy, shifts, state, x)
    corrections = correction_coefficients(
        perturbation, decomp, state, energy, eprime, tol_degen, tol_num
    )
    psi1, psi1_normalized = perturbed_state(state, corrections, x)
    return FirstOrderResult(
        expected_energy=energy,
        level_shifts=shifts,
        perturbed_levels=decomp.eigenvalues + x * shifts,
        total_first_order=eprime,
        total_energy=e1,
        corrections=corrections,
        perturbed_state=psi1,
        perturbed_state_normalized=psi1_normalized,
    )
