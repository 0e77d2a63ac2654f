"""Noise-induced inter-qubit couplings of the shared-line (bus) architecture.

The quadratic noise term of the bus coupler shifts the register's energy
levels even when every gate is idle, producing a permanent two-qubit ZZ
coupling; driving a gate adds a transient four-qubit coupling.  Both have
closed forms for an ohmic reservoir:

    mu_sc(r) = (cutoff^2 * coupling / pi) * g(cutoff * r / v)
    mu_tr(r) = (2 * coupling * cutoff / pi) * h(cutoff * r / v)

with geometry kernels

    g(x) = (1 - x^2) / (1 + x^2)^2   (1D),   1 / (1 + x^2)      (3D)
    h(x) = 1 / (1 + x^2)             (1D),   arctan(x) / x      (3D).

The closed forms are the frequency integrals of the cross-spectral density;
``*_quadrature`` evaluates those integrals numerically and must agree with
the closed forms to 1e-8 relative.  The spurious coupling's quadrature is a
zero-temperature (quantum) correlator, which classical sampling cannot
reproduce, so mu_sc is validated here only.  The transient coupling is also
classical: T mu_tr(r) is the equal-time cross correlator of two sites a
distance r apart under the classical spectrum S = 2 T J / w, and the
Monte-Carlo engine's idle-bus phase drift, -T mu_tr(r) / 2, checks its kernel h.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .noise import Geometry, OhmicBath, propagation_kernel_f, _distance_matrix, _finite, _scalar_like
from .register import GateDrive, RegisterLabel, _check_length

__all__ = [
    "CouplingKind",
    "CouplingMatrix",
    "QuadratureError",
    "kernel_g",
    "kernel_h",
    "spurious_coupling",
    "spurious_coupling_quadrature",
    "transient_coupling",
    "transient_coupling_quadrature",
    "coupling_matrix",
    "transient_energy_shift",
    "drive_enhancement",
]

# Upper integration limit in units of the cutoff: exp(-45) ~ 3e-20 leaves
# the truncated tail far below the 1e-8 relative target.
_CUTOFF_UNITS_SPAN = 45.0
_GAUSS_ORDERS = (16, 32)
# Convergence target of the quadratures: the two orders agree to this
# relative difference or to this absolute one.
_REL_TOL = 1e-10
_ABS_TOL = 1e-14
# Largest oscillation scale x = cutoff r / v a quadrature takes.  The rule
# evaluates about 45 |1 - ix| / 8.97 panels at once, and above x ~ 3e3 the
# absolute tolerance keeps the 1d quadratures from meeting 1e-8 of their
# closed forms; the far-apart tests verify x up to this bound.
_MAX_OSCILLATION_SCALE = 2000.0
# Base panel width times k = |1 - ix| (x the oscillation scale), about 8.97:
# there the 16-point rule's error bound summed over the panels, c_16 (H k)^32
# with c_n = (n!)^4 / ((2n + 1) ((2n)!)^3), is 1e-24, 1e-10 of the absolute
# tolerance.
_PANEL_REACH = (1e-24 * 33 * math.factorial(32) ** 3 / math.factorial(16) ** 4) ** (1 / 32)


class QuadratureError(RuntimeError):
    """Raised when the oscillatory quadrature fails to converge."""

    def __init__(self, message: str, estimate: float, error: float) -> None:
        super().__init__(f"{message} (estimate {estimate!r}, error bound {error:.3e})")
        self.estimate = estimate
        self.error = error


class CouplingKind(enum.Enum):
    SPURIOUS = "spurious"
    TRANSIENT = "transient"


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric L x L matrix of pairwise coupling energies.

    The diagonal holds the zero-distance closed-form value; entries depend on
    the site positions only through pairwise distances.
    """

    kind: CouplingKind
    values: np.ndarray

    def __post_init__(self) -> None:
        v = _finite(np.asarray(self.values, dtype=float), "coupling matrix entries must be finite")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {v.shape}")
        if not np.allclose(v, v.T, rtol=0, atol=1e-12 * max(1.0, np.abs(v).max())):
            raise ValueError("coupling matrix must be symmetric")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_qubits(self) -> int:
        return self.values.shape[0]


def kernel_g(x, geometry: Geometry) -> float | np.ndarray:
    """Distance kernel of the permanent spurious coupling.

    g(0) = 1 in both geometries; the 1D kernel changes sign exactly once, at
    x = 1, while the 3D kernel is strictly positive.  Its limits at x = +-inf
    are -0 (1D) and 0 (3D); NaN is refused (:func:`~gatenoise.noise._finite`).
    """
    xv = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf x^2 is handled
        x2 = xv * xv
        if Geometry(geometry) is Geometry.ONE_D:
            # Where (1 + x^2)^2 overflows the literal form is -0.0 or inf/inf;
            # there the kernel is -(1/x)^2 to double precision, with no square
            # of x.
            den = (1.0 + x2) ** 2
            far = np.isinf(den)
            inv = 1.0 / np.where(far, xv, 1.0)
            out = np.where(far, -inv * inv, (1.0 - x2) / den)
        else:
            out = 1.0 / (1.0 + x2)
    return _finite(_scalar_like(out, x), "kernel g(x) has no value at x = NaN")


def kernel_h(x, geometry: Geometry) -> float | np.ndarray:
    """Distance kernel of the transient four-qubit coupling.

    h(0) = 1 in both geometries (3D by its limit); the 3D kernel decays only
    as (pi/2)/x, i.e. the coupling falls off as 1/r.  Its limit at x = +-inf
    is 0 in both geometries, which the 1D kernel also gives wherever x^2
    overflows; NaN is refused (:func:`~gatenoise.noise._finite`).
    """
    xv = np.asarray(x, dtype=float)
    if Geometry(geometry) is Geometry.ONE_D:
        with np.errstate(over="ignore"):  # 1 / (1 + inf) is the limit 0
            out = 1.0 / (1.0 + xv * xv)
    else:
        safe = np.where(xv == 0.0, 1.0, xv)
        out = np.where(xv == 0.0, 1.0, np.arctan(safe) / safe)
    return _finite(_scalar_like(out, x), "kernel h(x) has no value at x = NaN")


class _Kind(NamedTuple):
    """What sets a coupling kind apart: its prefactor, its distance kernel and
    the weight of its frequency integrand in u = w / cutoff."""

    prefactor: Callable[[OhmicBath], float]
    kernel: Callable
    weight: Callable[[np.ndarray], np.ndarray]


_KINDS = {
    # (1/pi) int_0^inf J_jk(w) dw: cutoff^2 coupling / pi times u e^{-u}
    CouplingKind.SPURIOUS: _Kind(lambda b: b.cutoff * b.cutoff * b.coupling / math.pi, kernel_g,
                                 lambda u: u * np.exp(-u)),
    # (2/pi) int_0^inf J_kn(w) / w dw: 2 coupling cutoff / pi times e^{-u}
    CouplingKind.TRANSIENT: _Kind(lambda b: 2.0 * b.coupling * b.cutoff / math.pi, kernel_h,
                                  lambda u: np.exp(-u)),
}


def _coupling_scale(bath: OhmicBath, kind: CouplingKind) -> float:
    """Prefactor of a coupling (``_KINDS``), checked finite
    (:func:`~gatenoise.noise._finite`)."""
    return _finite(_KINDS[kind].prefactor(bath),
                   "{} coupling scale overflows for cutoff {:g} and coupling {:g}",
                   kind.value, bath.cutoff, bath.coupling)


def _phase_scale(bath: OhmicBath, r: float) -> float:
    """x = cutoff r / v, the argument of the kernels, for a distance r >= 0
    (NaN is refused)."""
    if not r >= 0:
        raise ValueError(f"distance must be >= 0, got {r}")
    return bath.cutoff * r / bath.velocity


def _closed_form(bath: OhmicBath, r: float, kind: CouplingKind) -> float:
    """A coupling in closed form: the prefactor times the kind's distance
    kernel at x = cutoff r / v (``_KINDS``)."""
    x = _phase_scale(bath, r)
    return _coupling_scale(bath, kind) * _KINDS[kind].kernel(x, bath.geometry)


def spurious_coupling(bath: OhmicBath, r: float) -> float:
    """Permanent ZZ coupling induced between two idle qubits a distance r apart."""
    return _closed_form(bath, r, CouplingKind.SPURIOUS)


def transient_coupling(bath: OhmicBath, r: float) -> float:
    """Four-qubit coupling strength while a gate is driven, vs qubit separation r."""
    return _closed_form(bath, r, CouplingKind.TRANSIENT)


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], built on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _oscillatory_integral(
    integrand: Callable[[np.ndarray], np.ndarray],
    oscillation_scale: float,
) -> float:
    """Integrate a damped, mildly oscillatory integrand on [0, span].

    The integrand is e^{-u} f(xu), f = cos or sinc, times 1 or u, with x the
    oscillation scale.  On a panel of width H an n-point Gauss-Legendre rule
    errs by at most c_n H^(2n+1) max|F^(2n)| (Davis & Rabinowitz, *Methods of
    Numerical Integration*, 1984), and the m-th derivative of e^{-u} f(xu) is
    at most k^m e^{-u}, k = |1 - ix|.  So equal panels of width
    ``_PANEL_REACH / k`` hold the 16-point rule's error far below the
    convergence target, and the integral is evaluated once on them: both
    orders come from one integrand call, and their difference is the error
    estimate, which must meet the target or the rule raises
    :class:`QuadratureError`.  An oscillation scale above
    ``_MAX_OSCILLATION_SCALE`` (or infinite) raises ValueError before any
    evaluation.
    """
    if not oscillation_scale <= _MAX_OSCILLATION_SCALE:
        raise ValueError(f"quadrature needs cutoff r / v <= {_MAX_OSCILLATION_SCALE:g}, got "
                         f"{oscillation_scale!r}: use the closed forms spurious_coupling and "
                         "transient_coupling")
    (low_nodes, low_weights), (high_nodes, high_weights) = map(_gauss_legendre, _GAUSS_ORDERS)
    n_panels = math.ceil(_CUTOFF_UNITS_SPAN * math.hypot(1.0, oscillation_scale) / _PANEL_REACH)
    half = 0.5 * _CUTOFF_UNITS_SPAN / n_panels
    mid = (2.0 * np.arange(n_panels) + 1.0) * half
    # every panel has the same width, so each node's values sum over panels first
    node_sums = integrand(mid[:, None] + half * np.concatenate([low_nodes, high_nodes])).sum(axis=0)
    low = half * float(node_sums[: low_nodes.size] @ low_weights)
    result = half * float(node_sums[low_nodes.size:] @ high_weights)
    error = abs(result - low)
    if not error <= max(_ABS_TOL, _REL_TOL * abs(result)):  # a NaN error too
        raise QuadratureError("oscillatory quadrature did not converge", result, error)
    return result


def _quadrature(bath: OhmicBath, r: float, kind: CouplingKind) -> float:
    """A coupling from its frequency integral: the prefactor times the
    integral of the kind's weight times f(xu) (``_KINDS``)."""
    x = _phase_scale(bath, r)
    return _coupling_scale(bath, kind) * _oscillatory_integral(
        lambda u: _KINDS[kind].weight(u) * propagation_kernel_f(x * u, bath.geometry), x)


def spurious_coupling_quadrature(bath: OhmicBath, r: float) -> float:
    """Spurious coupling from its integral definition, (1/pi) int_0^inf J_jk(w) dw.

    Zero-temperature symmetrized correlator; agrees with the closed form to
    better than 1e-8 relative.
    """
    return _quadrature(bath, r, CouplingKind.SPURIOUS)


def transient_coupling_quadrature(bath: OhmicBath, r: float) -> float:
    """Transient coupling from its integral definition, (2/pi) int_0^inf J_kn(w)/w dw."""
    return _quadrature(bath, r, CouplingKind.TRANSIENT)


def coupling_matrix(bath: OhmicBath, positions: Sequence, kind: CouplingKind) -> CouplingMatrix:
    """Pairwise coupling matrix for sites at the given coordinates.

    Entries are the closed forms evaluated at the pairwise distances, so the
    matrix is symmetric and translation invariant; the diagonal carries the
    zero-distance value.  A distance or a coupling beyond the float range
    raises ValueError (:func:`~gatenoise.noise._finite`).
    """
    kind = CouplingKind(kind)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        x = bath.cutoff * _distance_matrix(positions) / bath.velocity
        scale = _coupling_scale(bath, kind)
    x = _finite(x, "{} coupling overflows: check the positions and the bath", kind.value)
    return CouplingMatrix(kind=kind, values=scale * _KINDS[kind].kernel(x, bath.geometry))


def transient_energy_shift(
    drive: GateDrive, label: RegisterLabel, mu: CouplingMatrix
) -> float:
    """Transient level shift of a driven register.

    Evaluates (1/2) sum_{j k l n} phi_j phi_l mu_kn m_j m_k m_l m_n, which
    factorizes exactly as (1/2) (sum_j phi_j m_j)^2 (m^T mu m): O(L^2) work
    (the explicit quadruple sum is the oracle in the test suite).  A shift
    beyond the float range is refused (:func:`~gatenoise.noise._finite`).
    """
    if mu.kind is not CouplingKind.TRANSIENT:
        raise ValueError("energy shift requires a transient coupling matrix")
    n = len(label)
    if len(drive) != n or mu.n_qubits != n:
        raise ValueError(
            f"length mismatch: drive {len(drive)}, label {n}, matrix {mu.n_qubits}"
        )
    phi = np.asarray(drive.phi, dtype=float)
    m = np.asarray(label.bits, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        drive_sum = phi @ m  # a numpy scalar: its square overflows to inf, not an error
        shift = 0.5 * drive_sum**2 * float(m @ mu.values @ m)
    return float(_finite(shift, "transient level shift overflows the float range"))


def drive_enhancement(n_qubits: int, bath: OhmicBath) -> float:
    """Self-interaction enhancement of the gate control fields: 1 + L c w_c / 4 pi.

    The same-site terms of the transient coupling act back on the driven pair,
    amplifying the effective control amplitudes linearly in the register
    length.  Compensable by re-calibrating the drive.  A factor beyond the
    float range is refused (:func:`~gatenoise.noise._finite`).
    """
    n_qubits = _check_length(n_qubits)
    enhancement = 1.0 + n_qubits * bath.coupling * bath.cutoff / (4.0 * math.pi)
    return _finite(enhancement, "drive enhancement overflows for {} qubits", n_qubits)
