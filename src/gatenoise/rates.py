"""Analytic dephasing rates and architecture scaling laws.

Pure dephasing by stationary Gaussian noise with a flat spectrum over the
decay bandwidth obeys

    gamma = S(0) * (Q - Q')^2 / 2          (hbar = 1),

where Q, Q' are the pointer eigenvalues of the two labels of a density-matrix
element and S(0) = 2 * T * coupling is the zero-frequency classical noise
power.  The closed forms below follow from the pointer variables of
:mod:`gatenoise.register` applied per noise source:

* central noise on a fully switched array: quartic in the total spins,
  gamma = (coupling * T / 4) (M^2 - M'^2)^2;
* independent per-gate noise: gamma = (coupling * T / 16) (L - N_d) N_d with
  N_d the Hamming distance between the labels;
* a driven shared line: gamma = coupling * T * (Q - Q')^2 with the bilinear
  pointer Q = M sum_j phi_j m_j.

The per-gate pair-sum oracle carries one documented calibration constant
(see ``fsa_pair_calibration``) because the closed forms fix only the
functional dependence, not the bookkeeping convention of the pair sum.

Everything known about one architecture is its :class:`ArchitectureRecord`
in ``ARCHITECTURES``, which every architecture decision reads.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .noise import OhmicBath, TopologyKind, _finite
from .register import (
    CoherencePair,
    GateDrive,
    RegisterLabel,
    _check_length,
    _gate_pointer_deltas,
    hamming_distance,
    label_with_total_spin,
    pointer_bus,
    pointer_fsa_uniform,
)

__all__ = [
    "ArchKind",
    "NoiseKind",
    "ArchitectureModel",
    "ArchitectureRecord",
    "ARCHITECTURES",
    "RateResult",
    "RateTable",
    "ScanPoint",
    "dephasing_rate",
    "rate_fsa_uniform",
    "rate_fsa_independent",
    "rate_fsa_independent_bruteforce",
    "rate_bus",
    "rate_table",
    "fsa_pair_calibration",
    "gate_count",
    "scaling_scan",
    "worst_case_pair",
]


class ArchKind(enum.Enum):
    FSA_UNIFORM = "fsa_uniform"
    FSA_INDEPENDENT = "fsa_independent"
    BUS = "bus"
    HYPERCUBE = "hypercube"
    PROCESSOR_CORE = "processor_core"


class NoiseKind(enum.Enum):
    CENTRAL = "central"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class ArchitectureRecord:
    """What the package knows about one architecture: noise entry points, the
    worst-case rate law per noise kind, the worst-case pair (all-up vs
    ``worst_case(L, drive)``), the L = 2^d rule, the drive a scenario gets (a
    drive is required if set), the closed-form rate with its per-label pointer
    (None under per-gate noise) and the Monte-Carlo source weights on one of
    ``topologies`` (the first by default); None where it has none."""

    gate_count: Callable[[int], int]
    laws: Mapping[NoiseKind, Callable[[int], float]]
    worst_case: Callable[[int, GateDrive | None], RegisterLabel]
    power_of_two: bool = False
    default_drive: Callable[[int], GateDrive] | None = None
    rate: Callable[[OhmicBath, CoherencePair, GateDrive | None], RateResult] | None = None
    pointer: Callable[[RegisterLabel, GateDrive | None], float] | None = None
    sources: Callable[[CoherencePair, GateDrive | None], np.ndarray] | None = None
    topologies: tuple[TopologyKind, ...] = ()


def _check_arch_length(kind: ArchKind, n_qubits: int) -> int:
    """The register length as a Python int (the register's one length rule,
    :func:`~gatenoise.register._check_length`), and L = 2^d (d >= 1) where
    the architecture requires it."""
    n = _check_length(n_qubits)
    if ARCHITECTURES[kind].power_of_two and (n < 2 or n & (n - 1)):
        raise ValueError(f"{kind.value} requires L = 2^d with d >= 1, got L = {n}")
    return n


@dataclass(frozen=True)
class ArchitectureModel:
    """A register architecture: kind, length, and (for the bus) the gate drive.

    The length follows the register's one length rule (an integer from 1 to
    2^63 - 1) plus the architecture's L = 2^d rule where it has one.
    """

    kind: ArchKind
    n_qubits: int
    drive: GateDrive | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ArchKind):
            object.__setattr__(self, "kind", ArchKind(self.kind))
        _check_arch_length(self.kind, self.n_qubits)
        if self.drive is None and self.record.default_drive is not None:
            raise ValueError(f"{self.kind.value} architecture requires a gate drive")
        if self.drive is not None and len(self.drive) != self.n_qubits:
            raise ValueError(f"drive length {len(self.drive)} does not match L = {self.n_qubits}")

    @property
    def record(self) -> ArchitectureRecord:
        return ARCHITECTURES[self.kind]


@dataclass(frozen=True)
class RateResult:
    """A dephasing rate with its squared pointer separation.

    ``pointer_delta_sq`` is sum_s (Q_s - Q'_s)^2 over the architecture's
    noise sources, so gamma == 0 exactly when pointer_delta_sq == 0.
    ``breakdown`` optionally itemizes per-source contributions.
    """

    gamma: float
    pointer_delta_sq: float
    breakdown: Mapping[tuple[int, int], float] | None = None


@dataclass(frozen=True)
class RateTable:
    """Rates of many coherence pairs over a shared list of labels.

    Pair i is (labels[left[i]], labels[right[i]]).  ``pointers`` holds one
    pointer eigenvalue per label (None under independent per-gate noise,
    which has one pointer per gate, not per label); ``hamming`` and ``gamma``
    hold N_d and the rate per pair.
    """

    pointers: list[float] | None
    hamming: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class ScanPoint:
    n_qubits: int
    relative_rate: float


def dephasing_rate(s0: float, q: float, qp: float) -> float:
    """Generic rate kernel: gamma = S(0) (Q - Q')^2 / 2, hbar = 1.

    The noise power must be finite and >= 0, and a rate that is not finite
    (from a pointer that is not finite or is beyond the float range) raises
    ValueError (:func:`~gatenoise.noise._finite`).  The pointers may be
    numbers or arrays.
    """
    if not 0 <= s0 < math.inf:  # NaN included
        raise ValueError(f"noise power must be finite and >= 0, got {s0}")
    if isinstance(q, np.ndarray) or isinstance(qp, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            dq = q - qp
            gamma = 0.5 * s0 * dq * dq
    else:  # Python floats overflow to inf without a warning, numpy scalars with one
        try:
            dq = float(q) - float(qp)
        except OverflowError:  # an int pointer beyond the float range
            dq = math.inf
        gamma = 0.5 * float(s0) * dq * dq
    return _finite(gamma, "dephasing rate overflows the float range")


def _require_thermal(bath: OhmicBath) -> None:
    if bath.temperature <= 0:
        raise ValueError("thermal dephasing rates require temperature > 0")


def _thermal_power(bath: OhmicBath) -> float:
    """S(0) = 2 T coupling, the zero-frequency power of the thermal noise."""
    _require_thermal(bath)
    return _finite(
        2.0 * bath.temperature * bath.coupling,
        "noise power S(0) at temperature {:g} and coupling {:g} overflows the float range",
        bath.temperature, bath.coupling,
    )


def _independent_rate(bath: OhmicBath, n_qubits: int, nd):
    """(coupling T / 16) (L - N_d) N_d; ``nd`` may be an integer array.

    A rate that is not finite raises ValueError (:func:`~gatenoise.noise._finite`),
    as :func:`dephasing_rate` does.
    """
    _require_thermal(bath)
    gamma = bath.coupling * bath.temperature / 16.0 * (n_qubits - nd) * nd
    return _finite(gamma, "dephasing rate overflows the float range")


def _pointer_rate(
    bath: OhmicBath, pair: CoherencePair, pointer: Callable[[RegisterLabel], float]
) -> RateResult:
    """The generic kernel at S(0) = 2 T coupling with one pointer per label."""
    s0 = _thermal_power(bath)
    q = _finite(pointer(pair.left), "pointer overflows the float range")
    qp = _finite(pointer(pair.right), "pointer overflows the float range")
    gamma = dephasing_rate(s0, q, qp)
    try:
        return RateResult(gamma=gamma, pointer_delta_sq=(q - qp) ** 2)
    except OverflowError:  # float ** raises where * gives inf
        raise ValueError("pointer separation overflows the float range") from None


def rate_fsa_uniform(bath: OhmicBath, pair: CoherencePair) -> RateResult:
    """Dephasing rate of a fully switched array under one central noise source.

    Quartic in the total spins; vanishes whenever M^2 == M'^2, so globally
    spin-flipped label pairs are decoherence-free.
    """
    return _pointer_rate(bath, pair, pointer_fsa_uniform)


def rate_fsa_independent(bath: OhmicBath, pair: CoherencePair) -> RateResult:
    """Dephasing rate of a fully switched array with independent per-gate noise.

    gamma = (coupling * T / 16) * (L - N_d) * N_d: zero at N_d = 0 and
    N_d = L, maximal for half-flipped labels where it grows as L^2.
    """
    n = pair.n_qubits
    nd = hamming_distance(pair)
    gamma = _independent_rate(bath, n, nd)
    # Each gate with exactly one flipped endpoint shifts its pointer by 1.
    return RateResult(gamma=gamma, pointer_delta_sq=float((n - nd) * nd))


def _fsa_pair_sum(s0: float, pair: CoherencePair, calibration: float) -> tuple[float, float, dict]:
    total = 0.0
    delta_sq = 0.0
    breakdown: dict[tuple[int, int], float] = {}
    for gate, dq in _gate_pointer_deltas(pair):
        contribution = calibration * dephasing_rate(s0, dq, 0.0)
        if contribution:
            breakdown[gate] = contribution
        total += contribution
        delta_sq += dq * dq
    return total, delta_sq, breakdown


@functools.cache
def fsa_pair_calibration() -> float:
    """Calibration constant of the per-gate pair sum.

    Fixed once so that the two-qubit register with one flipped qubit
    reproduces the closed-form independent-noise rate exactly; the
    (L - N_d) N_d dependence must then emerge for every other pair without
    further fitting.  The constant absorbs the bookkeeping convention of the
    double sum over gates (ordered vs unordered pairs and the Hamiltonian
    prefactor), which the closed forms do not pin down.
    """
    bath = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0)
    anchor = CoherencePair(RegisterLabel((1, 1)), RegisterLabel((1, -1)))
    raw, _, _ = _fsa_pair_sum(_thermal_power(bath), anchor, 1.0)
    return rate_fsa_independent(bath, anchor).gamma / raw


def rate_fsa_independent_bruteforce(bath: OhmicBath, pair: CoherencePair) -> RateResult:
    """Independent-noise rate as an explicit sum over per-gate noise sources.

    Applies the generic rate kernel to every unordered gate (j, k) with the
    per-gate pointer eigenvalues, times the single anchor calibration from
    ``fsa_pair_calibration``.  Serves as an independent check of the closed
    form; guarded to L <= 12.
    """
    s0 = _thermal_power(bath)
    if pair.n_qubits > 12:
        raise ValueError(f"brute force guarded to L <= 12, got {pair.n_qubits}")
    total, delta_sq, breakdown = _fsa_pair_sum(s0, pair, fsa_pair_calibration())
    gamma = _finite(total, "dephasing rate overflows the float range")
    return RateResult(gamma=gamma, pointer_delta_sq=delta_sq, breakdown=breakdown)


def rate_bus(bath: OhmicBath, pair: CoherencePair, drive: GateDrive) -> RateResult:
    """Dephasing rate of a driven register on a shared coupling line.

    gamma = coupling * T * (Q - Q')^2 with Q = M sum_j phi_j m_j; equals the
    generic kernel at noise power S(0) = 2 * coupling * T.  Since Q grows
    with the total spin, worst-case rates scale as L^2.
    """
    return _pointer_rate(bath, pair, lambda label: pointer_bus(label, drive))


def rate_table(
    arch: ArchitectureModel,
    bath: OhmicBath,
    labels: Sequence[RegisterLabel],
    left: np.ndarray,
    right: np.ndarray,
) -> RateTable:
    """Rates of the pairs (labels[left[i]], labels[right[i]]), as arrays.

    Each label's pointer is computed once, and every rate with the same
    arithmetic as ``rate_fsa_uniform`` / ``rate_fsa_independent`` /
    ``rate_bus``, element by element, so the values are identical.  Every
    label must have ``arch.n_qubits`` qubits.  A pointer or a rate beyond the
    float range raises ValueError, as it does in the scalar functions.
    """
    record = arch.record
    if record.rate is None:
        raise ValueError(f"no closed-form rate table for {arch.kind.value}")
    bits = np.array([label.bits for label in labels], dtype=np.int8)
    bits = bits.reshape(len(labels), arch.n_qubits)
    hamming = np.count_nonzero(bits[left] != bits[right], axis=1)
    pointers = None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises inside
        if record.pointer is None:
            gamma = _independent_rate(bath, arch.n_qubits, hamming)
        else:
            pointers = [record.pointer(label, arch.drive) for label in labels]
            q = _finite(np.array(pointers, dtype=float), "pointer overflows the float range")
            gamma = dephasing_rate(_thermal_power(bath), q[left], q[right])
    return RateTable(pointers, hamming, gamma)


def _flipped_where(n_qubits: int, flip: Callable[[int], bool]) -> RegisterLabel:
    return RegisterLabel(tuple(-1 if flip(j) else 1 for j in range(n_qubits)))


def _bus_worst_case(n_qubits: int, drive: GateDrive) -> RegisterLabel:
    active = [j for j, p in enumerate(drive.phi) if p != 0.0]
    if not active:
        raise ValueError("worst-case bus pair needs a non-idle drive")
    return _flipped_where(n_qubits, lambda j: j == active[0])


def _gate_sources(pair: CoherencePair, drive: GateDrive | None) -> np.ndarray:
    # one source per gate whose pointer differs, weighted by the pair-sum calibration
    calib = math.sqrt(fsa_pair_calibration())
    return np.asarray([d * calib for _, d in _gate_pointer_deltas(pair) if d != 0.0], dtype=float)


def _site_sources(pair: CoherencePair, drive: GateDrive) -> np.ndarray:
    # per-site weights sum to Q - Q': where the sites share their noise at w = 0
    # (uniform and spatial topologies) the low-frequency rate is the bus law
    m_l, m_r = (np.asarray(label.bits, dtype=float) for label in (pair.left, pair.right))
    phi = np.asarray(drive.phi, dtype=float)
    return float(phi @ m_l) * m_l - float(phi @ m_r) * m_r


ARCHITECTURES: Mapping[ArchKind, ArchitectureRecord] = MappingProxyType({
    ArchKind.FSA_UNIFORM: ArchitectureRecord(
        gate_count=lambda n: n * (n + 1) // 2,
        laws={NoiseKind.CENTRAL: lambda n: float((n**2 - (n % 2)) ** 2)},
        worst_case=lambda n, drive: label_with_total_spin(n, n % 2),  # spin balanced
        rate=lambda bath, pair, drive: rate_fsa_uniform(bath, pair),
        pointer=lambda label, drive: pointer_fsa_uniform(label),
        sources=lambda pair, drive: np.array([  # one central source
            pointer_fsa_uniform(pair.left) - pointer_fsa_uniform(pair.right)]),
        topologies=(TopologyKind.UNIFORM,),
    ),
    ArchKind.FSA_INDEPENDENT: ArchitectureRecord(
        gate_count=lambda n: n * (n + 1) // 2,
        laws={NoiseKind.INDEPENDENT: lambda n: float((n // 2) * ((n + 1) // 2))},
        worst_case=lambda n, drive: _flipped_where(n, lambda j: j < n // 2),
        rate=lambda bath, pair, drive: rate_fsa_independent(bath, pair),
        sources=_gate_sources,
        topologies=(TopologyKind.INDEPENDENT,),
    ),
    ArchKind.BUS: ArchitectureRecord(
        gate_count=lambda n: n,  # one control line per qubit
        laws={NoiseKind.CENTRAL: lambda n: float(n**2)},
        worst_case=_bus_worst_case,
        default_drive=lambda n: GateDrive.two_qubit_gate(n, 0, min(1, n - 1)),
        rate=rate_bus,
        pointer=pointer_bus,
        sources=_site_sources,
        topologies=(TopologyKind.UNIFORM, TopologyKind.SPATIAL),
    ),
    ArchKind.HYPERCUBE: ArchitectureRecord(
        gate_count=lambda n: (n // 2) * int(math.log2(n)),
        laws={NoiseKind.INDEPENDENT: lambda n: (n / 2) * math.log2(n)},
        # odd-parity vertices flipped: every edge joins a flipped and an unflipped qubit
        worst_case=lambda n, drive: _flipped_where(n, lambda j: bin(j).count("1") % 2),
        power_of_two=True,
    ),
    ArchKind.PROCESSOR_CORE: ArchitectureRecord(
        gate_count=lambda n: n,  # L core/storage swap gates
        laws={NoiseKind.CENTRAL: lambda n: float(n**2), NoiseKind.INDEPENDENT: lambda n: float(n)},
        worst_case=lambda n, drive: _flipped_where(n, lambda j: True),  # every swap active
    ),
})


def gate_count(arch: ArchitectureModel) -> int:
    """Number of noise entry points (GCN-vulnerable gates or control lines)."""
    return arch.record.gate_count(arch.n_qubits)


def scaling_scan(
    kind: ArchKind,
    noise: NoiseKind,
    n_qubits_values: Sequence[int],
) -> list[ScanPoint]:
    """Worst-case relative dephasing rate vs register length, unit per-gate rate.

    Supported combinations and their laws (``ArchitectureRecord.laws``):

    ==================  ===========  =====================================
    architecture        noise        relative rate
    ==================  ===========  =====================================
    fsa_uniform         central      max (M^2 - M'^2)^2 = L^4 (even L)
    fsa_independent     independent  max (L - N_d) N_d = floor(L/2)ceil(L/2)
    bus                 central      L^2
    hypercube           independent  (L/2) log2 L
    processor_core      independent  L
    processor_core      central      L^2
    ==================  ===========  =====================================

    Any other combination has no closed-form law in scope and raises.  Each
    length follows the register's one length rule, under which every law is
    a finite float.
    """
    kind = ArchKind(kind)
    noise = NoiseKind(noise)
    law = ARCHITECTURES[kind].laws.get(noise)
    if law is None:
        raise ValueError(f"no scaling law in scope for {kind.value} with {noise.value} noise")
    lengths = [_check_arch_length(kind, n) for n in n_qubits_values]
    return [ScanPoint(n_qubits=n, relative_rate=law(n)) for n in lengths]


def worst_case_pair(
    kind: ArchKind,
    n_qubits: int,
    drive: GateDrive | None = None,
) -> CoherencePair:
    """A coherence pair attaining the architecture's worst-case scaling.

    For the switched-array kinds this is the enumeration maximizer of the
    closed-form rate (all-up vs spin-balanced labels, resp. half-flipped
    labels).  For the bus it is the canonical quadratically-scaling family:
    the all-up label against the label with the first driven qubit flipped,
    which maximizes the total-spin growth of the pointer (rate ~ L^2); with
    no drive it uses the record's default drive.  For the hypercube it flips
    the odd-parity vertices so that every edge joins a flipped and an
    unflipped qubit; for the processor core it flips everything so all L
    swap gates are active.
    """
    kind = ArchKind(kind)
    record = ARCHITECTURES[kind]
    all_up = label_with_total_spin(n_qubits, n_qubits)
    if drive is None and record.default_drive is not None:
        drive = record.default_drive(n_qubits)
    ArchitectureModel(kind, n_qubits, drive)  # the length rule and the drive's length
    return CoherencePair(all_up, record.worst_case(n_qubits, drive))
