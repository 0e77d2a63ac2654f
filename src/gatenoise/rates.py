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
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .noise import OhmicBath
from .register import (
    CoherencePair,
    GateDrive,
    RegisterLabel,
    hamming_distance,
    label_with_total_spin,
    pointer_bus,
    pointer_fsa_pair,
    pointer_fsa_uniform,
)

__all__ = [
    "ArchKind",
    "NoiseKind",
    "ArchitectureModel",
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
class ArchitectureModel:
    """A register architecture: kind, length, and (for the bus) the gate drive."""

    kind: ArchKind
    n_qubits: int
    drive: GateDrive | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ArchKind):
            object.__setattr__(self, "kind", ArchKind(self.kind))
        if self.n_qubits < 1:
            raise ValueError(f"register length must be >= 1, got {self.n_qubits}")
        if self.kind is ArchKind.HYPERCUBE:
            if self.n_qubits < 2 or self.n_qubits & (self.n_qubits - 1):
                raise ValueError(
                    f"hypercube requires L = 2^d with d >= 1, got L = {self.n_qubits}"
                )
        if self.kind is ArchKind.BUS:
            if self.drive is None:
                raise ValueError("bus architecture requires a gate drive")
            if len(self.drive) != self.n_qubits:
                raise ValueError(
                    f"drive length {len(self.drive)} does not match L = {self.n_qubits}"
                )
        elif self.drive is not None and len(self.drive) != self.n_qubits:
            raise ValueError("drive length does not match register length")


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
    """Generic rate kernel: gamma = S(0) (Q - Q')^2 / 2, hbar = 1."""
    if s0 < 0:
        raise ValueError(f"noise power must be >= 0, got {s0}")
    dq = q - qp
    return 0.5 * s0 * dq * dq


def _require_thermal(bath: OhmicBath) -> None:
    if bath.temperature <= 0:
        raise ValueError("thermal dephasing rates require temperature > 0")


def _thermal_power(bath: OhmicBath) -> float:
    """S(0) = 2 T coupling, the zero-frequency power of the thermal noise."""
    _require_thermal(bath)
    return 2.0 * bath.temperature * bath.coupling


def _independent_rate(bath: OhmicBath, n_qubits: int, nd):
    """(coupling T / 16) (L - N_d) N_d; ``nd`` may be an integer array."""
    _require_thermal(bath)
    return bath.coupling * bath.temperature / 16.0 * (n_qubits - nd) * nd


def rate_fsa_uniform(bath: OhmicBath, pair: CoherencePair) -> RateResult:
    """Dephasing rate of a fully switched array under one central noise source.

    Quartic in the total spins; vanishes whenever M^2 == M'^2, so globally
    spin-flipped label pairs are decoherence-free.
    """
    s0 = _thermal_power(bath)
    q = pointer_fsa_uniform(pair.left)
    qp = pointer_fsa_uniform(pair.right)
    gamma = dephasing_rate(s0, q, qp)
    return RateResult(gamma=gamma, pointer_delta_sq=(q - qp) ** 2)


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


def _fsa_pair_sum(bath: OhmicBath, pair: CoherencePair, calibration: float) -> tuple[float, float, dict]:
    s0 = 2.0 * bath.temperature * bath.coupling
    total = 0.0
    delta_sq = 0.0
    breakdown: dict[tuple[int, int], float] = {}
    n = pair.n_qubits
    for j in range(n):
        for k in range(j + 1, n):
            dq = pointer_fsa_pair(pair.left, j, k) - pointer_fsa_pair(pair.right, j, k)
            contribution = calibration * dephasing_rate(s0, dq, 0.0)
            if contribution:
                breakdown[(j, k)] = contribution
            total += contribution
            delta_sq += dq * dq
    return total, delta_sq, breakdown


_PAIR_CALIBRATION: float | None = None


def fsa_pair_calibration() -> float:
    """Calibration constant of the per-gate pair sum.

    Fixed once so that the two-qubit register with one flipped qubit
    reproduces the closed-form independent-noise rate exactly; the
    (L - N_d) N_d dependence must then emerge for every other pair without
    further fitting.  The constant absorbs the bookkeeping convention of the
    double sum over gates (ordered vs unordered pairs and the Hamiltonian
    prefactor), which the closed forms do not pin down.
    """
    global _PAIR_CALIBRATION
    if _PAIR_CALIBRATION is None:
        bath = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0)
        anchor = CoherencePair(RegisterLabel((1, 1)), RegisterLabel((1, -1)))
        raw, _, _ = _fsa_pair_sum(bath, anchor, 1.0)
        _PAIR_CALIBRATION = rate_fsa_independent(bath, anchor).gamma / raw
    return _PAIR_CALIBRATION


def rate_fsa_independent_bruteforce(bath: OhmicBath, pair: CoherencePair) -> RateResult:
    """Independent-noise rate as an explicit sum over per-gate noise sources.

    Applies the generic rate kernel to every unordered gate (j, k) with the
    per-gate pointer eigenvalues, times the single anchor calibration from
    ``fsa_pair_calibration``.  Serves as an independent check of the closed
    form; guarded to L <= 12.
    """
    _require_thermal(bath)
    if pair.n_qubits > 12:
        raise ValueError(f"brute force guarded to L <= 12, got {pair.n_qubits}")
    total, delta_sq, breakdown = _fsa_pair_sum(bath, pair, fsa_pair_calibration())
    return RateResult(gamma=total, pointer_delta_sq=delta_sq, breakdown=breakdown)


def rate_bus(bath: OhmicBath, pair: CoherencePair, drive: GateDrive) -> RateResult:
    """Dephasing rate of a driven register on a shared coupling line.

    gamma = coupling * T * (Q - Q')^2 with Q = M sum_j phi_j m_j; equals the
    generic kernel at noise power S(0) = 2 * coupling * T.  Since Q grows
    with the total spin, worst-case rates scale as L^2.
    """
    s0 = _thermal_power(bath)
    q = pointer_bus(pair.left, drive)
    qp = pointer_bus(pair.right, drive)
    gamma = dephasing_rate(s0, q, qp)
    return RateResult(gamma=gamma, pointer_delta_sq=(q - qp) ** 2)


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
    label must have ``arch.n_qubits`` qubits.
    """
    bits = np.array([label.bits for label in labels], dtype=np.int8)
    bits = bits.reshape(len(labels), arch.n_qubits)
    hamming = np.count_nonzero(bits[left] != bits[right], axis=1)
    if arch.kind is ArchKind.FSA_INDEPENDENT:
        return RateTable(None, hamming, _independent_rate(bath, arch.n_qubits, hamming))
    if arch.kind is ArchKind.FSA_UNIFORM:
        pointers = [pointer_fsa_uniform(label) for label in labels]
    elif arch.kind is ArchKind.BUS:
        pointers = [pointer_bus(label, arch.drive) for label in labels]
    else:
        raise ValueError(f"no closed-form rate table for {arch.kind.value}")
    q = np.array(pointers, dtype=float)
    return RateTable(pointers, hamming, dephasing_rate(_thermal_power(bath), q[left], q[right]))


def gate_count(arch: ArchitectureModel) -> int:
    """Number of noise entry points (GCN-vulnerable gates or control lines)."""
    n = arch.n_qubits
    if arch.kind in (ArchKind.FSA_UNIFORM, ArchKind.FSA_INDEPENDENT):
        return n * (n + 1) // 2
    if arch.kind is ArchKind.HYPERCUBE:
        return (n // 2) * int(math.log2(n))
    if arch.kind is ArchKind.BUS:
        return n  # one control line per qubit
    return n  # processor core: L core/storage swap gates


def _max_uniform_gap_sq(n_qubits: int) -> float:
    """max over label pairs of (M^2 - M'^2)^2: L^4 for even L, (L^2-1)^2 for odd."""
    return float((n_qubits**2 - (n_qubits % 2)) ** 2)


def _max_independent_sources(n_qubits: int) -> float:
    """max over label pairs of (L - N_d) N_d, attained at half-flipped labels."""
    return float((n_qubits // 2) * ((n_qubits + 1) // 2))


def scaling_scan(
    kind: ArchKind,
    noise: NoiseKind,
    n_qubits_values: Sequence[int],
) -> list[ScanPoint]:
    """Worst-case relative dephasing rate vs register length, unit per-gate rate.

    Supported combinations and their laws:

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

    Any other combination has no closed-form law in scope and raises.
    """
    kind = ArchKind(kind)
    noise = NoiseKind(noise)
    points: list[ScanPoint] = []
    for n in n_qubits_values:
        n = int(n)
        if n < 1:
            raise ValueError(f"register length must be >= 1, got {n}")
        if kind is ArchKind.FSA_UNIFORM and noise is NoiseKind.CENTRAL:
            rate = _max_uniform_gap_sq(n)
        elif kind is ArchKind.FSA_INDEPENDENT and noise is NoiseKind.INDEPENDENT:
            rate = _max_independent_sources(n)
        elif kind is ArchKind.BUS and noise is NoiseKind.CENTRAL:
            rate = float(n**2)
        elif kind is ArchKind.HYPERCUBE and noise is NoiseKind.INDEPENDENT:
            if n < 2 or n & (n - 1):
                raise ValueError(f"hypercube requires L = 2^d, got {n}")
            rate = (n / 2) * math.log2(n)
        elif kind is ArchKind.PROCESSOR_CORE:
            rate = float(n**2) if noise is NoiseKind.CENTRAL else float(n)
        else:
            raise ValueError(
                f"no scaling law in scope for {kind.value} with {noise.value} noise"
            )
        points.append(ScanPoint(n_qubits=n, relative_rate=rate))
    return points


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
    which maximizes the total-spin growth of the pointer (rate ~ L^2).  For
    the hypercube it flips the odd-parity vertices so that every edge joins
    a flipped and an unflipped qubit; for the processor core it flips
    everything so all L swap gates are active.
    """
    kind = ArchKind(kind)
    all_up = label_with_total_spin(n_qubits, n_qubits)
    if kind is ArchKind.FSA_UNIFORM:
        balanced = label_with_total_spin(n_qubits, n_qubits % 2)
        return CoherencePair(all_up, balanced)
    if kind is ArchKind.FSA_INDEPENDENT:
        bits = [1] * n_qubits
        for j in range(n_qubits // 2):
            bits[j] = -1
        return CoherencePair(all_up, RegisterLabel(tuple(bits)))
    if kind is ArchKind.BUS:
        if drive is None:
            drive = GateDrive.two_qubit_gate(n_qubits, 0, min(1, n_qubits - 1))
        active = [j for j, p in enumerate(drive.phi) if p != 0.0]
        if not active:
            raise ValueError("worst-case bus pair needs a non-idle drive")
        bits = [1] * n_qubits
        bits[active[0]] = -1
        return CoherencePair(all_up, RegisterLabel(tuple(bits)))
    if kind is ArchKind.HYPERCUBE:
        if n_qubits < 2 or n_qubits & (n_qubits - 1):
            raise ValueError(f"hypercube requires L = 2^d, got {n_qubits}")
        bits = tuple(-1 if bin(j).count("1") % 2 else 1 for j in range(n_qubits))
        return CoherencePair(all_up, RegisterLabel(bits))
    return CoherencePair(all_up, all_up.flipped())  # processor core

