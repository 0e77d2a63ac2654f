"""Register labels, coherence pairs and pointer variables.

Every Hamiltonian in scope is diagonal in the computational basis, so a
register state is fully described by its string of Pauli-Z eigenvalues
m_j = +1/-1, and an off-diagonal density-matrix element by an ordered pair of
such labels.  Pointer variables map a label (or label pair) to the scalar
eigenvalue whose difference between the two labels sets the dephasing rate.

This module owns the package's one length rule (``_check_length``): a
register length is an integer from 1 to 2^63 - 1, the longest register a
tuple can hold, and every public function that takes a length, here and in
``rates``, ``couplings`` and ``mcsim``, refuses it through this check.  It
also owns the one gate-index rule (``_check_gate``) and the one loop over the
gates' pointer differences (``_gate_pointer_deltas``).

All operations here are pure functions on immutable values.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .noise import _check_integer

__all__ = [
    "MAX_ENUMERATION_LENGTH",
    "RegisterLabel",
    "CoherencePair",
    "GateDrive",
    "total_spin",
    "hamming_distance",
    "pointer_fsa_uniform",
    "pointer_fsa_pair",
    "pointer_bus",
    "enumerate_labels",
    "iter_coherence_pairs",
    "label_with_total_spin",
]

# Guard for exhaustive enumeration (2^L labels, 4^L label pairs).
MAX_ENUMERATION_LENGTH = 12
# Longest register a tuple can hold: a longer length is refused everywhere.
_MAX_LENGTH = sys.maxsize

_CHAR_TO_SPIN = {"+": 1, "-": -1, "−": -1}  # ASCII and unicode minus
_SPIN_TO_CHAR = {1: "+", -1: "-"}


def _check_length(n_qubits: object, lo: int = 1, hi: int = _MAX_LENGTH) -> int:
    """The register length as a Python int in [lo, hi]: the package's one length rule.

    Below 2^63 every scaling law and gate count is a finite float or an int
    (the largest law value, (L^2 - 1)^2, is about 7e75), so no caller needs an
    overflow path of its own.
    """
    return _check_integer("register length", n_qubits, lo, hi)


def _check_gate(n_qubits: int, j: object, k: object) -> tuple[int, int]:
    """Gate indices as Python ints with 0 <= j < k < n_qubits: the one gate-index rule."""
    j = _check_integer("qubit j", j, 0, n_qubits - 1)
    k = _check_integer("qubit k", k, 0, n_qubits - 1)
    if j >= k:
        raise ValueError(f"need 0 <= j < k < {n_qubits}, got ({j}, {k})")
    return j, k


def _coerce_bits(bits: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if len(out) < 1:
        raise ValueError("a register label needs at least one qubit")
    bad = [b for b in out if b not in (1, -1)]
    if bad:
        raise ValueError(f"label entries must be +1 or -1, got {bad[0]!r}")
    return out


@dataclass(frozen=True)
class RegisterLabel:
    """Computational-basis label: a tuple of Pauli-Z eigenvalues, each +1 or -1."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _coerce_bits(self.bits))

    @classmethod
    def from_string(cls, text: str) -> "RegisterLabel":
        """Parse a label from a '+'/'-' string such as ``"++-+"``."""
        try:
            bits = tuple(_CHAR_TO_SPIN[c] for c in text.strip())
        except KeyError as exc:
            raise ValueError(f"invalid label character {exc.args[0]!r}") from None
        return cls(bits)

    def flipped(self) -> "RegisterLabel":
        """Label with every qubit flipped (global spin flip)."""
        return RegisterLabel(tuple(-b for b in self.bits))

    def __str__(self) -> str:
        return "".join(_SPIN_TO_CHAR[b] for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class CoherencePair:
    """Ordered pair of labels (left, right) addressing one off-diagonal element."""

    left: RegisterLabel
    right: RegisterLabel

    def __post_init__(self) -> None:
        if len(self.left) != len(self.right):
            raise ValueError(
                f"label lengths differ: {len(self.left)} vs {len(self.right)}"
            )

    @classmethod
    def from_strings(cls, left: str, right: str) -> "CoherencePair":
        return cls(RegisterLabel.from_string(left), RegisterLabel.from_string(right))

    @property
    def n_qubits(self) -> int:
        return len(self.left)

    def flipped(self) -> "CoherencePair":
        """Pair with both labels globally spin-flipped."""
        return CoherencePair(self.left.flipped(), self.right.flipped())

    def __str__(self) -> str:
        return f"{self.left}|{self.right}"


@dataclass(frozen=True)
class GateDrive:
    """Per-qubit control amplitudes for the shared-line (bus) coupler.

    ``phi[j]`` is the nominal control signal on qubit j, in natural energy
    units.  A drive is "nominal" when exactly one two-qubit gate is active
    (exactly two non-zero entries) or the register is idle (all zero).
    """

    phi: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", tuple(float(p) for p in self.phi))
        if len(self.phi) < 1:
            raise ValueError("a drive needs at least one qubit")
        if not all(math.isfinite(p) for p in self.phi):
            raise ValueError(f"non-finite drive amplitude in {self.phi}")

    @classmethod
    def idle(cls, n_qubits: int) -> "GateDrive":
        return cls((0.0,) * _check_length(n_qubits))

    @classmethod
    def two_qubit_gate(cls, n_qubits: int, j: int, k: int, amplitude: float = 1.0) -> "GateDrive":
        """Drive with one active gate on qubits (j, k)."""
        n_qubits = _check_length(n_qubits)
        j, k = _check_gate(n_qubits, j, k)
        phi = [0.0] * n_qubits
        phi[j] = phi[k] = float(amplitude)
        return cls(tuple(phi))

    def __len__(self) -> int:
        return len(self.phi)


def total_spin(label: RegisterLabel) -> int:
    """Sum of the Z eigenvalues: the z component of the register's total spin."""
    return sum(label.bits)


def hamming_distance(pair: CoherencePair) -> int:
    """Number of qubit positions at which the two labels differ."""
    return sum(1 for a, b in zip(pair.left.bits, pair.right.bits) if a != b)


def pointer_fsa_uniform(label: RegisterLabel) -> float:
    """Pointer eigenvalue for a fully switched array driven by one central noise source.

    Equals half the squared total spin, so it is invariant under a global
    spin flip.
    """
    m = total_spin(label)
    return m * m / 2.0


def pointer_fsa_pair(label: RegisterLabel, j: int, k: int) -> float:
    """Pointer eigenvalue of the (j, k) gate for independent per-gate noise.

    j and k are checked integers with 0 <= j < k < L (``_check_gate``).
    """
    j, k = _check_gate(len(label), j, k)
    return label.bits[j] * label.bits[k] / 2.0


def _gate_pointer_deltas(pair: CoherencePair) -> Iterator[tuple[tuple[int, int], float]]:
    """((j, k), Q_jk - Q'_jk) for every gate j < k in row order.

    The formula of :func:`pointer_fsa_pair` without its per-call checks: the
    indices are in range by construction.
    """
    left, right = pair.left.bits, pair.right.bits
    n = len(left)
    for j in range(n):
        for k in range(j + 1, n):
            yield (j, k), left[j] * left[k] / 2.0 - right[j] * right[k] / 2.0


def pointer_bus(label: RegisterLabel, drive: GateDrive) -> float:
    """Pointer eigenvalue of a driven register on a shared coupling line.

    Q = M * sum_j phi_j m_j.  Bilinear in the drive: scaling every phi_j by c
    scales Q by c.
    """
    if len(drive) != len(label):
        raise ValueError(
            f"drive length {len(drive)} does not match register length {len(label)}"
        )
    m = total_spin(label)
    return m * sum(p * b for p, b in zip(drive.phi, label.bits))


def enumerate_labels(n_qubits: int) -> list[RegisterLabel]:
    """All 2^L labels in lexicographic order (+1 sorts before -1)."""
    _check_length(n_qubits, hi=MAX_ENUMERATION_LENGTH)
    return [RegisterLabel(bits) for bits in product((1, -1), repeat=n_qubits)]


def iter_coherence_pairs(n_qubits: int) -> Iterator[CoherencePair]:
    """All unordered label pairs, diagonal included: 2^L (2^L + 1) / 2 pairs."""
    labels = enumerate_labels(n_qubits)
    for i, left in enumerate(labels):
        for right in labels[i:]:
            yield CoherencePair(left, right)


def label_with_total_spin(n_qubits: int, m_total: int) -> RegisterLabel:
    """Canonical label with the requested total spin: leading +1s, trailing -1s."""
    n_qubits = _check_length(n_qubits)
    m_total = _check_integer("total spin", m_total)
    if abs(m_total) > n_qubits or (n_qubits - m_total) % 2 != 0:
        raise ValueError(
            f"total spin {m_total} unreachable for {n_qubits} qubits"
        )
    n_up = (n_qubits + m_total) // 2
    return RegisterLabel((1,) * n_up + (-1,) * (n_qubits - n_up))
