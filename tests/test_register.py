import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gatenoise.couplings import drive_enhancement
from gatenoise.mcsim import mc_bus_scaling
from gatenoise.noise import OhmicBath
from gatenoise.rates import ArchitectureModel, ArchKind, NoiseKind, scaling_scan, worst_case_pair
from gatenoise.register import (
    CoherencePair,
    GateDrive,
    RegisterLabel,
    enumerate_labels,
    hamming_distance,
    iter_coherence_pairs,
    label_with_total_spin,
    pointer_bus,
    pointer_fsa_pair,
    pointer_fsa_uniform,
    total_spin,
)

labels = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=10).map(
    lambda bits: RegisterLabel(tuple(bits))
)


@st.composite
def label_pairs(draw):
    n = draw(st.integers(1, 10))
    spins = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
    return CoherencePair(
        RegisterLabel(tuple(draw(spins))), RegisterLabel(tuple(draw(spins)))
    )


def test_total_spin_examples():
    assert total_spin(RegisterLabel((1, 1, -1))) == 1
    assert total_spin(RegisterLabel((1, 1))) == 2
    assert total_spin(RegisterLabel((-1,) * 5)) == -5


def test_label_validation():
    with pytest.raises(ValueError):
        RegisterLabel(())
    with pytest.raises(ValueError):
        RegisterLabel((1, 0, -1))


def test_label_string_roundtrip():
    label = RegisterLabel.from_string("++-+")
    assert label.bits == (1, 1, -1, 1)
    assert str(label) == "++-+"
    assert RegisterLabel.from_string("+−") == RegisterLabel((1, -1))
    with pytest.raises(ValueError):
        RegisterLabel.from_string("+x")


def test_hamming_distance_examples():
    assert hamming_distance(CoherencePair.from_strings("++", "+-")) == 1
    assert hamming_distance(CoherencePair.from_strings("+-+", "+-+")) == 0
    assert hamming_distance(CoherencePair.from_strings("++++", "----")) == 4


def test_pair_length_mismatch():
    with pytest.raises(ValueError):
        CoherencePair.from_strings("++", "+++")


def test_pointer_fsa_uniform_examples():
    assert pointer_fsa_uniform(RegisterLabel((1, 1))) == 2.0
    assert pointer_fsa_uniform(RegisterLabel((1, -1))) == 0.0
    assert pointer_fsa_uniform(RegisterLabel((-1, -1))) == 2.0


def test_pointer_fsa_pair_examples():
    assert pointer_fsa_pair(RegisterLabel((1, 1)), 0, 1) == 0.5
    assert pointer_fsa_pair(RegisterLabel((1, -1)), 0, 1) == -0.5
    with pytest.raises(ValueError):
        pointer_fsa_pair(RegisterLabel((1, -1)), 0, 2)
    with pytest.raises(ValueError):
        pointer_fsa_pair(RegisterLabel((1, -1)), 1, 1)


def test_pointer_bus_examples():
    drive = GateDrive((1.0, 1.0))
    assert pointer_bus(RegisterLabel((1, 1)), drive) == 4.0
    assert pointer_bus(RegisterLabel((1, 1)), GateDrive.idle(2)) == 0.0
    assert pointer_bus(RegisterLabel((1, -1)), drive) == 0.0
    with pytest.raises(ValueError):
        pointer_bus(RegisterLabel((1, 1, 1)), drive)


def test_enumerate_labels():
    assert [l.bits for l in enumerate_labels(1)] == [(1,), (-1,)]
    assert len(enumerate_labels(2)) == 4
    with pytest.raises(ValueError):
        enumerate_labels(13)
    with pytest.raises(ValueError):
        enumerate_labels(0)


def test_enumerate_labels_unique_lexicographic():
    seen = [l.bits for l in enumerate_labels(4)]
    assert len(set(seen)) == 16
    assert seen == sorted(seen, key=lambda b: [0 if x == 1 else 1 for x in b])


def test_iter_coherence_pairs_count():
    # unordered pairs with diagonal: 2^L (2^L + 1) / 2
    assert sum(1 for _ in iter_coherence_pairs(2)) == 10


def test_label_with_total_spin():
    assert label_with_total_spin(4, 0).bits == (1, 1, -1, -1)
    assert label_with_total_spin(3, -3).bits == (-1, -1, -1)
    with pytest.raises(ValueError):
        label_with_total_spin(3, 0)  # parity
    with pytest.raises(ValueError):
        label_with_total_spin(3, 5)


@pytest.mark.parametrize(
    "phi", [(float("nan"), 1.0), (1.0, float("inf")), (0.0, 0.0, float("-inf"))]
)
def test_gate_drive_rejects_non_finite(phi):
    with pytest.raises(ValueError, match="non-finite"):
        GateDrive(phi)


def test_gate_drive_needs_a_qubit():
    with pytest.raises(ValueError, match="at least one qubit"):
        GateDrive(())


# Lengths past a tuple's reach are tested only at 2^63 and above: a length
# between about 10^8 and 2^63 can try to build a tuple that large.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_labels(True), "register length must be an integer"),
        (lambda: enumerate_labels(2.0), "register length must be an integer"),
        (lambda: label_with_total_spin(2, 0.0), "total spin must be an integer"),
        (lambda: label_with_total_spin(2.0, 0), "register length must be an integer"),
        (lambda: label_with_total_spin(2**63, 0), "register length must be <="),
        (lambda: GateDrive.idle(2.0), "register length must be an integer"),
        (lambda: GateDrive.idle(2**63), "register length must be <="),
        (lambda: GateDrive.two_qubit_gate(4.0, 0, 1), "register length must be an integer"),
        (lambda: GateDrive.two_qubit_gate(4, 0.0, 1), "qubit j must be an integer"),
        (lambda: GateDrive.two_qubit_gate(2**63, 0, 1), "register length must be <="),
    ],
    ids=["enumerate_bool_length", "enumerate_float_length", "total_spin_float",
         "total_spin_float_length", "total_spin_huge_length", "idle_float_length",
         "idle_huge_length", "gate_float_length", "gate_float_index", "gate_huge_length"],
)
def test_register_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_counts_take_numpy_integers():
    assert enumerate_labels(np.int64(2)) == enumerate_labels(2)
    assert label_with_total_spin(np.int64(4), np.int64(0)) == label_with_total_spin(4, 0)
    assert GateDrive.idle(np.int64(3)) == GateDrive.idle(3)
    assert (GateDrive.two_qubit_gate(np.int64(4), np.int64(0), np.int64(1))
            == GateDrive.two_qubit_gate(4, 0, 1))
    label = RegisterLabel((1, -1, 1, 1))
    assert pointer_fsa_pair(label, np.int64(0), np.int64(1)) == pointer_fsa_pair(label, 0, 1)
    bath = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0)
    assert drive_enhancement(np.int64(4), bath) == drive_enhancement(4, bath)
    _, fitted = mc_bus_scaling((np.int64(2), 4), n_trajectories=100)
    assert [type(n) for n, _ in fitted] == [int, int]


LENGTH_RULE = "register length must be"
INDEX_RULE = "qubit k must be|need 0 <= j < k"
BATH = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0)
# Every public entry point that takes a register length or a gate index:
# (call with the value in that place, the rule its refusal names).
RULE_ENTRY_POINTS = {
    "model": (lambda n: ArchitectureModel(ArchKind.FSA_UNIFORM, n), LENGTH_RULE),
    "worst_case_pair": (lambda n: worst_case_pair(ArchKind.FSA_UNIFORM, n), LENGTH_RULE),
    "scaling_scan": (lambda n: scaling_scan(ArchKind.BUS, NoiseKind.CENTRAL, [n]), LENGTH_RULE),
    "idle": (GateDrive.idle, LENGTH_RULE),
    "two_qubit_gate": (lambda n: GateDrive.two_qubit_gate(n, 0, 1), LENGTH_RULE),
    "two_qubit_gate_index": (lambda k: GateDrive.two_qubit_gate(4, 0, k), INDEX_RULE),
    "label_with_total_spin": (lambda n: label_with_total_spin(n, 0), LENGTH_RULE),
    "enumerate_labels": (enumerate_labels, LENGTH_RULE),
    "drive_enhancement": (lambda n: drive_enhancement(n, BATH), LENGTH_RULE),
    "mc_bus_scaling": (lambda n: mc_bus_scaling((n, 4), n_trajectories=100), LENGTH_RULE),
    "pointer_fsa_pair": (lambda k: pointer_fsa_pair(RegisterLabel((1, -1, 1, 1)), 0, k),
                         INDEX_RULE),
}


@pytest.mark.parametrize(
    "value", [2**63, 10**5000, 0, -1, 2.5, True, math.nan],
    ids=["2**63", "10**5000", "zero", "minus_one", "fraction", "bool", "nan"],
)
@pytest.mark.parametrize("entry", list(RULE_ENTRY_POINTS))
def test_length_and_gate_index_rules_refuse_everywhere(entry, value):
    call, rule = RULE_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rule):
            call(value)


@given(labels)
def test_global_flip_leaves_uniform_pointer_invariant(label):
    assert pointer_fsa_uniform(label) == pointer_fsa_uniform(label.flipped())


@given(label_pairs())
def test_hamming_symmetry(pair):
    flipped = CoherencePair(pair.right, pair.left)
    assert hamming_distance(pair) == hamming_distance(flipped)
    assert (hamming_distance(pair) == 0) == (pair.left == pair.right)


@given(labels)
def test_pair_pointer_sum_rule(label):
    # every Q_jk^2 is 1/4, so 4 * sum over j<k equals the number of gates
    n = len(label)
    acc = sum(
        4.0 * pointer_fsa_pair(label, j, k) ** 2
        for j in range(n)
        for k in range(j + 1, n)
    )
    assert acc == n * (n - 1) / 2


@given(labels, st.floats(-3, 3, allow_nan=False), st.integers(0, 9))
def test_pointer_bus_bilinear_in_drive(label, scale, j):
    n = len(label)
    phi = tuple(0.5 * (i - n / 3) for i in range(n))
    base = pointer_bus(label, GateDrive(phi))
    scaled = pointer_bus(label, GateDrive(tuple(scale * p for p in phi)))
    assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)
