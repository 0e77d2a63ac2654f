import pytest
from hypothesis import given, strategies as st

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
