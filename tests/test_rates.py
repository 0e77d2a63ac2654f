import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gatenoise.noise import OhmicBath
from gatenoise.rates import (
    ARCHITECTURES,
    ArchKind,
    ArchitectureModel,
    NoiseKind,
    dephasing_rate,
    fsa_pair_calibration,
    gate_count,
    rate_bus,
    rate_fsa_independent,
    rate_fsa_independent_bruteforce,
    rate_fsa_uniform,
    rate_table,
    scaling_scan,
    worst_case_pair,
)
from gatenoise.register import (
    CoherencePair,
    GateDrive,
    RegisterLabel,
    hamming_distance,
    iter_coherence_pairs,
    label_with_total_spin,
    pointer_fsa_uniform,
    total_spin,
)

BATH = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0)


@st.composite
def label_pairs(draw, max_qubits=6):
    n = draw(st.integers(1, max_qubits))
    spins = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
    return CoherencePair(
        RegisterLabel(tuple(draw(spins))), RegisterLabel(tuple(draw(spins)))
    )


def test_dephasing_rate_examples():
    assert dephasing_rate(2.0, 1.0, 0.0) == 1.0
    assert dephasing_rate(5.0, 3.0, 3.0) == 0.0
    assert dephasing_rate(2.0, 1.0, 4.0) == dephasing_rate(2.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        dephasing_rate(-1.0, 0.0, 1.0)
    # a noise power that is not finite, or a rate beyond the float range,
    # is refused without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise power must be finite"):
                dephasing_rate(s0, 0.0, 1.0)
        for q in (1e300, math.nan, math.inf, np.float64(1e300), np.array([1.0, 1e300])):
            with pytest.raises(ValueError, match="dephasing rate overflows"):
                dephasing_rate(1.0, q, 0.0)


def test_rate_fsa_uniform_examples():
    pair = CoherencePair(label_with_total_spin(2, 2), label_with_total_spin(2, 0))
    assert rate_fsa_uniform(BATH, pair).gamma == 4.0
    same = CoherencePair.from_strings("+-", "+-")
    assert rate_fsa_uniform(BATH, same).gamma == 0.0
    # M = -M' is decoherence-free despite the labels differing everywhere
    mirrored = CoherencePair(label_with_total_spin(3, 3), label_with_total_spin(3, -3))
    assert rate_fsa_uniform(BATH, mirrored).gamma == 0.0


def test_rate_fsa_uniform_matches_generic_kernel():
    # the closed form is the generic kernel at S(0) = 2 coupling T with the
    # central-source pointer eigenvalues
    bath = OhmicBath(coupling=0.7, cutoff=1.0, temperature=1.3)
    for pair in iter_coherence_pairs(4):
        via_kernel = dephasing_rate(
            2.0 * bath.coupling * bath.temperature,
            pointer_fsa_uniform(pair.left),
            pointer_fsa_uniform(pair.right),
        )
        assert rate_fsa_uniform(bath, pair).gamma == via_kernel


def test_rate_fsa_independent_examples():
    pair = CoherencePair.from_strings("++++", "--++")
    assert rate_fsa_independent(BATH, pair).gamma == 0.25
    same = CoherencePair.from_strings("++", "++")
    assert rate_fsa_independent(BATH, same).gamma == 0.0
    allflip = CoherencePair.from_strings("+++", "---")
    assert rate_fsa_independent(BATH, allflip).gamma == 0.0


def test_temperature_guard():
    cold = OhmicBath(coupling=1.0, cutoff=1.0, temperature=0.0)
    pair = CoherencePair.from_strings("++", "+-")
    for fn in (rate_fsa_uniform, rate_fsa_independent, rate_fsa_independent_bruteforce):
        with pytest.raises(ValueError):
            fn(cold, pair)
    with pytest.raises(ValueError):
        rate_bus(cold, pair, GateDrive((1.0, 1.0)))


def test_bruteforce_anchor_and_calibration():
    anchor = CoherencePair.from_strings("++", "+-")
    assert rate_fsa_independent_bruteforce(BATH, anchor).gamma == pytest.approx(
        rate_fsa_independent(BATH, anchor).gamma, rel=1e-15
    )
    assert fsa_pair_calibration() == pytest.approx(1.0 / 16.0, rel=1e-15)


@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
def test_bruteforce_reproduces_closed_form_exhaustively(n_qubits):
    bath = OhmicBath(coupling=0.8, cutoff=1.0, temperature=2.5)
    for pair in iter_coherence_pairs(n_qubits):
        brute = rate_fsa_independent_bruteforce(bath, pair).gamma
        closed = rate_fsa_independent(bath, pair).gamma
        nd = hamming_distance(pair)
        if 0 < nd < n_qubits:
            assert brute == pytest.approx(closed, rel=1e-12)
        else:
            assert brute == 0.0 and closed == 0.0


def test_bruteforce_guard():
    left = RegisterLabel((1,) * 13)
    pair = CoherencePair(left, left.flipped())
    with pytest.raises(ValueError):
        rate_fsa_independent_bruteforce(BATH, pair)


def test_bruteforce_breakdown_counts_active_gates():
    pair = CoherencePair.from_strings("++++", "-+++")
    result = rate_fsa_independent_bruteforce(BATH, pair)
    nd = hamming_distance(pair)
    assert len(result.breakdown) == nd * (4 - nd)
    assert sum(result.breakdown.values()) == pytest.approx(result.gamma, rel=1e-14)


def test_rate_bus_examples():
    drive = GateDrive((1.0, 1.0))
    pair = CoherencePair.from_strings("++", "+-")  # Q = 4, Q' = 0
    assert rate_bus(BATH, pair, drive).gamma == 16.0
    assert rate_bus(BATH, pair, GateDrive.idle(2)).gamma == 0.0
    # Q == Q' when both the total spin and the driven-spin sum agree
    degenerate = CoherencePair.from_strings("+-+", "++-")
    d3 = GateDrive((0.0, 1.0, 1.0))
    assert rate_bus(BATH, degenerate, d3).gamma == 0.0


def test_rate_bus_flip_invariances():
    drive = GateDrive((1.0, 1.0, 0.0, 0.0))
    pair = CoherencePair.from_strings("++++", "-+++")
    base = rate_bus(BATH, pair, drive).gamma
    assert rate_bus(BATH, pair.flipped(), drive).gamma == base
    neg = GateDrive(tuple(-p for p in drive.phi))
    assert rate_bus(BATH, pair.flipped(), neg).gamma == base


NUMPY_BATH = OhmicBath(coupling=np.float64(1e300), cutoff=1.0, temperature=np.float64(1e10))


@pytest.mark.parametrize(
    "call, message",
    [
        # the rate is finite, but (Q - Q')^2 is beyond the float range
        (lambda: rate_bus(OhmicBath(coupling=1e-300, cutoff=1.0, temperature=1.0),
                          CoherencePair.from_strings("++", "+-"), GateDrive((1e200, 1e200))),
         "pointer separation overflows"),
        (lambda: rate_fsa_independent_bruteforce(
            OhmicBath(coupling=1e308, cutoff=1.0, temperature=10.0),
            CoherencePair.from_strings("++", "+-")),
         re.escape("noise power S(0) at temperature 10 and coupling 1e+308 overflows the float "
                   "range")),
        # a bath given numpy scalars holds Python floats, which overflow quietly
        (lambda: rate_fsa_uniform(NUMPY_BATH, CoherencePair.from_strings("++", "+-")),
         "overflows the float range"),
        (lambda: rate_fsa_independent(NUMPY_BATH, CoherencePair.from_strings("++", "+-")),
         "overflows the float range"),
        (lambda: rate_bus(NUMPY_BATH, CoherencePair.from_strings("++", "+-"),
                          GateDrive((1.0, 1.0))), "overflows the float range"),
        (lambda: rate_table(ArchitectureModel(ArchKind.FSA_INDEPENDENT, 2), NUMPY_BATH,
                            [RegisterLabel.from_string("++"), RegisterLabel.from_string("+-")],
                            np.array([0]), np.array([1])), "overflows the float range"),
        # a length is a whole number of qubits, as in mc_bus_scaling
        (lambda: scaling_scan(ArchKind.BUS, NoiseKind.CENTRAL, [math.inf]),
         "register length must be an integer"),
        (lambda: scaling_scan(ArchKind.BUS, NoiseKind.CENTRAL, [1e300]),
         "register length must be an integer"),
        (lambda: scaling_scan(ArchKind.BUS, NoiseKind.CENTRAL, [2.5]),
         "register length must be an integer"),
        # integer lengths whose relative rate would be beyond the float range
        # lie past the register's length bound
        (lambda: scaling_scan(ArchKind.FSA_UNIFORM, NoiseKind.CENTRAL, [10**100]),
         "register length must be <="),
        (lambda: scaling_scan(ArchKind.HYPERCUBE, NoiseKind.INDEPENDENT, [2**1023]),
         "register length must be <="),
        # a model's length is a whole number of qubits: NaN and 2.5 gave gate counts
        (lambda: ArchitectureModel(ArchKind.FSA_UNIFORM, math.nan),
         "register length must be an integer"),
        (lambda: ArchitectureModel(ArchKind.FSA_UNIFORM, 2.5),
         "register length must be an integer"),
        (lambda: ArchitectureModel(ArchKind.BUS, True, GateDrive.idle(1)),
         "register length must be an integer"),
        (lambda: worst_case_pair(ArchKind.FSA_INDEPENDENT, 4.0),
         "register length must be an integer"),
        (lambda: ArchitectureModel(ArchKind.HYPERCUBE, 4.0), "register length must be an integer"),
        # an int pointer beyond the float range
        (lambda: dephasing_rate(1.0, 10**400, 0), "dephasing rate overflows the float range"),
    ],
    ids=["bus_pointer_separation", "bruteforce_noise_power", "uniform_numpy_bath",
         "independent_numpy_bath", "bus_numpy_bath", "table_numpy_bath", "scan_inf_length",
         "scan_huge_length", "scan_fractional_length", "scan_rate_overflows_int",
         "scan_rate_overflows_float", "model_nan_length", "model_fractional_length",
         "model_bool_length", "worst_case_float_length", "hypercube_float_length",
         "pointer_beyond_float_range"],
)
def test_rate_refusals(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize(
    "kind, noise", [(k, n) for k in ArchKind for n in ARCHITECTURES[k].laws],
    ids=lambda v: v.value,
)
def test_every_law_is_finite_at_the_longest_register(kind, noise):
    # the length bound 2^63 - 1 (2^62 where L = 2^d) keeps every law a finite
    # float, so the scan needs no overflow path; the largest is (L^2 - 1)^2 ~ 7e75
    n = 2**62 if ARCHITECTURES[kind].power_of_two else 2**63 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (point,) = scaling_scan(kind, noise, [n])
    assert point.n_qubits == n
    assert math.isfinite(point.relative_rate)
    assert point.relative_rate == ARCHITECTURES[kind].laws[noise](n)


@pytest.mark.parametrize("kind", list(ArchKind), ids=lambda k: k.value)
def test_lengths_take_numpy_integers(kind):
    drive = GateDrive.two_qubit_gate(np.int64(4), np.int64(0), np.int64(1))
    arch = ArchitectureModel(kind, np.int64(4), drive if kind is ArchKind.BUS else None)
    assert gate_count(arch) == gate_count(ArchitectureModel(kind, 4, arch.drive))
    assert worst_case_pair(kind, np.int64(4), arch.drive) == worst_case_pair(kind, 4, arch.drive)
    for noise in ARCHITECTURES[kind].laws:
        assert scaling_scan(kind, noise, [np.int64(4)]) == scaling_scan(kind, noise, [4])


@given(label_pairs(max_qubits=5), st.floats(0.1, 4.0), st.floats(0.1, 4.0))
def test_rates_scale_linearly_in_temperature_and_coupling(pair, t_scale, c_scale):
    bath = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0)
    scaled = OhmicBath(coupling=c_scale, cutoff=1.0, temperature=t_scale)
    for fn in (rate_fsa_uniform, rate_fsa_independent):
        base = fn(bath, pair).gamma
        assert fn(scaled, pair).gamma == pytest.approx(
            base * t_scale * c_scale, rel=1e-12, abs=1e-15
        )


@given(label_pairs(max_qubits=6))
def test_zero_rate_iff_zero_pointer_gap(pair):
    for fn in (rate_fsa_uniform, rate_fsa_independent, rate_fsa_independent_bruteforce):
        result = fn(BATH, pair)
        assert (result.gamma == 0.0) == (result.pointer_delta_sq == 0.0)
        assert result.gamma >= 0.0


def test_gate_count_examples():
    assert gate_count(ArchitectureModel(ArchKind.FSA_UNIFORM, 4)) == 10
    assert gate_count(ArchitectureModel(ArchKind.FSA_INDEPENDENT, 4)) == 10
    assert gate_count(ArchitectureModel(ArchKind.HYPERCUBE, 8)) == 12
    assert gate_count(ArchitectureModel(ArchKind.PROCESSOR_CORE, 16)) == 16
    drive = GateDrive.idle(5)
    assert gate_count(ArchitectureModel(ArchKind.BUS, 5, drive)) == 5
    with pytest.raises(ValueError):
        ArchitectureModel(ArchKind.HYPERCUBE, 6)


def test_scaling_scan_values():
    fsa_u = scaling_scan(ArchKind.FSA_UNIFORM, NoiseKind.CENTRAL, [2, 4, 8])
    assert [p.relative_rate for p in fsa_u] == [16.0, 256.0, 4096.0]
    fsa_i = scaling_scan(ArchKind.FSA_INDEPENDENT, NoiseKind.INDEPENDENT, [4])
    assert fsa_i[0].relative_rate == 4.0
    cube = scaling_scan(ArchKind.HYPERCUBE, NoiseKind.INDEPENDENT, [2, 4, 8])
    assert [p.relative_rate for p in cube] == [1.0, 4.0, 12.0]
    bus = scaling_scan(ArchKind.BUS, NoiseKind.CENTRAL, [2, 4, 8])
    assert [p.relative_rate for p in bus] == [4.0, 16.0, 64.0]
    core_c = scaling_scan(ArchKind.PROCESSOR_CORE, NoiseKind.CENTRAL, [4, 8])
    assert core_c[1].relative_rate == 4.0 * core_c[0].relative_rate
    core_i = scaling_scan(ArchKind.PROCESSOR_CORE, NoiseKind.INDEPENDENT, [4, 8])
    assert core_i[1].relative_rate == 2.0 * core_i[0].relative_rate
    with pytest.raises(ValueError):
        scaling_scan(ArchKind.FSA_UNIFORM, NoiseKind.INDEPENDENT, [2])


def enumerate_max_rate(kind, bath, n_qubits):
    """Exhaustive-search maximum rate over label classes.

    The switched-array rates depend on the labels only through (M, M') or
    N_d, so one representative pair per class covers every pair.
    """
    if kind is ArchKind.FSA_UNIFORM:
        spins = range(-n_qubits, n_qubits + 1, 2)
        pairs = [
            CoherencePair(label_with_total_spin(n_qubits, m), label_with_total_spin(n_qubits, mp))
            for m in spins
            for mp in spins
        ]
        rate = rate_fsa_uniform
    else:
        all_up = label_with_total_spin(n_qubits, n_qubits)
        pairs = [
            CoherencePair(all_up, RegisterLabel(tuple(-1 if j < nd else 1 for j in range(n_qubits))))
            for nd in range(n_qubits + 1)
        ]
        rate = rate_fsa_independent
    return max(rate(bath, pair).gamma for pair in pairs)


def test_scaling_scan_maximum_verified_by_enumeration():
    # the scan's closed-form maxima coincide with exhaustive search over
    # label-class representatives
    for n in range(2, 9):
        scan = scaling_scan(ArchKind.FSA_UNIFORM, NoiseKind.CENTRAL, [n])[0]
        best = enumerate_max_rate(ArchKind.FSA_UNIFORM, BATH, n)
        assert best == pytest.approx(scan.relative_rate / 4.0, rel=1e-12)
        scan_i = scaling_scan(ArchKind.FSA_INDEPENDENT, NoiseKind.INDEPENDENT, [n])[0]
        best_i = enumerate_max_rate(ArchKind.FSA_INDEPENDENT, BATH, n)
        assert best_i == pytest.approx(scan_i.relative_rate / 16.0, rel=1e-12)


def test_fsa_uniform_worst_case_by_full_pair_enumeration():
    # brute enumeration over every label pair for small registers
    for n in (2, 3, 4):
        best = max(
            rate_fsa_uniform(BATH, pair).gamma for pair in iter_coherence_pairs(n)
        )
        wc = worst_case_pair(ArchKind.FSA_UNIFORM, n)
        assert rate_fsa_uniform(BATH, wc).gamma == best


def test_fsa_independent_worst_case_by_full_pair_enumeration():
    for n in (2, 3, 4, 5):
        best = max(
            rate_fsa_independent(BATH, pair).gamma for pair in iter_coherence_pairs(n)
        )
        wc = worst_case_pair(ArchKind.FSA_INDEPENDENT, n)
        assert rate_fsa_independent(BATH, wc).gamma == best


def test_worst_case_pair_structure():
    wc = worst_case_pair(ArchKind.FSA_UNIFORM, 2)
    assert total_spin(wc.left) == 2 and total_spin(wc.right) == 0
    wc4 = worst_case_pair(ArchKind.FSA_INDEPENDENT, 4)
    assert hamming_distance(wc4) == 2
    wc2 = worst_case_pair(ArchKind.FSA_INDEPENDENT, 2)
    assert hamming_distance(wc2) == 1


def test_hypercube_worst_case_activates_every_edge():
    for n in (4, 8):
        d = int(math.log2(n))
        pair = worst_case_pair(ArchKind.HYPERCUBE, n)
        flipped = [a != b for a, b in zip(pair.left.bits, pair.right.bits)]
        edges = [
            (j, k)
            for j in range(n)
            for k in range(j + 1, n)
            if bin(j ^ k).count("1") == 1
        ]
        assert len(edges) == (n // 2) * d
        assert all(flipped[j] != flipped[k] for j, k in edges)


def test_independent_scaling_exponent_over_wide_range():
    scan = scaling_scan(
        ArchKind.FSA_INDEPENDENT, NoiseKind.INDEPENDENT, [4, 8, 16, 32, 64]
    )
    log_l = np.log([p.n_qubits for p in scan])
    log_r = np.log([p.relative_rate for p in scan])
    exponent = np.polyfit(log_l, log_r, 1)[0]
    assert exponent == pytest.approx(2.0, abs=0.05)


def test_bus_worst_case_rate_grows_quadratically():
    rates = []
    for n in (2, 4, 8):
        drive = GateDrive.two_qubit_gate(n, 0, 1)
        pair = worst_case_pair(ArchKind.BUS, n, drive)
        rates.append(rate_bus(BATH, pair, drive).gamma)
    # pointer difference is 2L for this family: gamma = T tau (2L)^2
    assert rates == [16.0, 64.0, 256.0]
