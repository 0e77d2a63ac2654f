import hashlib
import importlib.util
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from gatenoise import mcsim, noise
from gatenoise.couplings import transient_coupling
from gatenoise.mcsim import (
    CoherenceTrace,
    FitWindowError,
    McConfig,
    ValidationScenario,
    WhiteNoiseLimitError,
    default_validation_suite,
    fit_rate,
    make_validation_scenario,
    mc_bus_scaling,
    simulate_bus_full,
    simulate_dephasing,
    validate_against_analytic,
)
from gatenoise.noise import (
    Geometry,
    NoiseTopology,
    OhmicBath,
    functional_factor,
    synthesize_trajectories,
    trajectory_seed_sequence,
    trapezoid_phase_factor,
)
from gatenoise.rates import (
    ArchKind,
    ArchitectureModel,
    rate_bus,
    rate_fsa_uniform,
    worst_case_pair,
)
from gatenoise.register import (
    CoherencePair,
    GateDrive,
    label_with_total_spin,
    pointer_fsa_uniform,
)


def synthetic_trace(times, abs_c, stderr=None):
    times = np.asarray(times, float)
    abs_c = np.asarray(abs_c, float)
    stderr = np.zeros_like(abs_c) if stderr is None else np.asarray(stderr, float)
    counts = np.full(50, 20)  # 50 equal blocks of the 1000 samples
    return CoherenceTrace(
        times=times,
        abs_coherence=abs_c,
        arg_coherence=np.zeros_like(abs_c),
        stderr=stderr,
        n_samples=1000,
        block_sums=counts[:, None] * abs_c,
        block_counts=counts,
    )


def small_uniform_scenario(n_trajectories=4000, seed=3, **kwargs):
    pair = CoherencePair(label_with_total_spin(3, 3), label_with_total_spin(3, 1))
    return make_validation_scenario(
        ArchKind.FSA_UNIFORM, pair, n_trajectories=n_trajectories,
        master_seed=seed, **kwargs,
    )


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(dt=0.0, n_steps=256)
    with pytest.raises(ValueError):
        McConfig(dt=0.01, n_steps=300)
    with pytest.raises(ValueError):
        McConfig(dt=0.01, n_steps=256, n_trajectories=10)
    with pytest.raises(ValueError):
        McConfig(dt=0.01, n_steps=256, fit_window=(2.0, 1.0))
    # a window has two edges; one or three failed with Python's unpacking message
    for window in [(0.5,), (0.5, 1.0, 2.0)]:
        with pytest.raises(ValueError, match="invalid fit window"):
            McConfig(dt=0.01, n_steps=256, fit_window=window)
    # a list window is held as a tuple of floats, so the config and its
    # scenario hash (a kept list raised "unhashable type: 'list'")
    cfg = McConfig(dt=0.01, n_steps=256, fit_window=[1, 2.0])
    assert cfg.fit_window == (1.0, 2.0) and type(cfg.fit_window[0]) is float
    assert hash(cfg) == hash(McConfig(dt=0.01, n_steps=256, fit_window=(1.0, 2.0)))
    listed = small_uniform_scenario(n_trajectories=200, fit_window=[0.5, 2.0])
    assert hash(listed) == hash(small_uniform_scenario(n_trajectories=200))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_steps", 1024.0),
        ("n_steps", True),
        ("n_trajectories", 1000.5),
        ("n_trajectories", np.float64(1000.0)),
        ("n_trajectories", True),
        ("master_seed", 1.5),
        ("master_seed", True),
        ("master_seed", "7"),
    ],
)
def test_mcconfig_rejects_non_integer_counts(field, value):
    kwargs = {"dt": 0.01, "n_steps": 256, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        McConfig(**kwargs)


def test_mcconfig_accepts_numpy_integers():
    cfg = McConfig(dt=0.01, n_steps=np.int64(256), n_trajectories=np.int32(200),
                   master_seed=np.uint64(2**63))
    assert cfg.duration == 255 * 0.01


def test_mcconfig_holds_only_scenario_settings():
    # the estimator's layout (chunks, blocks, report points) is not a setting
    names = [field.name for field in fields(McConfig)]
    assert names == ["dt", "n_steps", "n_trajectories", "master_seed", "fit_window"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("dt", float("nan")),
        ("dt", float("inf")),
        ("dt", float("-inf")),
        ("fit_window", (0.5, float("inf"))),
        ("fit_window", (float("nan"), 2.0)),
        ("fit_window", (0.5, float("nan"))),
    ],
)
def test_mcconfig_rejects_non_finite(field, value):
    kwargs = {"dt": 0.01, "n_steps": 256, field: value}
    with pytest.raises(ValueError):
        McConfig(**kwargs)


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 3.0, 200)
    est = fit_rate(synthetic_trace(t, np.exp(-2.0 * t)), (0.1, 2.5))
    assert est.gamma_hat == pytest.approx(2.0, abs=1e-6)
    assert est.stderr_gamma == pytest.approx(0.0, abs=1e-9)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_constant_trace():
    t = np.linspace(0.0, 3.0, 100)
    est = fit_rate(synthetic_trace(t, np.ones_like(t)), (0.0, 3.0))
    assert abs(est.gamma_hat) <= 3.0 * est.stderr_gamma + 1e-12


def test_fit_rate_window_errors():
    t = np.linspace(0.0, 3.0, 100)
    trace = synthetic_trace(t, np.exp(-t))
    with pytest.raises(FitWindowError):
        fit_rate(trace, (10.0, 20.0))  # empty window
    drowned = synthetic_trace(t, np.exp(-t), stderr=np.ones_like(t))
    with pytest.raises(FitWindowError):
        fit_rate(drowned, (0.0, 3.0))  # everything below the noise floor
    with pytest.raises(ValueError):
        fit_rate(trace, (2.0, 1.0))


def test_window_edges_within_round_off_of_a_report_time_select_the_same_points():
    # the default window edges 0.5/gamma and 2/gamma are whole numbers of steps
    # (dt = 0.5/(ratio gamma)), so report times lie on them: an edge a few ulp
    # above or below such a time keeps it in, and the fit does not move
    gamma = 0.37
    t = np.arange(257) * (0.5 / (20.0 * gamma))
    trace = synthetic_trace(t, np.exp(-gamma * t))
    exact = fit_rate(trace, (t[20], t[80]))
    assert exact.n_points == 61
    for ulps in (-3, -1, 1, 3):
        lo = t[20] + ulps * np.spacing(t[20])
        hi = t[80] + ulps * np.spacing(t[80])
        for window in ((lo, t[80]), (t[20], hi), (lo, hi)):
            estimate = fit_rate(trace, window)
            assert estimate.n_points == exact.n_points, (ulps, window)
            assert estimate.gamma_hat == exact.gamma_hat


def test_trace_starts_at_unit_coherence():
    scn = small_uniform_scenario(n_trajectories=500)
    trace = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg)
    assert trace.abs_coherence[0] == 1.0
    assert trace.stderr[0] == 0.0
    assert np.all(trace.abs_coherence <= 1.0 + 3.0 * trace.stderr)


def test_negligible_coupling_keeps_coherence():
    pair = CoherencePair(label_with_total_spin(2, 2), label_with_total_spin(2, 0))
    bath = OhmicBath(coupling=1e-12, cutoff=100.0, temperature=1.0)
    cfg = McConfig(dt=0.005, n_steps=256, n_trajectories=300, master_seed=8)
    arch = ArchitectureModel(ArchKind.FSA_UNIFORM, 2)
    trace = simulate_dephasing(arch, pair, bath, NoiseTopology.uniform(), cfg)
    assert np.all(trace.abs_coherence > 1.0 - 1e-3)


def test_decoherence_free_pair_shows_no_decay(monkeypatch):
    # no noise reaches the pair: exact ones, and no random stream is opened
    calls = []
    monkeypatch.setattr(
        mcsim, "trajectory_seed_sequence",
        lambda *args: calls.append(args) or trajectory_seed_sequence(*args),
    )
    bath = OhmicBath(coupling=1.0, cutoff=100.0, temperature=1.0)
    cfg = McConfig(dt=0.005, n_steps=256, n_trajectories=600, master_seed=8)
    for kind, left, right, topology in [
        (ArchKind.FSA_UNIFORM, "++", "--", NoiseTopology.uniform()),
        (ArchKind.FSA_INDEPENDENT, "+-++", "-+--", NoiseTopology.independent()),
    ]:
        pair = CoherencePair.from_strings(left, right)
        arch = ArchitectureModel(kind, pair.n_qubits)
        trace = simulate_dephasing(arch, pair, bath, topology, cfg, jobs=2)
        assert np.all(trace.abs_coherence == 1.0)
        assert np.all(trace.stderr == 0.0)
    assert calls == []


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n", [200, 600, 1025, 1234])
def test_noise_free_trace_is_the_bytes_of_a_zero_phase_run(n, jobs):
    # the trace built without a chunk equals the general path on a phase that
    # stays zero, for one chunk, several, and blocks of unequal size
    cfg = McConfig(dt=0.01, n_steps=512, n_trajectories=n, master_seed=8)
    exact = mcsim._run_engine(None, cfg, jobs)
    general = mcsim._run_engine(lambda rng, phase, scratch: None, cfg, jobs)
    for field in fields(CoherenceTrace):
        a, b = np.asarray(getattr(exact, field.name)), np.asarray(getattr(general, field.name))
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


def test_non_finite_bath_raises_instead_of_a_trace():
    # NaN noise must not pass for a noise-free pair with exact unit coherence
    pair = CoherencePair(label_with_total_spin(2, 2), label_with_total_spin(2, 0))
    cfg = McConfig(dt=0.005, n_steps=256, n_trajectories=300, master_seed=8)
    arch = ArchitectureModel(ArchKind.FSA_UNIFORM, 2)
    with pytest.raises(ValueError, match="non-finite"):
        bath = OhmicBath(coupling=float("nan"), cutoff=100.0, temperature=1.0)
        simulate_dephasing(arch, pair, bath, NoiseTopology.uniform(), cfg)


def test_topology_consistency_enforced():
    scn = small_uniform_scenario(n_trajectories=200)
    with pytest.raises(ValueError):
        simulate_dephasing(
            scn.arch, scn.pair, scn.bath, NoiseTopology.independent(), scn.cfg
        )
    arch_i = ArchitectureModel(ArchKind.FSA_INDEPENDENT, 3)
    with pytest.raises(ValueError):
        simulate_dephasing(arch_i, scn.pair, scn.bath, NoiseTopology.uniform(), scn.cfg)
    # independent site noises give the linear engine (S(0) / 2) sum_j w_j^2, not
    # the bus law's (S(0) / 2) (sum_j w_j)^2 of a shared line
    bus = make_validation_scenario(ArchKind.BUS, worst_case_pair(ArchKind.BUS, 4))
    with pytest.raises(ValueError, match="uniform or spatial topology"):
        simulate_dephasing(bus.arch, bus.pair, bus.bath, NoiseTopology.independent(), bus.cfg)
    # and so is the quadratic coupler's verdict: the bus scan's L = 4 scenario on
    # independent site noises fitted 0.164 against the coupler's 0.640 (FAIL)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=8192, n_trajectories=2000)
    with pytest.raises(ValueError, match="uniform or spatial topology"):
        replace(quadratic_scan_scenario(4, cfg), topology=NoiseTopology.independent())


def test_white_noise_guard_rejects_low_cutoff(monkeypatch):
    # the flat-spectrum limit is the verdict's: the engine simulates any
    # cutoff, and the verdict refuses this one before either engine runs
    pair = CoherencePair(label_with_total_spin(3, 3), label_with_total_spin(3, 1))
    bath = OhmicBath(coupling=1.0, cutoff=16.0, temperature=1.0)  # cutoff == rate
    cfg = McConfig(dt=0.03, n_steps=512, n_trajectories=200, master_seed=1)
    arch = ArchitectureModel(ArchKind.FSA_UNIFORM, 3)
    trace = simulate_dephasing(arch, pair, bath, NoiseTopology.uniform(), cfg)
    assert np.all(np.isfinite(trace.abs_coherence)) and np.all(np.isfinite(trace.stderr))
    linear = ValidationScenario("low_cutoff", arch, pair, bath, NoiseTopology.uniform(), cfg)
    # the bus scan's L = 2 coupler rate is 0.16: a cutoff of 3 is under 20 x it
    quadratic = quadratic_scan_scenario(2, McConfig(dt=0.5 / 3.0, n_steps=512, n_trajectories=100))
    quadratic = replace(quadratic, bath=replace(SCAN_BATH, cutoff=3.0))
    monkeypatch.setattr(mcsim, "simulate_dephasing", None)
    monkeypatch.setattr(mcsim, "simulate_bus_full", None)
    for scenario in (linear, quadratic):
        with pytest.raises(WhiteNoiseLimitError, match="flat-spectrum"):
            validate_against_analytic(scenario)


def test_validation_duration_guard():
    # validation refuses grids that cover fewer than 3 decay times
    scn = small_uniform_scenario(n_trajectories=200)
    short = replace(scn, cfg=replace(scn.cfg, n_steps=128))
    with pytest.raises(ValueError, match="too short"):
        validate_against_analytic(short)


# seeds that once ran as another seed's stream (1.5, True, 2.7 as 1, 1, 2) or
# that McConfig refuses (2^64, -1)
BAD_SEEDS = [1.5, True, 2.7, np.float64(3.0), "7", -1, 2**64]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=map(repr, BAD_SEEDS))
def test_synthesized_trajectories_refuse_a_bad_seed(seed):
    # the stream key checks its seed: 1.5 and True once gave seed 1's bundle
    bath = OhmicBath(coupling=1.0, cutoff=8.0, temperature=1.0)
    with pytest.raises(ValueError, match="master_seed"):
        synthesize_trajectories(bath, NoiseTopology.uniform(), 2, 0.05, 256, seed)
    with pytest.raises(ValueError, match="master_seed"):
        trajectory_seed_sequence(seed, 0)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=map(repr, BAD_SEEDS))
def test_scenarios_refuse_a_bad_master_seed(seed):
    with pytest.raises(ValueError, match="master_seed"):
        small_uniform_scenario(n_trajectories=200, seed=seed)
    with pytest.raises(ValueError, match="master_seed"):
        default_validation_suite(master_seed=seed, n_trajectories=200)


def test_scenario_seeds_keep_their_streams():
    # recorded before seeds were checked: a valid seed's stream does not move,
    # and a numpy integer is the same seed
    recorded = {0: 3008787044697342761, 3: 16673632798222659692,
                2**64 - 1: 1951501827223708997}
    for seed, scenario_seed in recorded.items():
        for value in (seed, np.uint64(seed)):
            assert small_uniform_scenario(200, seed=value).cfg.master_seed == scenario_seed
    assert default_validation_suite(np.int64(3), 200) == default_validation_suite(3, 200)


BAD_JOBS = [2.5, True, 0, -1, np.float64(2.0), "2"]


@pytest.mark.parametrize("jobs", BAD_JOBS, ids=map(repr, BAD_JOBS))
def test_engines_refuse_a_bad_jobs_count(jobs):
    with pytest.raises(ValueError, match="jobs"):
        validate_against_analytic(small_uniform_scenario(n_trajectories=200), jobs=jobs)
    drive, pair = scan_family(2)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=256, n_trajectories=100)
    with pytest.raises(ValueError, match="jobs"):
        simulate_bus_full(drive, pair, SCAN_BATH, NoiseTopology.uniform(), cfg, jobs)


def test_engines_take_a_numpy_integer_jobs_count():
    scn = small_uniform_scenario(n_trajectories=1500)
    assert (validate_against_analytic(scn, jobs=np.int64(2)).to_dict()
            == validate_against_analytic(scn, jobs=1).to_dict())


def test_unsupported_architecture():
    pair = CoherencePair(label_with_total_spin(4, 4), label_with_total_spin(4, 0))
    bath = OhmicBath(coupling=1.0, cutoff=1000.0, temperature=1.0)
    cfg = McConfig(dt=4e-4, n_steps=256, n_trajectories=200)
    arch = ArchitectureModel(ArchKind.HYPERCUBE, 4)
    with pytest.raises(ValueError, match="supports"):
        simulate_dephasing(arch, pair, bath, NoiseTopology.independent(), cfg)


_PAIR_2 = CoherencePair.from_strings("++", "+-")
_BATH = OhmicBath(coupling=1.0, cutoff=100.0, temperature=1.0)
_CFG = McConfig(dt=0.005, n_steps=256, n_trajectories=300)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: simulate_dephasing(ArchitectureModel(ArchKind.FSA_UNIFORM, 3), _PAIR_2, _BATH,
                                    NoiseTopology.uniform(), _CFG),
         "does not match architecture L = 3"),
        (lambda: simulate_bus_full(GateDrive((1.0, 1.0, 0.0)), _PAIR_2, _BATH,
                                   NoiseTopology.uniform(), _CFG),
         "does not match drive length 3"),
        (lambda: make_validation_scenario(ArchKind.HYPERCUBE, _PAIR_2),
         "no analytic Monte-Carlo scenario for hypercube"),
        # an infinite window edge sized an infinite grid before the window was checked
        (lambda: make_validation_scenario(ArchKind.FSA_UNIFORM, _PAIR_2,
                                          fit_window=(0.5, np.inf)),
         "invalid fit window"),
        # grids of 2^49 and 2^1000 steps were built and failed only when run;
        # these are only constructed, never run
        (lambda: make_validation_scenario(ArchKind.FSA_UNIFORM, _PAIR_2,
                                          fit_window=(0.5, 1e12)),
         "n_steps must be <= 1048576"),
        (lambda: make_validation_scenario(ArchKind.FSA_UNIFORM, _PAIR_2, cutoff_ratio=1e300),
         "n_steps must be <= 1048576"),
        # a finite window whose grid point count is infinite raised OverflowError
        (lambda: make_validation_scenario(ArchKind.FSA_UNIFORM, _PAIR_2,
                                          fit_window=(0.5, 1e308)),
         "n_steps must be <= 1048576"),
        (lambda: McConfig(dt=0.005, n_steps=2**21, n_trajectories=300),
         "n_steps must be <= 1048576"),
        # 10^19 failed in np.linspace; past 2^53 the block bounds are inexact
        (lambda: McConfig(dt=0.005, n_steps=256, n_trajectories=10**19),
         "n_trajectories must be <= 9007199254740992"),
        (lambda: McConfig(dt=0.005, n_steps=256, n_trajectories=2**53 + 1),
         "n_trajectories must be <= 9007199254740992"),
        # a bus scan length needs a two-qubit gate, checked before any run
        (lambda: mc_bus_scaling((1, 2), n_trajectories=100), "register length must be >= 2"),
        # a scenario's reference rate needs a pair of its register's length
        (lambda: replace(small_uniform_scenario(n_trajectories=200), pair=_PAIR_2),
         "does not match architecture L = 3"),
        # a scenario exists only with its reference rate: a bath at zero
        # temperature has none, and is refused when the scenario is built
        (lambda: replace(small_uniform_scenario(n_trajectories=200),
                         bath=replace(_BATH, temperature=0.0)),
         "thermal dephasing rates require temperature > 0"),
    ],
    ids=["dephasing_pair_length", "bus_pair_length", "scenario_hypercube",
         "scenario_infinite_fit_window", "scenario_fit_window_past_grid_bound",
         "scenario_cutoff_ratio_past_grid_bound", "scenario_fit_window_overflows_grid",
         "config_grid_past_bound", "config_trajectories_past_int64",
         "config_trajectories_past_2_53", "scaling_single_qubit", "scenario_pair_length",
         "scenario_zero_temperature"],
)
def test_monte_carlo_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_mcconfig_bounds_are_inclusive():
    cfg = McConfig(dt=0.005, n_steps=2**20, n_trajectories=2**53, master_seed=np.uint64(2**64 - 1))
    assert (cfg.n_steps, cfg.n_trajectories) == (2**20, 2**53)


def test_small_validation_run_hits_analytic_rate():
    # n = 4000 leaves ~4% statistical scatter: check the physics to 12% here
    # and leave the 5% PASS band to the full-size acceptance runs
    rep = validate_against_analytic(small_uniform_scenario())
    assert rep.gamma_analytic == 16.0
    assert rep.rel_err == pytest.approx(0.0, abs=0.12)
    assert abs(rep.z_score) < 4.0


def test_full_size_validation_passes():
    rep = validate_against_analytic(small_uniform_scenario(n_trajectories=20_000, seed=0))
    assert rep.passed


def test_deterministic_across_jobs_and_reruns():
    scn = small_uniform_scenario(n_trajectories=600)
    t1 = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, jobs=1)
    t2 = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, jobs=3)
    t3 = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, jobs=1)
    for a, b in [(t1, t2), (t1, t3)]:
        assert np.array_equal(a.abs_coherence, b.abs_coherence)
        assert np.array_equal(a.arg_coherence, b.arg_coherence)
        assert np.array_equal(a.stderr, b.stderr)


def phase_factor(scn, weights=None):
    """Report indices and phase factor B of a linear scenario; the weights of
    its sources default to a central-noise scenario's pointer difference."""
    cfg = scn.cfg
    if weights is None:
        weights = [[pointer_fsa_uniform(scn.pair.left) - pointer_fsa_uniform(scn.pair.right)]]
    amplitude, mix = functional_factor(scn.bath, scn.topology, weights, cfg.dt, cfg.n_steps)
    power = amplitude**2 * (mix[..., 0, :] ** 2).sum(axis=-1)
    idx = np.unique(np.round(np.linspace(0, cfg.n_steps - 1, 257)).astype(int))
    return idx, trapezoid_phase_factor(power, cfg.dt, idx)


def exp_i(phase, dtype=np.float32):
    """exp(i phase) as the engine forms it: cos and sin of the phase cast to
    float32, written into complex128 (``dtype=np.float64`` keeps the phase)."""
    block = phase.astype(dtype)
    z = np.empty(phase.shape, dtype=complex)
    np.cos(block, out=z.real)
    np.sin(block, out=z.imag)
    return z


def chunk_phase_rows(master_seed, chunk, nt, idx, factor):
    """The phase of one chunk in the documented layout: xi = standard_normal((nt, k))
    from the stream keyed by (master_seed, chunk), phase = [0, xi @ B]."""
    rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(master_seed, chunk)))
    phase = np.zeros((nt, idx.size))
    phase[:, 1:] = rng.standard_normal((nt, factor.shape[0])) @ factor
    return phase


def test_chunk_stream_is_pinned():
    # chunks 0 and 1 of 600 trajectories (rows 0..511, 512..599) draw from the
    # streams keyed by (master_seed, 0) and (master_seed, 1) in the documented
    # layout; the 50 blocks have 12 rows, so block 42 (rows 504..515) straddles
    # the chunk edge and blocks 43..49 start at chunk 1's rows 4, 16, ..., 76
    scn = small_uniform_scenario(n_trajectories=600)
    trace = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg)
    idx, factor = phase_factor(scn)
    z0 = exp_i(chunk_phase_rows(scn.cfg.master_seed, 0, 512, idx, factor))
    z1 = exp_i(chunk_phase_rows(scn.cfg.master_seed, 1, 88, idx, factor))
    assert np.array_equal(trace.block_sums[43:], np.add.reduceat(z1, np.arange(4, 88, 12), axis=0))
    straddling = np.add.reduceat(z0, [504], axis=0)[0] + np.add.reduceat(z1, [0, 4], axis=0)[0]
    assert np.array_equal(trace.block_sums[42], straddling)


LINEAR_PINS = {
    "fsa_uniform_L3_M3_Mp1": (
        "16.4637626318071", "0.9052505970468275",
        "de03165e49bec210639902cae0e6ceb5e18b91f24bda91bac4b21d52cab8e35d",
    ),
    "fsa_independent_L6_Nd3": (
        "0.5992733087481529", "0.029067099769554045",
        "6a985ffb723e547e9baacedbcb22c59604c9cb36aee11216e535fe6f446df430",
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(LINEAR_PINS))
def test_linear_stream_is_pinned(name, jobs):
    # recorded with the phase factor's columns signed by noise._psd_factor and
    # exp(i phase) formed in float32: any change to the linear engine's draw
    # layout or arithmetic moves them
    scenario = {s.name: s for s in default_validation_suite(n_trajectories=2000)}[name]
    report = validate_against_analytic(scenario, jobs)
    trace = report.trace
    digest = hashlib.sha256(b"".join(
        getattr(trace, field).tobytes()
        for field in ("abs_coherence", "arg_coherence", "stderr", "block_sums")
    )).hexdigest()
    assert (repr(report.gamma_hat), repr(report.stderr_gamma), digest) == LINEAR_PINS[name]


def complex_centred_moments(z, start, bounds):
    """The chunk statistics from a centred complex copy of z, which is left as it is."""
    nt = z.shape[0]
    total = z.sum(axis=0)
    centred = z - total / nt
    re, im = centred.real, centred.imag
    moments = np.stack([(re * re).sum(axis=0), (im * im).sum(axis=0), (re * im).sum(axis=0)])
    first = int(np.searchsorted(bounds, start, side="right")) - 1
    last = int(np.searchsorted(bounds, start + nt, side="left"))
    cuts = np.maximum(bounds[first:last], start) - start
    return nt, total, moments, first, np.add.reduceat(z, cuts, axis=0)


def engine_z(nt, seed):
    """exp(i phase) in the engine's layout, for a random walk phase over 257 points."""
    phase = np.zeros((nt, 257))
    phase[:, 1:] = np.cumsum(np.random.default_rng(seed).normal(0.0, 0.1, (nt, 256)), axis=1)
    return exp_i(phase)


@pytest.mark.parametrize(
    "n, start, z",
    [
        (25_600, 1536, engine_z(512, 1)),  # 512-row blocks on the chunk's edges
        (600, 0, engine_z(512, 2)),  # block 42 (rows 504..515) straddles the edge
        (600, 512, engine_z(88, 3)),  # short last chunk
        (1025, 1024, engine_z(1, 4)),  # one-row last chunk
        (600, 0, np.ones((512, 257), dtype=complex)),  # no noise reaches the phase
    ],
    ids=["full", "straddling", "last_88", "last_1", "noise_free"],
)
def test_chunk_moments_match_the_complex_centred_formula(n, start, z):
    bounds = np.linspace(0, n, 51).astype(int)
    got = mcsim._chunk_moments(z.copy(), start, bounds)
    expected = complex_centred_moments(z.copy(), start, bounds)
    assert (got[0], got[3]) == (expected[0], expected[3])  # row count, first block
    for name, i in [("total", 1), ("moments", 2), ("block_sums", 4)]:
        assert got[i].dtype == expected[i].dtype and np.array_equal(got[i], expected[i]), name


def direct_phase_rows(scn, weights=None):
    """The phase at the report points of every trajectory of a linear scenario
    (see ``phase_factor``), drawn chunk by chunk in the documented layout."""
    cfg = scn.cfg
    idx, factor = phase_factor(scn, weights)
    rows = []
    for chunk, start in enumerate(range(0, cfg.n_trajectories, 512)):
        nt = min(512, cfg.n_trajectories - start)
        rows.append(chunk_phase_rows(cfg.master_seed, chunk, nt, idx, factor))
    return np.concatenate(rows)


def record_cumsums(monkeypatch):
    """(rows, length) of every np.cumsum call, length the summed axis: a phase
    integrated over the grid is a cumsum of trajectory rows along n_steps."""
    calls = []
    cumsum = np.cumsum

    def recording_cumsum(a, axis=None, *args, **kwargs):
        size = np.size(a)
        length = size if axis is None else np.shape(a)[axis]
        calls.append((size // max(length, 1), length))
        return cumsum(a, axis, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", recording_cumsum)
    return calls


def test_linear_engine_runs_no_per_chunk_irfft_or_integration(monkeypatch):
    # the phase is sampled at the report points: one irfft per scenario builds
    # its covariance, and no chunk synthesizes or integrates a noise trace
    calls = {"irfft": 0}
    irfft = np.fft.irfft

    def counting_irfft(*args, **kwargs):
        calls["irfft"] += 1
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting_irfft)
    cumsums = record_cumsums(monkeypatch)
    scn = small_uniform_scenario(n_trajectories=1500)  # three chunks
    simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, jobs=2)
    assert calls == {"irfft": 1}
    # the covariance's two running sums over one autocorrelation row are the
    # only sums along the grid
    n_steps = scn.cfg.n_steps
    assert [c for c in cumsums if c[1] >= n_steps - 1] == [(1, n_steps)] * 2, cumsums


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # perfbench/tracing.py wraps these names by attribute, mcsim.cumulative_trapezoid
    # among them, and crashes if one is missing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, owner, attr, *_ in tracing.TARGETS if not hasattr(owner, attr)]
    assert missing == []


def test_import_does_not_load_scipy():
    import gatenoise

    src = Path(gatenoise.__file__).resolve().parents[1]
    code = (
        "import sys, gatenoise\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"


def test_report_indices_are_strictly_increasing_on_every_grid():
    # the rounded points need no dedup: exact integers up to 257 steps and
    # about two steps apart above, on every power-of-two grid
    for n_steps in (2**p for p in range(1, 21)):
        idx = mcsim._report_indices(n_steps)
        assert idx.size == min(257, n_steps), n_steps
        assert idx[0] == 0 and idx[-1] == n_steps - 1, n_steps
        assert np.all(np.diff(idx) > 0), n_steps


def test_linear_run_does_not_import_numpy_ma():
    # np.unique's first call in a process imports numpy.ma
    import gatenoise

    src = Path(gatenoise.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from gatenoise.mcsim import default_validation_suite, simulate_dephasing\n"
        "s = default_validation_suite(n_trajectories=200)[0]\n"
        "simulate_dephasing(s.arch, s.pair, s.bath, s.topology, s.cfg)\n"
        "print('numpy.ma' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "False"


def test_delta_method_stderr_matches_leave_one_out_jackknife():
    scn = small_uniform_scenario(n_trajectories=2000, seed=5)
    trace = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg)
    z = exp_i(direct_phase_rows(scn))
    n = z.shape[0]
    total = z.sum(axis=0)
    mean = trace.abs_coherence * np.exp(1j * trace.arg_coherence)
    np.testing.assert_allclose(mean, total / n, rtol=0, atol=1e-12)
    # leave-one-out jackknife of |mean| over trajectories
    loo = np.abs(total - z) / (n - 1)
    jackknife = np.sqrt((n - 1) / n * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    usable = trace.abs_coherence > 5.0 * trace.stderr
    assert usable.sum() >= 100
    np.testing.assert_allclose(trace.stderr[usable], jackknife[usable], rtol=1e-2)


def test_float32_exp_stays_inside_its_error_bound():
    # the default suite's largest phases; the reference forms exp(i phase)
    # from the same draws with float64 cos/sin
    scn = {s.name: s for s in default_validation_suite(n_trajectories=2000)}[
        "fsa_independent_L6_Nd5"]
    report = validate_against_analytic(scn)
    trace = report.trace
    phase = direct_phase_rows(scn, scn.arch.record.sources(scn.pair, scn.arch.drive))
    z = exp_i(phase, np.float64)
    bound = 6e-8 * np.abs(phase).max() + 3e-7  # as stated at mcsim._EXP_ROWS
    mean = z.mean(axis=0)
    got = trace.abs_coherence * np.exp(1j * trace.arg_coherence)
    assert np.abs(got - mean).max() <= bound
    sums = np.add.reduceat(z, np.linspace(0, len(z), 51).astype(int)[:-1], axis=0)
    assert np.abs((trace.block_sums - sums) / trace.block_counts[:, None]).max() <= bound
    # the fit on the float64 reference, with its delta-method standard errors
    u = mean / np.abs(mean)
    stderr = (z * u.conj()).real.std(axis=0, ddof=1) / np.sqrt(len(z))
    reference = replace(trace, abs_coherence=np.abs(mean), arg_coherence=np.angle(mean),
                        stderr=stderr, block_sums=sums)
    est = fit_rate(reference, scn.cfg.absolute_fit_window(scn.gamma_analytic))
    assert report.gamma_hat == pytest.approx(est.gamma_hat, rel=1e-6)


def test_rate_stderr_is_the_block_jackknife_of_the_weighted_slope():
    # recomputed from the block sums: the weighted least-squares slope of
    # ln |C| on each leave-one-block-out trace, weights (|C| / stderr)^2
    scn = small_uniform_scenario(n_trajectories=1500)
    trace = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg)
    window = scn.cfg.absolute_fit_window(scn.gamma_analytic)
    est = fit_rate(trace, window)
    use = (trace.times >= window[0]) & (trace.times <= window[1])
    use &= trace.abs_coherence > 5.0 * trace.stderr
    assert use.sum() == est.n_points and np.all(trace.stderr[use] > 0)
    root_w = trace.abs_coherence[use] / trace.stderr[use]
    design = np.column_stack([np.ones(use.sum()), trace.times[use]]) * root_w[:, None]

    def slope(abs_c):
        return np.linalg.lstsq(design, np.log(abs_c) * root_w, rcond=None)[0][1]

    total = trace.block_sums.sum(axis=0)
    slopes = np.array([
        slope(np.abs(total - sums)[use] / (trace.n_samples - count))
        for sums, count in zip(trace.block_sums, trace.block_counts)
    ])
    n_blocks = slopes.size
    jackknife = np.sqrt((n_blocks - 1) / n_blocks * ((slopes - slopes.mean()) ** 2).sum())
    assert n_blocks == 50
    assert est.gamma_hat == pytest.approx(-slope(trace.abs_coherence[use]), rel=1e-12)
    assert est.stderr_gamma == pytest.approx(jackknife, rel=1e-12)


def assert_byte_identical_across_jobs(run):
    """run(jobs) at jobs 1/2/3 gives the same bytes; its 50 blocks sum to the mean."""
    traces = [run(jobs) for jobs in (1, 2, 3)]
    for other in traces[1:]:
        for field in ("abs_coherence", "arg_coherence", "stderr", "block_sums"):
            assert getattr(other, field).tobytes() == getattr(traces[0], field).tobytes()
    trace = traces[0]
    assert trace.block_sums.shape[0] == 50
    mean = trace.abs_coherence * np.exp(1j * trace.arg_coherence)
    np.testing.assert_allclose(
        trace.block_sums.sum(axis=0) / trace.n_samples, mean, rtol=0, atol=1e-12
    )


def test_blocks_straddling_chunks_are_byte_identical_across_jobs():
    # 50 blocks over 1500 trajectories: bounds 510/540 and 1020/1050 cross the
    # 512-row chunk edges, so those blocks collect partial sums from two chunks
    scn = small_uniform_scenario(n_trajectories=1500)
    assert_byte_identical_across_jobs(
        lambda jobs: simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, jobs)
    )


@pytest.mark.parametrize(
    "topology", [NoiseTopology.uniform(), NoiseTopology.spatial([0.0, 0.3, 0.6, 0.9])],
    ids=["time_mixing", "per_bin"],
)
def test_bus_blocks_straddling_chunks_are_byte_identical_across_jobs(topology):
    drive = GateDrive.two_qubit_gate(4, 0, 1, 20.0)
    pair = worst_case_pair(ArchKind.BUS, 4, drive)
    bath = OhmicBath(coupling=4e-4, cutoff=128.0, temperature=1.0)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=512, n_trajectories=1500, master_seed=9)
    assert_byte_identical_across_jobs(
        lambda jobs: simulate_bus_full(drive, pair, bath, topology, cfg, jobs)
    )


def test_engine_memory_does_not_grow_with_trajectories():
    peaks = []
    for n in (2000, 20_000):
        scn = small_uniform_scenario(n_trajectories=n)
        tracemalloc.start()
        try:
            simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2 * 2**20


@pytest.mark.parametrize("jobs, bound_mib", [(1, 3.5), (2, 5.8), (4, 10.25)])
def test_linear_engine_holds_no_copy_of_a_chunk(jobs, bound_mib):
    # each engine thread holds one buffer per 512 x 257 chunk, its complex z,
    # whose halves hold the phase and the normals, plus one 128-row block of
    # phases; a separate phase, normals and z peaked at 3.8-3.9 MiB (jobs 1),
    # 6.0-6.8 MiB (jobs 2) and 10.8-12.8 MiB (jobs 4)
    scn = {s.name: s for s in default_validation_suite(n_trajectories=2048)}[
        "fsa_uniform_L3_M3_Mp1"
    ]
    tracemalloc.start()
    try:
        simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak / 2**20


def bus_gate_run(n_qubits, positions, engine="dephasing", n_steps=None):
    """The bus gate's worst-case pair on sites at ``positions``, 100 trajectories,
    on its default scenario's grid (at ``n_steps`` steps of that dt if given)."""
    drive = GateDrive.two_qubit_gate(n_qubits, 0, 1)
    pair = worst_case_pair(ArchKind.BUS, n_qubits, drive)
    scn = make_validation_scenario(
        ArchKind.BUS, pair, drive=drive, n_trajectories=100, master_seed=3
    )
    cfg = scn.cfg if n_steps is None else replace(scn.cfg, n_steps=n_steps)
    topology = NoiseTopology.spatial(positions(cfg) if callable(positions) else positions)
    if engine == "dephasing":
        return simulate_dephasing(scn.arch, pair, scn.bath, topology, cfg)
    return simulate_bus_full(drive, pair, scn.bath, topology, cfg)


@pytest.mark.parametrize(
    "n_qubits, positions, n_steps",
    [(16, np.arange(16) * 1.1e-3, 2**16)]
    + [(3, lambda cfg, m=m: np.arange(3) * cfg.n_steps * cfg.dt / m, None)
       for m in (3, 6, 12, 24)],
    ids=["L16_1.1e-3"] + [f"L3_T/{m}" for m in (3, 6, 12, 24)],
)
def test_evenly_spaced_sites_give_a_trace(n_qubits, positions, n_steps):
    # sites 1.1e-3 apart, or a fraction of the grid's period T apart: the
    # functional's power cancels in some bins, which then hold only round-off;
    # measured against their own largest eigenvalue (0) it read as a
    # covariance that is not positive semidefinite
    trace = bus_gate_run(n_qubits, positions, n_steps=n_steps)
    assert trace.abs_coherence[0] == 1.0
    assert np.all(np.isfinite(trace.abs_coherence)) and trace.abs_coherence.max() <= 1.0


@pytest.mark.parametrize("engine, bound_mib", [("dephasing", 32), ("bus_full", 16)])
def test_separated_sites_build_no_per_bin_site_kernel_stack(engine, bound_mib):
    # 16 random sites at 2^16 steps: the (bins, 16, 16) kernel stack and its
    # products peaked at 128.6 MiB in either engine; the bus engine then held
    # its chunk's real parts, (100, 2, bins) floats, 50 MiB (a 56.9 MiB peak)
    positions = np.random.default_rng(1).uniform(0.0, 0.05, 16)
    tracemalloc.start()
    try:
        bus_gate_run(16, positions, engine, n_steps=2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak / 2**20


@pytest.mark.parametrize("engine", ["dephasing", "bus_full"])
def test_colocated_spatial_bus_matches_uniform_bytes(engine):
    drive = GateDrive.two_qubit_gate(4, 0, 1)
    pair = worst_case_pair(ArchKind.BUS, 4, drive)
    scn = make_validation_scenario(
        ArchKind.BUS, pair, drive=drive, n_trajectories=600, master_seed=6
    )
    traces = []
    for topology in (NoiseTopology.uniform(), NoiseTopology.spatial([0.0] * 4)):
        if engine == "dephasing":
            traces.append(simulate_dephasing(scn.arch, pair, scn.bath, topology, scn.cfg))
        else:
            traces.append(simulate_bus_full(drive, pair, scn.bath, topology, scn.cfg))
    a, b = traces
    assert np.array_equal(a.abs_coherence, b.abs_coherence)
    assert np.array_equal(a.arg_coherence, b.arg_coherence)
    assert np.array_equal(a.stderr, b.stderr)
    assert np.array_equal(a.block_sums, b.block_sums)


def test_seed_changes_realization_not_physics():
    a = validate_against_analytic(small_uniform_scenario(seed=21))
    b = validate_against_analytic(small_uniform_scenario(seed=22))
    assert a.gamma_hat != b.gamma_hat
    combined = np.hypot(a.stderr_gamma, b.stderr_gamma)
    assert abs(a.gamma_hat - b.gamma_hat) < 4.0 * combined


def test_stderr_shrinks_with_sqrt_trajectories():
    scn_small = small_uniform_scenario(n_trajectories=2000, seed=5)
    scn_big = small_uniform_scenario(n_trajectories=4000, seed=5)
    t_small = simulate_dephasing(
        scn_small.arch, scn_small.pair, scn_small.bath, scn_small.topology, scn_small.cfg
    )
    t_big = simulate_dephasing(
        scn_big.arch, scn_big.pair, scn_big.bath, scn_big.topology, scn_big.cfg
    )
    mid = len(t_small.times) // 2
    ratio = t_big.stderr[mid] / t_small.stderr[mid]
    assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.15)


def test_global_flip_gives_identical_measurement():
    scn = small_uniform_scenario(n_trajectories=500)
    flipped = CoherencePair(scn.pair.left.flipped(), scn.pair.right.flipped())
    t1 = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg)
    t2 = simulate_dephasing(scn.arch, flipped, scn.bath, scn.topology, scn.cfg)
    assert np.array_equal(t1.abs_coherence, t2.abs_coherence)


def test_bus_full_idle_uniform_same_total_spin_is_silent():
    # with no drive and one shared noise source, the quadratic energy depends
    # on the label only through M, so M == M' gives exactly zero phase
    pair = CoherencePair.from_strings("+-+", "++-")
    bath = OhmicBath(coupling=0.05, cutoff=20.0, temperature=1.0)
    cfg = McConfig(dt=0.02, n_steps=256, n_trajectories=200, master_seed=2)
    trace = simulate_bus_full(GateDrive.idle(3), pair, bath, NoiseTopology.uniform(), cfg)
    assert np.all(trace.abs_coherence == 1.0)
    assert np.all(trace.arg_coherence == 0.0)


@pytest.mark.parametrize("r", [0.05, 0.2])
@pytest.mark.parametrize("geometry", [Geometry.ONE_D, Geometry.THREE_D], ids=["1d", "3d"])
def test_bus_full_drift_matches_classical_correlator(geometry, r):
    # idle drive, two spatially correlated sites: the noise-squared term
    # produces a linear mean phase drift at half the equal-time cross
    # correlator C(r) = (1/pi) int_0^inf S(w) f(w r / v) dw, and with the
    # classical S = 2 T J / w that integral is T mu_tr(r): the drift checks
    # the transient coupling's kernel h, 1 / (1 + x^2) in 1D and arctan(x) / x
    # in 3D
    bath = OhmicBath(coupling=0.02, cutoff=20.0, temperature=1.0, geometry=geometry)
    pair = CoherencePair.from_strings("++", "+-")
    expected_slope = -bath.temperature * transient_coupling(bath, r) / 2.0

    slopes = []
    errors = []
    for seed in (11, 12, 13):
        trace = simulate_bus_full(
            GateDrive.idle(2), pair, bath, NoiseTopology.spatial([0.0, r]),
            McConfig(dt=0.025, n_steps=1024, n_trajectories=3000, master_seed=seed),
        )
        mask = (trace.times > 2.0) & (trace.times < 20.0)
        design = np.vstack([np.ones(mask.sum()), trace.times[mask]]).T
        arg = np.unwrap(trace.arg_coherence)
        slope = np.linalg.lstsq(design, arg[mask], rcond=None)[0][1]
        total = trace.block_sums.sum(axis=0)
        loo_slopes = []
        for b in range(trace.block_sums.shape[0]):
            loo = (total - trace.block_sums[b]) / (trace.n_samples - trace.block_counts[b])
            loo_arg = np.unwrap(np.angle(loo))
            loo_slopes.append(np.linalg.lstsq(design, loo_arg[mask], rcond=None)[0][1])
        loo_slopes = np.asarray(loo_slopes)
        n_blocks = loo_slopes.size
        se = np.sqrt((n_blocks - 1) / n_blocks * ((loo_slopes - loo_slopes.mean()) ** 2).sum())
        slopes.append(slope)
        errors.append(se)
        assert abs(slope - expected_slope) <= 3.0 * se
    # reproducible across seeds within 3 sigma
    assert abs(slopes[0] - slopes[1]) <= 3.0 * np.hypot(errors[0], errors[1])
    assert abs(slopes[0] - slopes[2]) <= 3.0 * np.hypot(errors[0], errors[2])


SCAN_BATH = OhmicBath(coupling=4e-4, cutoff=128.0, temperature=1.0)


def scan_family(n_qubits):
    """Drive and worst-case pair of ``mc_bus_scaling``'s family at length n_qubits."""
    drive = GateDrive.two_qubit_gate(n_qubits, 0, 1, 20.0)
    return drive, worst_case_pair(ArchKind.BUS, n_qubits, drive)


def per_bin_factors(bath, topology, labels, cfg):
    """F_k (n_bins, P, R) of ``functional_factor`` in every bin, scaled by its amplitude."""
    amplitude, factor = functional_factor(bath, topology, labels, cfg.dt, cfg.n_steps)
    return factor if factor.ndim == 3 else amplitude[:, None, None] * factor


def reference_bus_trace(drive, pair, bath, topology, cfg):
    """simulate_bus_full through the pipeline it replaced, on the same draws:
    per-bin mixed spectra of (a, b), np.fft.irfft over the whole grid, the
    quadratic rate, cumulative_trapezoid and phase[:, report_idx]."""
    labels = np.array([pair.left.bits, pair.right.bits], dtype=float)
    factors = per_bin_factors(bath, topology, labels, cfg)
    n_bins, _, n_sources = factors.shape
    c_left, c_right = labels @ np.asarray(drive.phi, dtype=float)
    report_idx = np.unique(
        np.round(np.linspace(0, cfg.n_steps - 1, min(257, cfg.n_steps))).astype(int)
    )

    def sample_phase(rng, phase, scratch):
        nt = len(phase)
        # each row's real parts, then its imaginary parts
        re, im = np.moveaxis(rng.standard_normal((nt, 2, n_sources, n_bins)), 1, 0)
        white = (re + 1j * im) / np.sqrt(2.0)
        white[:, :, 0] = re[:, :, 0]
        white[:, :, -1] = re[:, :, -1]
        spec = np.einsum("kpr,nrk->npk", factors, white)
        a, b = np.moveaxis(np.fft.irfft(spec, n=cfg.n_steps), 1, 0)
        rate = (b * (b + 2.0 * c_right) - a * (a + 2.0 * c_left)) / 8.0
        phase[:] = cumulative_trapezoid(rate, dx=cfg.dt, initial=0.0, axis=1)[:, report_idx]

    return mcsim._run_engine(sample_phase, cfg, 1)


@pytest.mark.parametrize(
    "n_qubits, topology",
    [
        (2, NoiseTopology.uniform()),
        (4, NoiseTopology.uniform()),
        (8, NoiseTopology.uniform()),
        (4, NoiseTopology.independent()),
        (4, NoiseTopology.spatial([0.0] * 4)),
        (4, NoiseTopology.spatial([0.0, 0.3, 0.6, 0.9])),
    ],
    ids=["uniform_L2", "uniform_L4", "uniform_L8", "independent", "colocated", "separated"],
)
@pytest.mark.parametrize("n_steps", [512, 256], ids=["257", "256"])  # ids: report points
def test_bus_full_matches_reference_pipeline(n_qubits, topology, n_steps):
    # 256 steps are all reported, which puts a report point on the last grid
    # step, where a segment sum running to the end of the grid would be off by one
    drive, pair = scan_family(n_qubits)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=n_steps, n_trajectories=600, master_seed=7)
    trace = simulate_bus_full(drive, pair, SCAN_BATH, topology, cfg)
    reference = reference_bus_trace(drive, pair, SCAN_BATH, topology, cfg)
    np.testing.assert_array_equal(trace.times, reference.times)
    np.testing.assert_allclose(trace.abs_coherence, reference.abs_coherence, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.arg_coherence, reference.arg_coherence, rtol=0, atol=1e-12)


def test_uniform_bus_transforms_one_source_and_runs_no_integration(monkeypatch):
    # a uniform bus has one noise source: each chunk inverse-FFTs its rows'
    # (rows, 1, bins) series, a row block at a time, and sums the rate
    # between report points
    shapes = []
    irfft = np.fft.irfft

    def recording_irfft(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recording_irfft)
    cumsums = record_cumsums(monkeypatch)
    drive, pair = scan_family(4)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=512, n_trajectories=1500, master_seed=7)
    simulate_bus_full(drive, pair, SCAN_BATH, NoiseTopology.uniform(), cfg, jobs=2)
    assert all(len(s) == 3 and s[1:] == (1, 257) for s in shapes), shapes
    assert sum(s[0] for s in shapes) == 1500
    # every row block sums its 256 segments between report points, and no
    # sum runs along the 512-step grid
    assert cumsums and all(length == 256 for _, length in cumsums), cumsums
    assert sum(rows for rows, _ in cumsums) == 1500


@pytest.mark.parametrize(
    "topology, series",
    [(NoiseTopology.uniform(), 1), (NoiseTopology.spatial([0.0, 0.3, 0.6, 0.9]), 2)],
    ids=["uniform", "separated"],
)
def test_bus_row_blocks_change_no_byte(monkeypatch, topology, series):
    # each row draws its real parts, then its imaginary parts, and every later
    # step is row-local: 1-row, 7-row and whole-chunk blocks give the bytes of
    # the default block height
    drive, pair = scan_family(4)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=512, n_trajectories=600, master_seed=7)
    default = simulate_bus_full(drive, pair, SCAN_BATH, topology, cfg)
    heights, irfft = [], np.fft.irfft

    def recording_irfft(a, *args, **kwargs):
        heights.append(np.shape(a)[0])
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recording_irfft)
    for rows in (1, 7, 512):
        # the budget counts samples of x, which has `series` series per row
        monkeypatch.setattr(mcsim, "_BLOCK_SAMPLES", rows * series * cfg.n_steps)
        heights.clear()
        trace = simulate_bus_full(drive, pair, SCAN_BATH, topology, cfg)
        assert max(heights) == rows and sum(heights) == cfg.n_trajectories
        for name in ("abs_coherence", "arg_coherence", "stderr", "block_sums"):
            assert getattr(trace, name).tobytes() == getattr(default, name).tobytes(), name


# The pinned bus scan's L = 2 rate (600 trajectories, master seed 5), shared by
# the scan pin and the quadratic scenario that runs the same L = 2 point.
BUS_SCAN_L2_RATE = "0.15979586511298136"


def test_bus_scan_stream_is_pinned():
    # rates recorded with row-local draws (each row's real parts, then its
    # imaginary parts), factor columns of a fixed sign and exp(i phase) formed
    # in float32: any change to the bus engine's draw layout or arithmetic
    # moves them
    exponent, fitted = mc_bus_scaling((2, 4), n_trajectories=600, master_seed=5)
    assert [repr(gamma) for _, gamma in fitted] == [BUS_SCAN_L2_RATE, "0.5837221173264626"]
    assert repr(exponent) == "1.8690516557179484"


def test_bus_engine_memory_is_bounded_per_row_block():
    # the scan's L = 2 point: one 512-row chunk of 8192 steps held its white
    # amplitudes, series and rate whole (~70 MB), then its real parts (17 MB,
    # a 21.9 MiB peak); with row-local draws nothing is held for the whole chunk
    # but its phase array
    drive, pair = scan_family(2)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=8192, n_trajectories=512, master_seed=7)
    tracemalloc.start()
    try:
        simulate_bus_full(drive, pair, SCAN_BATH, NoiseTopology.uniform(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak / 2**20


@pytest.mark.parametrize("jobs, bound_mib", [(1, 4.5), (2, 8.0)])
def test_bus_engine_row_blocks_fit_under_the_chunk(jobs, bound_mib):
    # the scan's L = 2 grid, two chunks: each thread holds its chunk's complex
    # z and one row block of 2^15 samples; a separate phase array and blocks
    # of 2^17 samples peaked at 5.4 MiB (jobs 1) and 10.3 MiB (jobs 2)
    drive, pair = scan_family(2)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=8192, n_trajectories=1024, master_seed=7)
    tracemalloc.start()
    try:
        simulate_bus_full(drive, pair, SCAN_BATH, NoiseTopology.uniform(), cfg, jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak / 2**20


@pytest.mark.parametrize("lengths", [(), (4,), (4, 4), (2, 2, 4, 8), (2, 4.0), (2, True)])
def test_bus_scaling_needs_two_distinct_lengths(lengths):
    # one point has no log-log slope, a repeated one counts twice in it, and a
    # length is a whole number of qubits
    integral = all(type(n) is int for n in lengths)
    message = "two distinct" if integral else "register length must be an integer"
    with pytest.raises(ValueError, match=message):
        mc_bus_scaling(lengths, n_trajectories=100)


def quadratic_scan_scenario(n_qubits, cfg):
    """``mc_bus_scaling``'s quadratic scenario at length n_qubits, on grid ``cfg``."""
    drive, pair = scan_family(n_qubits)
    return ValidationScenario(
        f"bus_scan_L{n_qubits}", ArchitectureModel(ArchKind.BUS, n_qubits, drive), pair,
        SCAN_BATH, NoiseTopology.uniform(), cfg, quadratic=True,
    )


def test_quadratic_scenario_runs_the_bus_engine_and_carries_its_trace():
    cfg = McConfig(dt=0.5 / 128.0, n_steps=8192, n_trajectories=600, master_seed=5)
    scenario = quadratic_scan_scenario(2, cfg)
    report = validate_against_analytic(scenario)
    drive, pair = scan_family(2)
    trace = simulate_bus_full(drive, pair, SCAN_BATH, NoiseTopology.uniform(), cfg)
    for name in ("abs_coherence", "arg_coherence", "stderr", "block_sums"):
        assert getattr(report.trace, name).tobytes() == getattr(trace, name).tobytes(), name
    estimate = fit_rate(trace, cfg.absolute_fit_window(scenario.gamma_analytic))
    assert report.gamma_hat == estimate.gamma_hat
    assert repr(report.gamma_hat) == BUS_SCAN_L2_RATE
    # the trace is not one of the verdict's columns
    assert "trace" not in report.to_dict() and "trace" not in repr(report)


def test_quadratic_scenario_needs_a_bus():
    linear = small_uniform_scenario(n_trajectories=200)
    with pytest.raises(ValueError, match="quadratic coupler is a bus engine, not fsa_uniform"):
        replace(linear, quadratic=True)


def test_reference_rate_is_derived_from_the_scenario():
    # gamma_analytic is no field: a replaced bath, pair or engine moves it, and
    # a rate passed where it once stood is refused
    assert [f.name for f in fields(ValidationScenario)] == [
        "name", "arch", "pair", "bath", "topology", "cfg", "quadratic"]
    assert fields(ValidationScenario)[-1].kw_only
    suite = {s.name: s for s in default_validation_suite()}
    scn = suite["fsa_uniform_L3_M3_Mp1"]
    with pytest.raises(TypeError):
        ValidationScenario(scn.name, scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, 16.0)
    # the temperature doubled: a stored 16.0 failed a correct MC at rel +93%
    hot = replace(scn, bath=replace(scn.bath, temperature=2.0))
    assert hot.gamma_analytic == rate_fsa_uniform(hot.bath, hot.pair).gamma == 32.0
    report = validate_against_analytic(hot)
    assert report.gamma_analytic == 32.0
    assert report.rel_err == (report.gamma_hat - 32.0) / 32.0 and report.passed
    bus = suite["bus_L4_active_gate"]
    coupler = replace(bus, quadratic=True)
    assert coupler.gamma_analytic == rate_bus(bus.bath, bus.pair, bus.arch.drive).gamma / 16
    quartic = suite["fsa_uniform_L4_M4_Mp2"]
    moved = replace(quartic, pair=CoherencePair(label_with_total_spin(4, 4),
                                                label_with_total_spin(4, 0)))
    assert (quartic.gamma_analytic, moved.gamma_analytic) == (36.0, 64.0)
    assert moved.gamma_analytic == rate_fsa_uniform(moved.bath, moved.pair).gamma


def test_quadratic_scenario_refuses_a_grid_shorter_than_three_decay_times(monkeypatch):
    # the duration guard covers both engines, before either runs
    monkeypatch.setattr(mcsim, "simulate_bus_full", None)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=512, n_trajectories=100)
    with pytest.raises(ValueError, match="too short"):
        validate_against_analytic(quadratic_scan_scenario(2, cfg))


def exact_bus_coherence(drive, pair, bath, topology, cfg, steps):
    """Exact E[exp(i phase)] of the trapezoid bus phase at grid indices ``steps``.

    The phase at step n is the Gaussian quadratic form x^T A x + l^T x in
    x = (a_0..a_n, b_0..b_n), with A and l the trapezoid weights of the rate
    (b^2 + 2 c' b - a^2 - 2 c a) / 8.  With G G^T the joint grid covariance
    of x (from irfft(F F^T) / n_steps) and G^T A G = U diag(mu) U^T,
    beta = U^T G^T l:  E = prod_k (1 - 2i mu_k)^(-1/2) exp(-beta_k^2 / (2 (1 - 2i mu_k)))
    (Imhof 1961).
    """
    labels = np.array([pair.left.bits, pair.right.bits], dtype=float)
    factors = per_bin_factors(bath, topology, labels, cfg)
    c_left, c_right = labels @ np.asarray(drive.phi, dtype=float)
    cov = np.fft.irfft(np.einsum("kpr,kqr->pqk", factors, factors), n=cfg.n_steps) / cfg.n_steps
    out = []
    for n in steps:
        lag = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
        sigma = np.block([[cov[0, 0][lag], cov[0, 1][lag]], [cov[1, 0][lag], cov[1, 1][lag]]])
        w = np.full(n + 1, cfg.dt)
        w[[0, -1]] /= 2.0
        quad = np.concatenate([-w, w]) / 8.0
        lin = np.concatenate([-c_left * w, c_right * w]) / 4.0
        lam, vec = np.linalg.eigh(sigma)
        keep = lam > 1e-12 * lam[-1]
        g = vec[:, keep] * np.sqrt(lam[keep])
        mu, u = np.linalg.eigh(g.T @ (quad[:, None] * g))
        beta = u.T @ (g.T @ lin)
        d = 1.0 - 2j * mu
        out.append(np.exp(np.sum(-0.5 * np.log(d) - 0.5 * beta**2 / d)))
    return np.array(out)


@pytest.mark.parametrize("case", ["uniform_L8_gate", "separated_idle"])
def test_bus_full_matches_exact_quadratic_form(case):
    # the oracle is exact on the engine's own grid, so only sampling noise
    # separates the two; compared where fit_rate would use the trace
    if case == "uniform_L8_gate":
        drive, pair = scan_family(8)
        bath, topology = SCAN_BATH, NoiseTopology.uniform()
        cfg = McConfig(dt=0.5 / 128.0, n_steps=512, n_trajectories=4000, master_seed=3)
        window = cfg.absolute_fit_window(rate_bus(bath, pair, drive).gamma / 16.0)
        max_step = cfg.n_steps
    else:  # the drift test's idle, spatially correlated pair (per-bin branch)
        drive, pair = GateDrive.idle(2), CoherencePair.from_strings("++", "+-")
        bath = OhmicBath(coupling=0.02, cutoff=20.0, temperature=1.0)
        topology = NoiseTopology.spatial([0.0, 0.05])
        cfg = McConfig(dt=0.025, n_steps=1024, n_trajectories=3000, master_seed=11)
        window = (2.0, 20.0)
        max_step = 300  # the oracle's matrices grow with the step
    trace = simulate_bus_full(drive, pair, bath, topology, cfg)
    steps = np.round(trace.times / cfg.dt).astype(int)
    usable = (trace.times >= window[0]) & (trace.times <= window[1])
    usable &= (trace.abs_coherence > 5.0 * trace.stderr) & (steps <= max_step)
    points = np.flatnonzero(usable)
    points = points[np.linspace(0, points.size - 1, 6).round().astype(int)]
    exact = exact_bus_coherence(drive, pair, bath, topology, cfg, steps[points])
    # delete-one-block jackknife for arg: its spread is not the radial stderr
    total = trace.block_sums.sum(axis=0)
    loo = np.angle((total - trace.block_sums) / total)
    n_blocks = loo.shape[0]
    arg_se = np.sqrt((n_blocks - 1) / n_blocks * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    z_abs = (trace.abs_coherence[points] - np.abs(exact)) / trace.stderr[points]
    z_arg = np.angle(np.exp(1j * trace.arg_coherence[points]) / exact) / arg_se[points]
    assert np.all(np.abs(z_abs) <= 4.0), z_abs
    assert np.all(np.abs(z_arg) <= 4.0), z_arg


def test_bus_full_scaling_is_quadratic():
    exponent, fitted = mc_bus_scaling(n_trajectories=1500, master_seed=4)
    assert exponent == pytest.approx(2.0, abs=0.2)
    assert fitted[0][1] > 0


def test_default_suite_structure():
    suite = default_validation_suite(n_trajectories=500)
    names = [s.name for s in suite]
    assert len(suite) == 14
    assert sum("fsa_uniform" in n for n in names) == 6
    assert sum("fsa_independent" in n for n in names) == 7
    assert sum("bus" in n for n in names) == 1
    # the Hamming sweep includes both decoherence-free endpoints
    zero_rate = [s for s in suite if s.gamma_analytic == 0.0]
    assert len(zero_rate) == 2
    # a moved or dropped row fails here by name, not only through the
    # default suite's output hash
    assert names == [
        "fsa_uniform_L2_M2_Mp0", "fsa_uniform_L3_M3_Mp1", "fsa_uniform_L3_M3_Mp-1",
        "fsa_uniform_L4_M4_Mp2", "fsa_uniform_L4_M4_Mp0", "fsa_uniform_L4_M2_Mp0",
        *(f"fsa_independent_L6_Nd{nd}" for nd in range(7)),
        "bus_L4_active_gate",
    ]
    counts = [s.cfg.n_trajectories for s in default_validation_suite()]
    assert counts == [20_000] * 6 + [10_000] * 7 + [20_000]
    # the decoherence-free pairs take their grid from their reference_rate, the
    # sweep's peak rate: that of its Nd = 3 pair, the worst case
    sweep = suite[6:13]
    peak = sweep[3]
    assert peak.pair == worst_case_pair(ArchKind.FSA_INDEPENDENT, 6)
    assert peak.gamma_analytic == max(s.gamma_analytic for s in sweep)
    for s in zero_rate:
        assert s.bath == peak.bath and s.bath.cutoff == 128.0 * peak.gamma_analytic
        assert (s.cfg.dt, s.cfg.n_steps) == (peak.cfg.dt, peak.cfg.n_steps)


def test_scenario_requires_reference_for_zero_rate():
    pair = CoherencePair(label_with_total_spin(2, 2), label_with_total_spin(2, -2))
    with pytest.raises(ValueError, match="reference_rate"):
        make_validation_scenario(ArchKind.FSA_UNIFORM, pair, n_trajectories=200)



def test_bus_scenario_defaults_to_the_records_drive():
    pair = worst_case_pair(ArchKind.BUS, 4)
    default = make_validation_scenario(ArchKind.BUS, pair, n_trajectories=500)
    explicit = make_validation_scenario(
        ArchKind.BUS, pair, drive=GateDrive.two_qubit_gate(4, 0, 1), n_trajectories=500
    )
    assert default == explicit  # same pair, drive, gamma_analytic and cfg

def test_worst_case_bus_scenario_roundtrip():
    drive = GateDrive.two_qubit_gate(4, 0, 1)
    pair = worst_case_pair(ArchKind.BUS, 4, drive)
    scn = make_validation_scenario(
        ArchKind.BUS, pair, drive=drive, n_trajectories=2000, master_seed=6
    )
    assert scn.gamma_analytic == 64.0
    rep = validate_against_analytic(scn)
    assert rep.rel_err == pytest.approx(0.0, abs=0.12)


def test_default_suite_refuses_a_zero_count():
    # 0 is a count, not "use the default": it reaches McConfig's check
    with pytest.raises(ValueError, match="n_trajectories must be >= 100"):
        default_validation_suite(n_trajectories=0)


def openblas_controls():
    controls = noise._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    return controls[0]


def test_linear_engine_bytes_do_not_depend_on_the_blas_thread_count():
    openblas_controls()
    import gatenoise

    src = Path(gatenoise.__file__).resolve().parents[1]
    code = (
        "import hashlib\n"
        "from gatenoise.mcsim import default_validation_suite, simulate_dephasing\n"
        "s = default_validation_suite(n_trajectories=1000)[0]\n"
        "t = simulate_dephasing(s.arch, s.pair, s.bath, s.topology, s.cfg)\n"
        "print(hashlib.sha256(t.abs_coherence.tobytes() + t.stderr.tobytes()).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
        ).stdout.strip()
        for threads in ("1", "2")
    }
    assert len(digests) == 1


def test_one_blas_thread_restores_the_count_it_found():
    get, put = openblas_controls()
    original = get()
    try:
        put(2)
        found = get()
        with noise._one_blas_thread():
            assert get() == 1
            with noise._one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == found
        # overlapping (not nested) entries, as from two engine calls in two threads
        first, second = noise._one_blas_thread(), noise._one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert get() == 1
        second.__exit__(None, None, None)
        assert get() == found
        scn = small_uniform_scenario(n_trajectories=1500)
        simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, jobs=2)
        assert get() == found
    finally:
        put(original)


def test_one_blas_thread_under_contention():
    # eight threads enter and leave concurrently; a lost update of the entry
    # count would leave OpenBLAS pinned or unpin it under a thread still inside
    get, put = openblas_controls()
    original = get()
    inside_counts = set()

    def churn():
        for _ in range(300):
            with noise._one_blas_thread():
                inside_counts.add(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        put(2)
        found = get()
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert inside_counts == {1}
        assert get() == found and noise._blas_pins == 0
    finally:
        sys.setswitchinterval(interval)
        put(original)
