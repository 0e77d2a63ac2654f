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
from gatenoise.mcsim import (
    CoherenceTrace,
    FitWindowError,
    McConfig,
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
    NoiseTopology,
    OhmicBath,
    functional_spectral_factors,
    trajectory_seed_sequence,
    trapezoid_phase_factor,
)
from gatenoise.rates import ArchKind, ArchitectureModel, rate_bus, worst_case_pair
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


def test_white_noise_guard_rejects_low_cutoff():
    pair = CoherencePair(label_with_total_spin(3, 3), label_with_total_spin(3, 1))
    bath = OhmicBath(coupling=1.0, cutoff=16.0, temperature=1.0)  # cutoff == rate
    cfg = McConfig(dt=0.03, n_steps=512, n_trajectories=200, master_seed=1)
    arch = ArchitectureModel(ArchKind.FSA_UNIFORM, 3)
    with pytest.raises(WhiteNoiseLimitError):
        simulate_dephasing(arch, pair, bath, NoiseTopology.uniform(), cfg)


def test_validation_duration_guard():
    # validation refuses grids that cover fewer than 3 decay times
    scn = small_uniform_scenario(n_trajectories=200)
    short = replace(scn, cfg=replace(scn.cfg, n_steps=128))
    with pytest.raises(ValueError, match="too short"):
        validate_against_analytic(short)


def test_unsupported_architecture():
    pair = CoherencePair(label_with_total_spin(4, 4), label_with_total_spin(4, 0))
    bath = OhmicBath(coupling=1.0, cutoff=1000.0, temperature=1.0)
    cfg = McConfig(dt=4e-4, n_steps=256, n_trajectories=200)
    arch = ArchitectureModel(ArchKind.HYPERCUBE, 4)
    with pytest.raises(ValueError, match="supports"):
        simulate_dephasing(arch, pair, bath, NoiseTopology.independent(), cfg)


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


def phase_factor(scn):
    """Report indices and phase factor B of a central-noise scenario."""
    cfg = scn.cfg
    weights = [[pointer_fsa_uniform(scn.pair.left) - pointer_fsa_uniform(scn.pair.right)]]
    factors = functional_spectral_factors(scn.bath, scn.topology, weights, cfg.dt, cfg.n_steps)
    idx = np.unique(np.round(np.linspace(0, cfg.n_steps - 1, 257)).astype(int))
    return idx, trapezoid_phase_factor((factors[:, 0] ** 2).sum(axis=1), cfg.dt, idx)


def chunk_z_rows(master_seed, chunk, nt, idx, factor):
    """exp(i phase) of one chunk in the documented layout: xi = standard_normal((nt, k))
    from the stream keyed by (master_seed, chunk), phase = [0, xi @ B]."""
    rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(master_seed, chunk)))
    phase = np.zeros((nt, idx.size))
    phase[:, 1:] = rng.standard_normal((nt, factor.shape[0])) @ factor
    z = np.empty(phase.shape, dtype=complex)
    z.real = np.cos(phase)
    z.imag = np.sin(phase)
    return z


def test_chunk_stream_is_pinned():
    # chunks 0 and 1 of 600 trajectories (rows 0..511, 512..599) draw from the
    # streams keyed by (master_seed, 0) and (master_seed, 1) in the documented
    # layout; the 50 blocks have 12 rows, so block 42 (rows 504..515) straddles
    # the chunk edge and blocks 43..49 start at chunk 1's rows 4, 16, ..., 76
    scn = small_uniform_scenario(n_trajectories=600)
    trace = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg)
    idx, factor = phase_factor(scn)
    z0 = chunk_z_rows(scn.cfg.master_seed, 0, 512, idx, factor)
    z1 = chunk_z_rows(scn.cfg.master_seed, 1, 88, idx, factor)
    assert np.array_equal(trace.block_sums[43:], np.add.reduceat(z1, np.arange(4, 88, 12), axis=0))
    straddling = np.add.reduceat(z0, [504], axis=0)[0] + np.add.reduceat(z1, [0, 4], axis=0)[0]
    assert np.array_equal(trace.block_sums[42], straddling)


def direct_z_rows(scn):
    """exp(i phase) at the report points of every trajectory of a central-noise
    scenario, drawn chunk by chunk in the documented layout."""
    cfg = scn.cfg
    idx, factor = phase_factor(scn)
    rows = []
    for chunk, start in enumerate(range(0, cfg.n_trajectories, 512)):
        nt = min(512, cfg.n_trajectories - start)
        rows.append(chunk_z_rows(cfg.master_seed, chunk, nt, idx, factor))
    return np.concatenate(rows)


def test_linear_engine_runs_no_per_chunk_irfft_or_integration(monkeypatch):
    # the phase is sampled at the report points: one irfft per scenario builds
    # its covariance, and no chunk synthesizes or integrates a noise trace
    calls = {"irfft": 0, "trapezoid": 0}
    irfft = np.fft.irfft

    def counting_irfft(*args, **kwargs):
        calls["irfft"] += 1
        return irfft(*args, **kwargs)

    def counting_trapezoid(*args, **kwargs):
        calls["trapezoid"] += 1
        return cumulative_trapezoid(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting_irfft)
    monkeypatch.setattr(mcsim, "cumulative_trapezoid", counting_trapezoid)
    scn = small_uniform_scenario(n_trajectories=1500)  # three chunks
    simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg, jobs=2)
    assert calls == {"irfft": 1, "trapezoid": 0}


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


def test_delta_method_stderr_matches_leave_one_out_jackknife():
    scn = small_uniform_scenario(n_trajectories=2000, seed=5)
    trace = simulate_dephasing(scn.arch, scn.pair, scn.bath, scn.topology, scn.cfg)
    z = direct_z_rows(scn)
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


def test_bus_full_drift_matches_classical_correlator():
    # idle drive, two spatially correlated sites: the noise-squared term
    # produces a linear mean phase drift at half the equal-time cross
    # correlator (the classical counterpart of the permanent coupling)
    from scipy.integrate import quad

    from gatenoise.noise import classical_psd, propagation_kernel_f

    bath = OhmicBath(coupling=0.02, cutoff=20.0, temperature=1.0)
    r = 0.05
    pair = CoherencePair.from_strings("++", "+-")
    cfg = McConfig(dt=0.025, n_steps=1024, n_trajectories=3000, master_seed=11)
    correlator = (
        quad(
            lambda w: classical_psd(bath, w)
            * propagation_kernel_f(w * r / bath.velocity, bath.geometry),
            0.0,
            np.inf,
            limit=400,
        )[0]
        / np.pi
    )
    expected_slope = -correlator / 2.0

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


def reference_bus_trace(drive, pair, bath, topology, cfg):
    """simulate_bus_full through the pipeline it replaced, on the same draws:
    per-bin mixed spectra of (a, b), np.fft.irfft over the whole grid, the
    quadratic rate, cumulative_trapezoid and phase[:, report_idx]."""
    labels = np.array([pair.left.bits, pair.right.bits], dtype=float)
    factors = functional_spectral_factors(bath, topology, labels, cfg.dt, cfg.n_steps)
    n_bins, _, n_sources = factors.shape
    c_left, c_right = labels @ np.asarray(drive.phi, dtype=float)
    report_idx = np.unique(
        np.round(np.linspace(0, cfg.n_steps - 1, min(257, cfg.n_steps))).astype(int)
    )

    def sample_phase(rng, nt):
        re = rng.standard_normal((nt, n_sources, n_bins))
        im = rng.standard_normal((nt, n_sources, n_bins))
        white = (re + 1j * im) / np.sqrt(2.0)
        white[:, :, 0] = re[:, :, 0]
        white[:, :, -1] = re[:, :, -1]
        spec = np.einsum("kpr,nrk->npk", factors, white)
        a, b = np.moveaxis(np.fft.irfft(spec, n=cfg.n_steps), 1, 0)
        rate = (b * (b + 2.0 * c_right) - a * (a + 2.0 * c_left)) / 8.0
        phase = cumulative_trapezoid(rate, dx=cfg.dt, initial=0.0, axis=1)
        return phase[:, report_idx]

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
    # a uniform bus has one noise source: each chunk inverse-FFTs one
    # (nt, 1, bins) series and sums the rate between report points
    shapes, trapezoid_calls = [], []
    irfft = np.fft.irfft

    def recording_irfft(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recording_irfft)
    monkeypatch.setattr(
        mcsim, "cumulative_trapezoid",
        lambda *a, **k: trapezoid_calls.append(1) or cumulative_trapezoid(*a, **k),
    )
    drive, pair = scan_family(4)
    cfg = McConfig(dt=0.5 / 128.0, n_steps=512, n_trajectories=1500, master_seed=7)
    simulate_bus_full(drive, pair, SCAN_BATH, NoiseTopology.uniform(), cfg, jobs=2)
    assert sorted(shapes) == [(476, 1, 257), (512, 1, 257), (512, 1, 257)]
    assert trapezoid_calls == []


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
    factors = functional_spectral_factors(bath, topology, labels, cfg.dt, cfg.n_steps)
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
    with pytest.raises(ValueError, match="at least 100 trajectories"):
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
