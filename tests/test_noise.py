import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from gatenoise.noise import (
    Geometry,
    NoiseTopology,
    OhmicBath,
    SpectralSynthesizer,
    _site_kernels,
    TopologyKind,
    classical_psd,
    cross_spectral_density,
    estimate_psd,
    functional_spectral_factors,
    propagation_kernel_f,
    separable_functional_factor,
    spatial_correlation_matrix,
    spectral_density,
    synthesize_trajectories,
    trajectory_seed_sequence,
    trapezoid_phase_factor,
)


def bath_1d(coupling=1.0, cutoff=1.0, temperature=1.0):
    return OhmicBath(coupling=coupling, cutoff=cutoff, temperature=temperature)


def test_bath_validation():
    with pytest.raises(ValueError):
        OhmicBath(coupling=0.0, cutoff=1.0)
    with pytest.raises(ValueError):
        OhmicBath(coupling=1.0, cutoff=-1.0)
    with pytest.raises(ValueError):
        OhmicBath(coupling=1.0, cutoff=1.0, temperature=-0.1)
    with pytest.raises(ValueError):
        OhmicBath(coupling=1.0, cutoff=1.0, velocity=0.0)


@pytest.mark.parametrize("field", ["coupling", "cutoff", "temperature", "velocity"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bath_rejects_non_finite(field, value):
    kwargs = {"coupling": 1.0, "cutoff": 1.0, "temperature": 1.0, field: value}
    with pytest.raises(ValueError, match="non-finite"):
        OhmicBath(**kwargs)


def test_spectral_density_examples():
    bath = bath_1d()
    assert spectral_density(bath, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert spectral_density(bath, 0.0) == 0.0
    # monotone decay beyond the cutoff
    w = np.linspace(1.0, 30.0, 200)
    j = spectral_density(bath, w)
    assert np.all(np.diff(j) < 0)
    assert j[-1] < 1e-11
    with pytest.raises(ValueError):
        spectral_density(bath, -0.5)


def test_propagation_kernel_examples():
    assert propagation_kernel_f(np.pi, Geometry.ONE_D) == pytest.approx(-1.0)
    assert propagation_kernel_f(0.0, Geometry.THREE_D) == 1.0
    assert propagation_kernel_f(np.pi, Geometry.THREE_D) == pytest.approx(0.0, abs=1e-15)
    x = np.linspace(0, 50, 500)
    for geom in Geometry:
        f = propagation_kernel_f(x, geom)
        assert np.all(np.abs(f) <= 1.0 + 1e-15)
        assert f[0] == 1.0


def test_cross_spectral_density():
    bath = bath_1d(cutoff=2.0)
    w = np.linspace(0, 10, 101)
    assert np.array_equal(cross_spectral_density(bath, w, 0.0), spectral_density(bath, w))
    assert cross_spectral_density(bath, 0.0, 3.0) == 0.0
    # 1D kernel zero where w r / v = pi / 2
    assert cross_spectral_density(bath, np.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        cross_spectral_density(bath, 1.0, -1.0)


def test_classical_psd_zero_frequency_anchor():
    # S(0) = 2 T coupling: forced by matching the generic rate kernel to the
    # closed-form rates; spelled out in test_rates via the kernel route.
    assert classical_psd(bath_1d(), 0.0) == 2.0
    bath = bath_1d(coupling=0.7, temperature=1.3)
    assert classical_psd(bath, 0.0) == pytest.approx(2.0 * 0.7 * 1.3, rel=1e-15)
    assert classical_psd(bath, bath.cutoff) == pytest.approx(
        2.0 * 0.7 * 1.3 * np.exp(-1.0), rel=1e-14
    )
    with pytest.raises(ValueError):
        classical_psd(OhmicBath(coupling=1.0, cutoff=1.0, temperature=0.0), 1.0)


def test_classical_psd_low_frequency_limit_independent_of_distance():
    bath = bath_1d(cutoff=5.0)
    for r in (0.0, 0.3, 2.0):
        # cross spectrum / (J/w weighting) -> same S(0) for every separation
        w = 1e-9
        ratio = cross_spectral_density(bath, w, r) / spectral_density(bath, w)
        assert ratio == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("geometry", list(Geometry))
def test_spatial_correlation_matrix_is_psd(geometry):
    rng = np.random.default_rng(3)
    positions = np.sort(rng.uniform(0, 5, size=6))
    bath = OhmicBath(coupling=1.0, cutoff=4.0, temperature=1.0, geometry=geometry)
    for omega in np.linspace(0.0, 8.0, 40):
        corr = spatial_correlation_matrix(bath, positions, omega)
        assert np.allclose(corr, corr.T)
        eigvals = np.linalg.eigvalsh(corr)
        assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1.0)


def test_synthesize_grid_guards():
    bath = bath_1d(cutoff=10.0)
    topo = NoiseTopology.independent()
    with pytest.raises(ValueError):
        synthesize_trajectories(bath, topo, 1, dt=0.2, n_steps=256, seed=1)  # dt*wc > 0.5
    with pytest.raises(ValueError):
        synthesize_trajectories(bath, topo, 1, dt=0.01, n_steps=300, seed=1)  # not 2^k
    for dt in (-0.01, np.nan, np.inf):
        with pytest.raises(ValueError):
            synthesize_trajectories(bath, topo, 1, dt=dt, n_steps=256, seed=1)
    cold = OhmicBath(coupling=1.0, cutoff=10.0, temperature=0.0)
    with pytest.raises(ValueError):
        synthesize_trajectories(cold, topo, 1, dt=0.05, n_steps=256, seed=1)


def test_uniform_topology_shares_one_trajectory():
    bundle = synthesize_trajectories(
        bath_1d(cutoff=8.0), NoiseTopology.uniform(), 3, dt=0.05, n_steps=256, seed=9
    )
    assert bundle.samples.shape == (3, 256)
    assert np.array_equal(bundle.samples[0], bundle.samples[1])
    assert np.array_equal(bundle.samples[0], bundle.samples[2])


def test_synthesis_deterministic_and_seed_sensitive():
    bath = bath_1d(cutoff=8.0)
    topo = NoiseTopology.independent()
    a = synthesize_trajectories(bath, topo, 2, dt=0.05, n_steps=512, seed=123)
    b = synthesize_trajectories(bath, topo, 2, dt=0.05, n_steps=512, seed=123)
    c = synthesize_trajectories(bath, topo, 2, dt=0.05, n_steps=512, seed=124)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_independent_trajectories_uncorrelated():
    bath = bath_1d(cutoff=8.0)
    synth = SpectralSynthesizer(bath, NoiseTopology.independent(), n_sites=2, dt=0.05, n_steps=512)
    corr = []
    for i in range(400):
        rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(77, i)))
        s = synth.draw(rng)
        corr.append(np.mean(s[0] * s[1]))
    corr = np.asarray(corr)
    z = corr.mean() / (corr.std(ddof=1) / np.sqrt(corr.size))
    assert abs(z) < 5.0


def test_bundle_means_are_unbiased():
    bath = bath_1d(cutoff=8.0)
    synth = SpectralSynthesizer(bath, NoiseTopology.independent(), n_sites=1, dt=0.05, n_steps=256)
    means = []
    for i in range(500):
        rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(5, i)))
        means.append(synth.draw(rng)[0].mean())
    means = np.asarray(means)
    z = means.mean() / (means.std(ddof=1) / np.sqrt(means.size))
    assert abs(z) < 5.0


def test_estimate_psd_zero_and_guards():
    est = estimate_psd(np.zeros(512), dt=0.1)
    assert np.all(est.psd == 0.0)
    with pytest.raises(ValueError):
        estimate_psd(np.zeros(100), dt=0.1)


def test_estimate_psd_white_level():
    # iid samples of variance v have flat symmetric spectrum v * dt
    rng = np.random.default_rng(11)
    v, dt = 2.25, 0.05
    x = rng.normal(scale=np.sqrt(v), size=(600, 512))
    est = estimate_psd(x, dt)
    level = v * dt
    # periodogram bins are ~chi^2_2 distributed: sd/bin ~= level / sqrt(n)
    assert np.all(np.abs(est.psd[1:-1] - level) < 6.0 * level / np.sqrt(600))
    assert est.psd.mean() == pytest.approx(level, rel=0.02)


def test_synthesized_auto_psd_matches_target():
    bath = bath_1d(cutoff=8.0)
    dt, n = 0.5 / 8.0, 512
    synth = SpectralSynthesizer(bath, NoiseTopology.independent(), n_sites=1, dt=dt, n_steps=n)
    rows = []
    for i in range(400):
        rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(42, i)))
        rows.append(synth.draw(rng)[0])
    est = estimate_psd(np.asarray(rows), dt)
    target = classical_psd(bath, est.omega)
    band = (est.omega >= bath.cutoff / 10) & (est.omega <= bath.cutoff)
    ratio = est.psd[band] / target[band]
    # per-bin fluctuations are 1/sqrt(400) = 5%; the band mean must be unbiased
    assert ratio.mean() == pytest.approx(1.0, abs=0.02)
    assert np.max(np.abs(ratio - 1.0)) < 0.25


def test_spatial_zero_distance_cross_psd_equals_auto():
    bath = bath_1d(cutoff=8.0)
    topo = NoiseTopology.spatial([0.0, 0.0])
    bundle = synthesize_trajectories(bath, topo, 2, dt=0.05, n_steps=512, seed=21)
    # coincident sites are perfectly correlated: the rows coincide, so the
    # cross-periodogram equals the auto-periodogram identically
    assert np.allclose(bundle.samples[0], bundle.samples[1], rtol=0, atol=1e-12)


def test_spatial_cross_psd_matches_kernel():
    bath = bath_1d(cutoff=8.0)
    dt, n, r = 0.5 / 8.0, 512, 0.35
    synth = SpectralSynthesizer(bath, NoiseTopology.spatial([0.0, r]), n_sites=2, dt=dt, n_steps=n)
    cross = np.zeros(n // 2 + 1)
    for i in range(800):
        rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(99, i)))
        spectrum = np.fft.rfft(synth.draw(rng), axis=-1)
        cross += (dt / n) * np.real(spectrum[0] * np.conj(spectrum[1]))
    cross /= 800
    omega = 2 * np.pi * np.fft.rfftfreq(n, dt)
    expected = propagation_kernel_f(omega * r / bath.velocity, bath.geometry) * classical_psd(
        bath, omega
    )
    band = omega <= bath.cutoff
    scale = classical_psd(bath, 0.0)
    assert np.max(np.abs(cross[band] - expected[band])) < 0.12 * scale


def test_spatial_topology_requires_matching_positions():
    bath = bath_1d(cutoff=8.0)
    with pytest.raises(ValueError):
        synthesize_trajectories(
            bath, NoiseTopology.spatial([0.0, 1.0]), 3, dt=0.05, n_steps=256, seed=1
        )
    with pytest.raises(ValueError, match="positions"):
        functional_spectral_factors(
            bath, NoiseTopology.spatial([0.0, 1.0]), np.ones((1, 3)), dt=0.05, n_steps=256
        )
    with pytest.raises(ValueError):
        NoiseTopology("uniform", positions=(1.0,))
    with pytest.raises(ValueError):
        NoiseTopology.spatial([])


FACTOR_DT, FACTOR_STEPS = 0.05, 256


def _functional_covariance(bath, topology, weights, dt=FACTOR_DT, n_steps=FACTOR_STEPS):
    """Reference scale_k^2 W K_k W^T per bin, K_k from the public kernels."""
    omega = 2 * np.pi * np.fft.rfftfreq(n_steps, dt)
    scale2 = n_steps * classical_psd(bath, omega) / dt
    n_sites = weights.shape[1]
    cov = np.empty((omega.size, weights.shape[0], weights.shape[0]))
    for k, w in enumerate(omega):
        if topology.kind is TopologyKind.UNIFORM:
            kernel = np.ones((n_sites, n_sites))
        elif topology.kind is TopologyKind.INDEPENDENT:
            kernel = np.eye(n_sites)
        else:
            kernel = spatial_correlation_matrix(bath, topology.positions, w)
        cov[k] = scale2[k] * weights @ kernel @ weights.T
    return cov


@pytest.mark.parametrize(
    "geometry, topology, weights, rank",
    [
        ("1d", NoiseTopology.uniform(), [[1.0, -2.0, 0.5]], 1),
        ("1d", NoiseTopology.uniform(), [[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]], 1),
        ("1d", NoiseTopology.independent(), [[0.4, -1.3, 2.0]], 1),
        ("1d", NoiseTopology.independent(), [[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]], 2),
        ("1d", NoiseTopology.spatial([0.0, 0.05]), [[1.0, 0.5]], 1),
        ("1d", NoiseTopology.spatial([0.0, 0.05, 0.12]), [[1.0, -1.0, 1.0], [0.5, 1.0, -2.0]], 2),
        ("3d", NoiseTopology.spatial([[0, 0, 0], [0.04, 0.03, 0]]), [[1.0, 0.5], [-0.3, 1.0]], 2),
        # rank deficient: the second functional is twice the first
        ("3d", NoiseTopology.spatial([[0, 0, 0], [0.04, 0.03, 0], [0, 0.1, 0.02]]),
         [[1.0, -1.0, 0.5], [2.0, -2.0, 1.0]], 1),
    ],
)
def test_functional_factors_reproduce_covariance(geometry, topology, weights, rank):
    bath = OhmicBath(coupling=0.7, cutoff=8.0, temperature=1.3, geometry=geometry)
    weights = np.asarray(weights)
    factors = functional_spectral_factors(bath, topology, weights, FACTOR_DT, FACTOR_STEPS)
    assert factors.shape == (FACTOR_STEPS // 2 + 1, weights.shape[0], rank)
    cov = _functional_covariance(bath, topology, weights)
    rebuilt = factors @ factors.transpose(0, 2, 1)
    err = np.abs(rebuilt - cov).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(cov).max(axis=(1, 2)))


@pytest.mark.parametrize(
    "topology, weights",
    [
        (NoiseTopology.uniform(), [[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]),
        (NoiseTopology.independent(), [[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]),
        (NoiseTopology.spatial([0.0, 0.0, 0.0]), [[1.0, -1.0, 1.0], [0.5, 1.0, -2.0]]),
        (NoiseTopology.uniform(), [[1.0, -1.0, 0.0]]),  # noise free: R = 0
    ],
)
def test_separable_factor_is_the_per_bin_factor_scaled(topology, weights):
    bath = bath_1d(cutoff=8.0)
    factors = functional_spectral_factors(bath, topology, weights, FACTOR_DT, FACTOR_STEPS)
    scale, g = separable_functional_factor(bath, topology, weights, FACTOR_DT, FACTOR_STEPS)
    assert g.shape == factors.shape[1:]
    np.testing.assert_allclose(
        scale[:, None, None] * g, factors, rtol=0, atol=1e-14 * np.abs(factors).max(initial=1.0)
    )


def test_separable_factor_refuses_separated_sites():
    topology = NoiseTopology.spatial([0.0, 0.05])
    assert separable_functional_factor(
        bath_1d(cutoff=8.0), topology, [[1.0, 1.0], [1.0, -1.0]], FACTOR_DT, FACTOR_STEPS
    ) is None


def test_functional_factors_drop_noise_free_functionals():
    bath = bath_1d(cutoff=8.0)
    balanced = [[1.0, -1.0, 0.0]]  # sum(w) = 0 on a shared source
    for topology, weights in [(NoiseTopology.uniform(), balanced),
                              (NoiseTopology.independent(), np.zeros((1, 0)))]:
        factors = functional_spectral_factors(bath, topology, weights, FACTOR_DT, FACTOR_STEPS)
        assert factors.shape == (FACTOR_STEPS // 2 + 1, 1, 0)


def test_functional_factors_reject_non_finite_input():
    # a NaN covariance must not pass for a noise-free (R = 0) functional
    # the constructor refuses NaN; bypass it to reach the projection's own check
    nan_bath = bath_1d(cutoff=8.0)
    object.__setattr__(nan_bath, "coupling", np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        functional_spectral_factors(
            nan_bath, NoiseTopology.uniform(), [[1.0]], FACTOR_DT, FACTOR_STEPS
        )
    with pytest.raises(ValueError, match="non-finite"):
        functional_spectral_factors(
            bath_1d(cutoff=8.0), NoiseTopology.independent(), [[1.0, np.inf]],
            FACTOR_DT, FACTOR_STEPS,
        )
    with pytest.raises(ValueError, match="non-finite"):
        functional_spectral_factors(
            bath_1d(cutoff=8.0), NoiseTopology.spatial([0.0, np.nan]), [[1.0, 1.0]],
            FACTOR_DT, FACTOR_STEPS,
        )


def test_functional_factors_do_not_expand_a_broadcast_kernel_stack():
    # 64 independent sources share one identity kernel; a (bins, 64, 64) copy of
    # it (or of its finiteness mask) would take over 100 MB at 2^16 steps
    import tracemalloc

    weights = np.random.default_rng(3).standard_normal((1, 64))
    tracemalloc.start()
    try:
        factors = functional_spectral_factors(
            bath_1d(), NoiseTopology.independent(), weights, 0.5, 2**16
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factors.shape == (2**15 + 1, 1, 1)
    assert peak < 40e6


def test_uniform_site_kernel_stack_is_one_broadcast_matrix():
    # a full (bins, L, L) stack of ones would take 2 KB per bin at L = 16
    omega = np.linspace(0.0, 10.0, 2**17 + 1)
    kernels = _site_kernels(bath_1d(), NoiseTopology.uniform(), 16, omega)
    assert kernels.shape == (omega.size, 16, 16)
    assert kernels.strides[0] == 0
    assert (kernels[0] == 1.0).all()


def test_functional_factors_match_synthesizer_statistics():
    # per-bin variances of the synthesizer's functionals weights @ draw_spectrum()
    # agree within 4 sigma with the reference covariance built from the public
    # kernels, not from the factors the synthesizer itself mixes
    bath = bath_1d(cutoff=8.0)
    topology = NoiseTopology.spatial([0.0, 0.3])
    weights = np.array([[1.0, 0.5], [-0.3, 1.0]])
    dt, n_steps, n_draws = 0.05, 64, 4000
    synth = SpectralSynthesizer(bath, topology, n_sites=2, dt=dt, n_steps=n_steps)
    power = np.zeros((2, n_steps // 2 + 1))
    for i in range(n_draws):
        rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(17, i)))
        power += np.abs(weights @ synth.draw_spectrum(rng)) ** 2
    power /= n_draws
    expected = np.einsum("kpp->pk", _functional_covariance(bath, topology, weights, dt, n_steps))
    # |Z|^2 is exponential (chi-square with one dof at the real end bins)
    rel_sd = np.full(expected.shape[1], 1.0)
    rel_sd[[0, -1]] = np.sqrt(2.0)
    sigma = expected * rel_sd / np.sqrt(n_draws)
    assert np.all(np.abs(power - expected) <= 4.0 * sigma)


def _pipeline_phase_covariance(factors, dt, n_steps, report_idx):
    """Covariance of the phase at report_idx[1:] from irfft + cumulative_trapezoid.

    Pushes every unit white amplitude (real parts of all bins, imaginary
    parts of the interior ones) through the synthesis pipeline; the phase is
    linear in them, so the covariance is the sum of the outer products.
    """
    n_bins = factors.shape[0]
    unit = np.eye(n_bins)
    unit[1:-1] /= np.sqrt(2.0)  # complex interior bins: variance 1/2 per part
    rows = []
    for r in range(factors.shape[2]):
        spec = np.concatenate([unit, 1j * unit[1:-1]]) * factors[:, 0, r]
        noise = np.fft.irfft(spec, n=n_steps)
        rows.append(cumulative_trapezoid(noise, dx=dt, initial=0.0, axis=1)[:, report_idx[1:]])
    phase = np.concatenate(rows)
    return phase.T @ phase


@pytest.mark.parametrize("n_steps", [256, 1024])
@pytest.mark.parametrize(
    "geometry, topology",
    [
        ("1d", NoiseTopology.uniform()),
        ("1d", NoiseTopology.independent()),
        ("1d", NoiseTopology.spatial([0.0, 0.01, 0.03, 0.07])),
        ("3d", NoiseTopology.spatial([[0, 0, 0], [0.01, 0, 0], [0, 0.03, 0], [0.02, 0.02, 0.05]])),
    ],
)
def test_trapezoid_phase_factor_reproduces_pipeline_covariance(geometry, topology, n_steps):
    # bus weights (phi . m) m - (phi . m') m' of a driven gate at L = 4
    bath = OhmicBath(coupling=1.0, cutoff=100.0, temperature=1.0, geometry=geometry)
    phi = np.array([1.0, 1.0, 0.0, 0.0])
    m_l, m_r = np.ones(4), np.array([-1.0, 1.0, 1.0, 1.0])
    weights = [(phi @ m_l) * m_l - (phi @ m_r) * m_r]
    dt = 0.5 / bath.cutoff
    factors = functional_spectral_factors(bath, topology, weights, dt, n_steps)
    report_idx = np.unique(np.round(np.linspace(0, n_steps - 1, 257)).astype(int))
    factor = trapezoid_phase_factor((factors[:, 0] ** 2).sum(axis=1), dt, report_idx)
    expected = _pipeline_phase_covariance(factors, dt, n_steps, report_idx)
    assert factor.shape[1] == report_idx.size - 1
    err = np.abs(factor.T @ factor - expected).max()
    assert err <= 1e-10 * np.abs(expected).max()


def test_trapezoid_phase_factor_is_empty_without_noise():
    report_idx = np.arange(0, 64, 4)
    assert trapezoid_phase_factor(np.zeros(33), 0.01, report_idx).shape == (0, 15)
