import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from gatenoise import noise
from gatenoise.noise import (
    Geometry,
    NoiseTopology,
    OhmicBath,
    SpectralSynthesizer,
    _psd_eigh,
    _site_kernel,
    TopologyKind,
    classical_psd,
    cross_spectral_density,
    draw_white,
    estimate_psd,
    functional_factor,
    propagation_kernel_f,
    spatial_correlation_matrix,
    spectral_density,
    synthesize_trajectories,
    trajectory_seed_sequence,
    trapezoid_phase_factor,
    write_psd_csv,
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
    # a non-finite frequency is refused, not turned into nan (or 0.0 for
    # classical_psd at inf)
    for spectrum in (spectral_density, classical_psd):
        for omega in (np.inf, np.nan, [1.0, np.nan]):
            with pytest.raises(ValueError):
                spectrum(bath, omega)


def test_propagation_kernel_examples():
    assert propagation_kernel_f(np.pi, Geometry.ONE_D) == pytest.approx(-1.0)
    assert propagation_kernel_f(0.0, Geometry.THREE_D) == 1.0
    assert propagation_kernel_f(np.pi, Geometry.THREE_D) == pytest.approx(0.0, abs=1e-15)
    # sin(x) / x tends to 0 at +-inf
    assert propagation_kernel_f(-np.inf, Geometry.THREE_D) == 0.0
    assert propagation_kernel_f([1.0, np.inf], Geometry.THREE_D)[1] == 0.0
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
    for omega, r in [(1.0, np.nan), (np.nan, 1.0), (np.inf, 1.0)]:
        with pytest.raises(ValueError):
            cross_spectral_density(bath, omega, r)


_BATH_1D = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0)
_BATH_3D = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0, geometry=Geometry.THREE_D)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (cross_spectral_density, (_BATH_1D, 0.0, np.inf), "distance"),
        (cross_spectral_density, (_BATH_1D, 1.0, np.inf), "distance"),
        (cross_spectral_density, (_BATH_3D, 0.0, np.inf), "distance"),
        (cross_spectral_density, (_BATH_3D, 1.0, np.inf), "distance"),
        (spatial_correlation_matrix, (_BATH_1D, [0.0, 1.0], np.nan), "frequencies"),
        (spatial_correlation_matrix, (_BATH_1D, [0.0, 1.0], np.inf), "frequencies"),
        (spatial_correlation_matrix, (_BATH_1D, [0.0, 1.0], -1.0), "frequencies"),
        (spatial_correlation_matrix, (_BATH_1D, [0.0, np.inf], 1.0), "site positions"),
        (spatial_correlation_matrix, (_BATH_3D, [(0.0, 0.0), (1e200, 0.0)], 1.0), "site positions"),
        (_site_kernel, (NoiseTopology.spatial([0.0, np.inf]), 2), "site positions"),
        (cross_spectral_density, (_BATH_1D, 1e10, 1e300), "w r / v overflows"),
        (cross_spectral_density, (_BATH_3D, 1e10, 1e300), "w r / v overflows"),
        (spatial_correlation_matrix, (_BATH_1D, [0.0, 1e300], 1e10), "w r / v overflows"),
        (functional_factor, (_BATH_1D, NoiseTopology.spatial([0.0, 1e308]), np.eye(2), 0.5, 16),
         "w r / v overflows"),
    ],
    ids=["csd_1d_w0", "csd_1d_w1", "csd_3d_w0", "csd_3d_w1", "scm_w_nan", "scm_w_inf",
         "scm_w_negative", "scm_site_inf", "scm_distance_overflows", "site_kernel_site_inf",
         "csd_1d_phase_overflows", "csd_3d_phase_overflows", "scm_phase_overflows",
         "functional_factor_phase_overflows"],
)
def test_non_finite_distance_or_frequency_is_refused_without_a_warning(fn, args, message):
    # an infinite distance, one beyond the float range, or a frequency that is
    # not finite and >= 0 is a ValueError, never nan or a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            fn(*args)


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
    assert bundle.shape == (3, 256)
    assert np.array_equal(bundle[0], bundle[1])
    assert np.array_equal(bundle[0], bundle[2])


def test_synthesis_deterministic_and_seed_sensitive():
    bath = bath_1d(cutoff=8.0)
    topo = NoiseTopology.independent()
    a = synthesize_trajectories(bath, topo, 2, dt=0.05, n_steps=512, seed=123)
    b = synthesize_trajectories(bath, topo, 2, dt=0.05, n_steps=512, seed=123)
    c = synthesize_trajectories(bath, topo, 2, dt=0.05, n_steps=512, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
    for dt in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            estimate_psd(np.zeros(512), dt)
    for sample in (np.nan, np.inf):
        x = np.zeros((2, 512))
        x[1, 7] = sample
        with pytest.raises(ValueError, match="finite"):
            estimate_psd(x, 0.1)
    for shape in ((512,), (2, 512)):  # a sample of 1e300 squares beyond the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                estimate_psd(np.full(shape, 1e300), 0.1)


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


def test_white_blocks_draw_real_parts_then_imaginary_parts():
    # the layout of the bus engine's chunk: each row draws its real parts
    # (source, bin), then its imaginary parts, so row blocks of any height
    # drawn one after another give the amplitudes of one draw
    amplitude = np.linspace(1.0, 2.0, 9)
    nt, n_sources = 10, 2
    normals = np.random.default_rng(4).standard_normal(2 * nt * n_sources * 9)
    re, im = np.moveaxis(normals.reshape(nt, 2, n_sources, 9), 1, 0)
    half = amplitude / np.sqrt(2.0)
    whole = draw_white(np.random.default_rng(4), nt, n_sources, amplitude)
    np.testing.assert_array_equal(whole.real[..., 1:-1], (re * half)[..., 1:-1])
    np.testing.assert_array_equal(whole.imag[..., 1:-1], (im * half)[..., 1:-1])
    np.testing.assert_array_equal(whole[..., [0, -1]], re[..., [0, -1]] * amplitude[[0, -1]])
    for rows in (1, 3, 10, 64):
        rng = np.random.default_rng(4)
        blocks = [draw_white(rng, min(rows, nt - s), n_sources, amplitude)
                  for s in range(0, nt, rows)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes(), rows
    # one row: its real parts, then its imaginary parts, as two separate draws
    rng = np.random.default_rng(4)
    re1, im1 = rng.standard_normal((2, 1, n_sources, 9))
    one = draw_white(np.random.default_rng(4), 1, n_sources, amplitude)
    np.testing.assert_array_equal(one.real[..., 1:-1], (re1 * half)[..., 1:-1])
    np.testing.assert_array_equal(one.imag[..., 1:-1], (im1 * half)[..., 1:-1])


def test_write_psd_csv_needs_one_target_value_per_frequency(tmp_path):
    # a shorter target once wrote only as many rows as it had values
    est = estimate_psd(np.random.default_rng(0).standard_normal(512), 0.05)
    path = tmp_path / "psd.csv"
    for target in (np.ones(5), np.ones(est.psd.size + 1), np.ones((1, est.psd.size))):
        with pytest.raises(ValueError, match="shape"):
            write_psd_csv(path, est, target)
    assert not path.exists()
    write_psd_csv(path, est, classical_psd(bath_1d(), est.omega))
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + est.psd.size


@pytest.mark.parametrize(
    "topology, n_sites",
    [(NoiseTopology.uniform(), 1), (NoiseTopology.independent(), 2)],
    ids=["one_source", "two_sources"],
)
def test_bus_engine_draws_match_target_psd(topology, n_sites):
    # the bus engine's own path, at criterion 9's grid and tolerance: a chunk's
    # row blocks at the functional factor's amplitude, inverse-FFT'd and mixed
    # by its (P, R) factor into the site noises
    bath = bath_1d(cutoff=8.0)
    dt, n_steps, nt = 0.5 / 8.0, 512, 2048
    amplitude, factor = functional_factor(bath, topology, np.eye(n_sites), dt, n_steps)
    rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(9, 0)))
    x = np.concatenate([
        np.fft.irfft(draw_white(rng, min(100, nt - s), factor.shape[1], amplitude), n=n_steps)
        for s in range(0, nt, 100)
    ])
    sites = np.einsum("pr,nrt->npt", factor, x)
    for p in range(n_sites):
        est = estimate_psd(sites[:, p], dt)
        target = classical_psd(bath, est.omega)
        band = (est.omega >= bath.cutoff / 10.0) & (est.omega <= bath.cutoff)
        assert np.max(np.abs(est.psd[band] / target[band] - 1.0)) < 0.10


def test_spatial_zero_distance_cross_psd_equals_auto():
    bath = bath_1d(cutoff=8.0)
    topo = NoiseTopology.spatial([0.0, 0.0])
    bundle = synthesize_trajectories(bath, topo, 2, dt=0.05, n_steps=512, seed=21)
    # coincident sites are perfectly correlated: the rows coincide, so the
    # cross-periodogram equals the auto-periodogram identically
    assert np.allclose(bundle[0], bundle[1], rtol=0, atol=1e-12)


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
        functional_factor(
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


def _per_bin_factors(bath, topology, weights, dt=FACTOR_DT, n_steps=FACTOR_STEPS):
    """F_k of :func:`functional_factor` in every bin, shape (n_bins, P, R)."""
    amplitude, factor = functional_factor(bath, topology, weights, dt, n_steps)
    return factor if factor.ndim == 3 else amplitude[:, None, None] * factor


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
        # co-located sites (all distances zero): f(0) = 1 in every bin
        ("1d", NoiseTopology.spatial([0.0, 0.0, 0.0]), [[1.0, -1.0, 1.0], [0.5, 1.0, -2.0]], 1),
        ("3d", NoiseTopology.spatial([[0.1, 0.2, 0.3]] * 3),
         [[1.0, -1.0, 0.5], [0.3, 1.0, 2.0]], 1),
        # evenly spaced: each distance is shared by several site pairs
        ("1d", NoiseTopology.spatial([0.0, 0.0625, 0.125, 0.1875]),
         [[1.0, -1.0, 1.0, -1.0], [0.5, 1.0, -2.0, 0.25]], 2),
        # partly co-located: the distance-0 group holds a pair of distinct sites
        ("1d", NoiseTopology.spatial([0.0, 0.0, 0.07]), [[1.0, -1.0, 1.0], [0.5, 1.0, -2.0]], 2),
        ("3d", NoiseTopology.spatial([[0, 0, 0], [0.03, 0.04, 0], [0, 0, 0]]),
         [[1.0, 0.5, -1.0], [-0.3, 1.0, 2.0]], 2),
    ],
)
def test_functional_factors_reproduce_covariance(geometry, topology, weights, rank):
    # one (P, R) factor times the per-bin amplitude where the kernel is the
    # same in every bin; a per-bin (n_bins, P, R) factor for separated sites
    bath = OhmicBath(coupling=0.7, cutoff=8.0, temperature=1.3, geometry=geometry)
    weights = np.asarray(weights)
    amplitude, factor = functional_factor(bath, topology, weights, FACTOR_DT, FACTOR_STEPS)
    if topology.kind is TopologyKind.SPATIAL and len(set(topology.positions)) > 1:
        assert factor.shape == (FACTOR_STEPS // 2 + 1, weights.shape[0], rank)
        assert (amplitude == 1.0).all()
        factors = factor
    else:
        assert factor.shape == (weights.shape[0], rank)
        factors = amplitude[:, None, None] * factor
    cov = _functional_covariance(bath, topology, weights)
    rebuilt = factors @ factors.transpose(0, 2, 1)
    err = np.abs(rebuilt - cov).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(cov).max(axis=(1, 2)))


@pytest.mark.parametrize(
    "topology, weights",
    [
        (NoiseTopology.uniform(), [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]),
        (NoiseTopology.spatial([0.0, 0.0, 0.0]), [[1.0, -1.0, 1.0], [0.5, 1.0, -2.0]]),
        (NoiseTopology.spatial([0.0, 0.05, 0.12]), [[1.0, -1.0, 1.0], [0.5, 1.0, -2.0]]),
    ],
    ids=["uniform", "colocated", "separated"],
)
def test_factor_columns_have_a_positive_largest_entry(topology, weights):
    # each eigenvector is signed by its largest entry, in every bin, not by
    # whatever sign LAPACK returns, so a last-digit change in a bin's
    # covariance does not flip the direction a white source is drawn along
    _, factor = functional_factor(bath_1d(cutoff=8.0), topology, weights, FACTOR_DT, FACTOR_STEPS)
    columns = np.swapaxes(factor, -1, -2).reshape(-1, factor.shape[-2])  # (bins * R, P)
    top = np.take_along_axis(columns, np.abs(columns).argmax(axis=1)[:, None], axis=1)[:, 0]
    noisy = np.abs(columns).max(axis=1) > 0.0  # a bin without noise in a direction is 0
    assert noisy.any() and (top[noisy] > 0.0).all()


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
    # where the site kernel is the same in every bin, the factor is one (P, R)
    # matrix G of the per-bin rank and the amplitude is the grid's scale_k, so
    # scale_k G is a per-bin factor of the functionals' covariance
    bath = bath_1d(cutoff=8.0)
    weights = np.asarray(weights)
    scale, g = functional_factor(bath, topology, weights, FACTOR_DT, FACTOR_STEPS)
    omega = 2 * np.pi * np.fft.rfftfreq(FACTOR_STEPS, FACTOR_DT)
    np.testing.assert_array_equal(
        scale, np.sqrt(FACTOR_STEPS * classical_psd(bath, omega) / FACTOR_DT)
    )
    cov = _functional_covariance(bath, topology, weights)
    assert g.shape == (weights.shape[0], np.linalg.matrix_rank(cov[0]))
    factors = scale[:, None, None] * g
    np.testing.assert_allclose(
        factors @ factors.transpose(0, 2, 1), cov, rtol=0,
        atol=1e-14 * np.abs(cov).max(initial=1.0),
    )


def test_separable_factor_refuses_separated_sites():
    # separated sites: the kernel varies with frequency, so the factor is per bin
    amplitude, factor = functional_factor(
        bath_1d(cutoff=8.0), NoiseTopology.spatial([0.0, 0.05]), [[1.0, 1.0], [1.0, -1.0]],
        FACTOR_DT, FACTOR_STEPS,
    )
    assert factor.shape == (FACTOR_STEPS // 2 + 1, 2, 2)
    assert (amplitude == 1.0).all()


def test_functional_factors_drop_noise_free_functionals():
    bath = bath_1d(cutoff=8.0)
    balanced = [[1.0, -1.0, 0.0]]  # sum(w) = 0 on a shared source
    for topology, weights in [(NoiseTopology.uniform(), balanced),
                              (NoiseTopology.independent(), np.zeros((1, 0)))]:
        amplitude, factor = functional_factor(bath, topology, weights, FACTOR_DT, FACTOR_STEPS)
        assert amplitude.shape == (FACTOR_STEPS // 2 + 1,)
        assert factor.shape == (1, 0)


def test_functional_factors_reject_non_finite_input():
    # a NaN covariance must not pass for a noise-free (R = 0) functional
    # the constructor refuses NaN; bypass it to reach the projection's own check
    nan_bath = bath_1d(cutoff=8.0)
    object.__setattr__(nan_bath, "coupling", np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        functional_factor(
            nan_bath, NoiseTopology.uniform(), [[1.0]], FACTOR_DT, FACTOR_STEPS
        )
    with pytest.raises(ValueError, match="non-finite"):
        functional_factor(
            bath_1d(cutoff=8.0), NoiseTopology.independent(), [[1.0, np.inf]],
            FACTOR_DT, FACTOR_STEPS,
        )
    with pytest.raises(ValueError, match="non-finite"):
        functional_factor(
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
        amplitude, factor = functional_factor(
            bath_1d(), NoiseTopology.independent(), weights, 0.5, 2**16
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amplitude.shape == (2**15 + 1,)
    assert factor.shape == (1, 1)
    assert peak < 40e6


def test_colocated_sites_are_factored_once():
    # 16 co-located sites (all distances zero) share one all-ones kernel; a
    # (bins, 16, 16) stack of f(0) would take 67 MB at 2^16 steps
    import tracemalloc

    weights = np.random.default_rng(5).standard_normal((2, 16))
    tracemalloc.start()
    try:
        amplitude, factor = functional_factor(
            bath_1d(), NoiseTopology.spatial([0.0] * 16), weights, 0.5, 2**16
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amplitude.shape == (2**15 + 1,)
    assert factor.shape == (2, 1)
    assert peak < 40e6


def test_independent_synthesizer_builds_no_site_by_site_matrix():
    # 4096 independent rows are 4096 white sources at one site's amplitude: an
    # identity factor of the rows would take 128 MiB and its eigh far longer
    import tracemalloc

    tracemalloc.start()
    try:
        synth = SpectralSynthesizer(bath_1d(), NoiseTopology.independent(), 4096, 0.05, 64)
        spectrum = synth.draw_spectrum(np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum.shape == (4096, 33)
    assert peak < 8 * 2**20, peak / 2**20


def test_uniform_site_kernel_stack_is_one_broadcast_matrix():
    # a full (bins, L, L) stack of ones would take 2 KB per bin at L = 16: the
    # uniform kernel is one distance group, at distance 0, whatever the grid
    distances, groups = _site_kernel(NoiseTopology.uniform(), 16)
    assert distances.tolist() == [0.0]
    assert groups.shape == (16, 16)
    assert (groups == 0).all()


@pytest.mark.parametrize(
    "topology, distances, pairs",
    [
        (NoiseTopology.independent(), [0.0], [4]),
        (NoiseTopology.spatial([0.0] * 4), [0.0], [16]),
        (NoiseTopology.spatial([0.0, 0.25, 0.5, 0.75]), [0.0, 0.25, 0.5, 0.75], [4, 6, 4, 2]),
        (NoiseTopology.spatial([0.5, 0.0, 0.5, 0.0]), [0.0, 0.5], [8, 8]),
    ],
    ids=["independent", "colocated", "evenly_spaced", "partly_colocated"],
)
def test_site_kernel_groups_pairs_by_distance(topology, distances, pairs):
    # each site pair indexes its distance, or is -1 where the noises are independent
    got, groups = _site_kernel(topology, 4)
    assert got.tolist() == distances
    assert np.bincount(groups[groups >= 0]).tolist() == pairs
    assert ((groups >= 0) | (groups == -1)).all() and (groups == groups.T).all()


@pytest.mark.parametrize("kernel_values", [1, 100], ids=["one_bin", "six_bins"])
def test_separated_covariance_is_built_in_blocks_of_bins(monkeypatch, kernel_values):
    # 4 sites, 16 kernel values a bin: blocks of one bin and blocks of six,
    # which do not divide the 129 bins, give the reference covariance
    bath = OhmicBath(coupling=0.7, cutoff=8.0, temperature=1.3)
    topology = NoiseTopology.spatial([0.0, 0.0625, 0.125, 0.3])
    weights = np.array([[1.0, -1.0, 1.0, -1.0], [0.5, 1.0, -2.0, 0.25]])
    monkeypatch.setattr(noise, "_KERNEL_VALUES", kernel_values)
    factors = _per_bin_factors(bath, topology, weights)
    cov = _functional_covariance(bath, topology, weights)
    err = np.abs(factors @ factors.transpose(0, 2, 1) - cov).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(cov).max(axis=(1, 2)))


def _rotated(eigenvalues, angle):
    c, s = np.cos(angle), np.sin(angle)
    q = np.array([[c, -s], [s, c]])
    return q @ np.diag(eigenvalues) @ q.T


PSD_OMEGA = np.array([0.0, 1.5, 3.0])


@pytest.mark.parametrize("scale", [None, np.array([2.0, 1.0, 1.0])], ids=["own", "per_bin"])
def test_psd_eigh_refuses_a_real_negative_eigenvalue_and_names_its_bin(scale):
    stack = np.stack([_rotated([1.0, 2.0], 0.3), _rotated([-2e-6, 1.0], 0.7), np.eye(2)])
    with pytest.raises(ValueError, match=r"eigenvalue -2\.000e-06 at omega = 1\.5\)"):
        _psd_eigh(stack, "spatial correlation matrix", PSD_OMEGA, scale)


def test_psd_eigh_checks_a_weak_bin_against_its_own_scale():
    # next to bins of power 1, a real negative eigenvalue of a bin of power
    # 1e-8 is well below 1e-10 of the stack's largest, but not of its own scale
    stack = np.stack([_rotated([1.0, 2.0], 0.3), _rotated([-1e-12, 1e-8], 0.7), np.eye(2)])
    with pytest.raises(ValueError, match=r"eigenvalue -1\.000e-12 at omega = 1\.5\)"):
        _psd_eigh(stack, "spatial correlation matrix", PSD_OMEGA, np.array([2.0, 1e-8, 1.0]))


def test_psd_eigh_measures_round_off_against_the_cancelling_terms():
    # a bin where terms of size 1 cancel holds only round-off, and its own
    # largest eigenvalue is 0: measured against the terms, -2e-14 is round-off
    stack = np.stack([_rotated([1.0, 2.0], 0.3), np.diag([-2e-14, 0.0]), np.eye(2)])
    eigval, eigvec = _psd_eigh(
        stack, "spatial correlation matrix", PSD_OMEGA, np.array([2.0, 1.0, 1.0])
    )
    assert eigval[1].tolist() == [0.0, 0.0]
    np.testing.assert_allclose(eigval[[0, 2]], [[1.0, 2.0], [1.0, 1.0]], rtol=1e-14)


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


# dt * cutoff = 0.01 oversamples the spectrum: the phase covariance is then
# numerically rank deficient and eigh keeps fewer directions than report points
@pytest.mark.parametrize(
    "n_steps, dt_cutoff",
    [(256, 0.5), (1024, 0.5), (256, 0.01), (1024, 0.01)],
    ids=["256", "1024", "256-dt_cutoff_0.01", "1024-dt_cutoff_0.01"],
)
@pytest.mark.parametrize(
    "geometry, topology",
    [
        ("1d", NoiseTopology.uniform()),
        ("1d", NoiseTopology.independent()),
        ("1d", NoiseTopology.spatial([0.0, 0.01, 0.03, 0.07])),
        ("3d", NoiseTopology.spatial([[0, 0, 0], [0.01, 0, 0], [0, 0.03, 0], [0.02, 0.02, 0.05]])),
    ],
)
def test_trapezoid_phase_factor_reproduces_pipeline_covariance(
    geometry, topology, n_steps, dt_cutoff
):
    # bus weights (phi . m) m - (phi . m') m' of a driven gate at L = 4
    bath = OhmicBath(coupling=1.0, cutoff=100.0, temperature=1.0, geometry=geometry)
    phi = np.array([1.0, 1.0, 0.0, 0.0])
    m_l, m_r = np.ones(4), np.array([-1.0, 1.0, 1.0, 1.0])
    weights = [(phi @ m_l) * m_l - (phi @ m_r) * m_r]
    dt = dt_cutoff / bath.cutoff
    factors = _per_bin_factors(bath, topology, weights, dt, n_steps)
    report_idx = np.unique(np.round(np.linspace(0, n_steps - 1, 257)).astype(int))
    factor = trapezoid_phase_factor((factors[:, 0] ** 2).sum(axis=1), dt, report_idx)
    expected = _pipeline_phase_covariance(factors, dt, n_steps, report_idx)
    assert factor.shape[1] == report_idx.size - 1
    if dt_cutoff < 0.5:
        assert factor.shape[0] < report_idx.size - 1
    err = np.abs(factor.T @ factor - expected).max()
    assert err <= 1e-10 * np.abs(expected).max()


def test_trapezoid_phase_factor_is_empty_without_noise():
    report_idx = np.arange(0, 64, 4)
    assert trapezoid_phase_factor(np.zeros(33), 0.01, report_idx).shape == (0, 15)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SpectralSynthesizer(bath_1d(), NoiseTopology.uniform(), 0, 0.1, 256),
         "at least one site"),
        (lambda: estimate_psd(1.0, 0.1), "got a scalar"),
        (lambda: propagation_kernel_f(np.nan, Geometry.ONE_D), "no value at x = NaN"),
        (lambda: propagation_kernel_f([0.0, np.nan], Geometry.THREE_D), "no value at x = NaN"),
        # cos has no limit at +-inf
        (lambda: propagation_kernel_f(np.inf, Geometry.ONE_D), r"no value at x = NaN or \+-inf"),
        (lambda: propagation_kernel_f([-np.inf], Geometry.ONE_D), r"no value at x = NaN or \+-inf"),
    ],
    ids=["synthesizer_no_sites", "psd_of_a_scalar", "kernel_f_nan_1d", "kernel_f_nan_3d",
         "kernel_f_inf_1d", "kernel_f_minus_inf_1d"],
)
def test_noise_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
