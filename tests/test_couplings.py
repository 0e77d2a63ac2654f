import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatenoise.couplings import (
    CouplingKind,
    CouplingMatrix,
    coupling_matrix,
    drive_enhancement,
    kernel_g,
    kernel_h,
    spurious_coupling,
    spurious_coupling_quadrature,
    transient_coupling,
    transient_coupling_quadrature,
    transient_energy_shift,
)
from gatenoise.noise import Geometry, OhmicBath
from gatenoise.register import GateDrive, RegisterLabel


def bath(geometry=Geometry.ONE_D, coupling=1.0, cutoff=1.0, velocity=1.0):
    return OhmicBath(coupling=coupling, cutoff=cutoff, geometry=geometry, velocity=velocity)


def test_kernel_g_examples():
    assert kernel_g(0.0, Geometry.ONE_D) == 1.0
    assert kernel_g(1.0, Geometry.ONE_D) == 0.0
    assert kernel_g(3.0, Geometry.THREE_D) == pytest.approx(0.1, rel=1e-15)
    assert kernel_g(0.0, Geometry.THREE_D) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_g_stays_finite_where_x_squared_overflows():
    x = np.logspace(0, 308, 500)
    g = kernel_g(x, Geometry.ONE_D)
    assert np.isfinite(g).all() and (g[1:] <= 0).all()
    inv = 1.0 / 1e160  # x^2 overflows here; the kernel is -(1/x)^2
    assert kernel_g(1e160, Geometry.ONE_D) == -inv * inv < 0
    assert kernel_g(1e200, Geometry.ONE_D) == 0.0


def test_kernel_g_switches_where_the_denominator_overflows():
    # (1 + x^2)^2 overflows from x ~ 1.2e77 while x^2 stays finite up to ~1.3e154;
    # there the literal form gave -0.0 for a kernel of -(1/x)^2
    assert kernel_g(1e100, Geometry.ONE_D) == -1e-200
    x = 1e76  # the denominator is finite: the literal form is kept
    assert kernel_g(x, Geometry.ONE_D) == (1.0 - x * x) / (1.0 + x * x) ** 2 < 0


def test_kernel_h_examples():
    assert kernel_h(0.0, Geometry.THREE_D) == 1.0
    assert kernel_h(1.0, Geometry.ONE_D) == 0.5
    assert kernel_h(1e300, Geometry.ONE_D) == 0.0  # x^2 overflows: the limit at infinity
    assert kernel_h(100.0, Geometry.THREE_D) == pytest.approx(
        (math.pi / 2) / 100.0, rel=0.01
    )


def test_kernel_sign_structure():
    x = np.logspace(-3, 2, 400)
    g1 = kernel_g(x, Geometry.ONE_D)
    assert np.sum(np.diff(np.sign(g1)) != 0) == 1  # exactly one sign change (at x=1)
    assert np.all(kernel_g(x, Geometry.THREE_D) > 0)
    for geom in Geometry:
        h = kernel_h(x, geom)
        assert np.all(h > 0)
        assert np.all(np.diff(h) < 0)  # strictly decreasing


def test_spurious_coupling_closed_form():
    b = bath()
    assert spurious_coupling(b, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert spurious_coupling(b, 1.0) == 0.0  # 1D zero crossing at x = 1
    b3 = bath(Geometry.THREE_D)
    assert spurious_coupling(b3, 5.0) > 0.0
    b_scaled = OhmicBath(coupling=0.3, cutoff=2.0, geometry=Geometry.THREE_D)
    assert spurious_coupling(b_scaled, 0.0) == pytest.approx(
        4.0 * 0.3 / math.pi, rel=1e-15
    )


def test_transient_coupling_closed_form():
    b = bath()
    assert transient_coupling(b, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert transient_coupling(b, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
    b3 = bath(Geometry.THREE_D)
    # long-range 1/r decay in 3D
    assert transient_coupling(b3, 200.0) == pytest.approx(
        (2.0 / math.pi) * (math.pi / 2) / 200.0, rel=0.01
    )


def test_quadrature_anchor_values():
    # int_0^inf u e^-u du = 1 and int_0^inf e^-u du = 1
    b = bath()
    assert spurious_coupling_quadrature(b, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert transient_coupling_quadrature(b, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-10)
    # 1D zero crossing reproduced by the integral
    assert abs(spurious_coupling_quadrature(b, 1.0)) < 1e-8 / math.pi
    # 3D: kernel values 1/(1+x^2) at x=2 and arctan(1) at x=1
    b3 = bath(Geometry.THREE_D)
    assert spurious_coupling_quadrature(b3, 2.0) == pytest.approx(
        (1.0 / math.pi) / 5.0, rel=1e-8
    )
    assert transient_coupling_quadrature(b3, 1.0) == pytest.approx(
        (2.0 / math.pi) * (math.pi / 4.0), rel=1e-8
    )
    assert transient_coupling_quadrature(bath(), 3.0) == pytest.approx(
        transient_coupling(bath(), 3.0), rel=1e-8
    )


@pytest.mark.parametrize("geometry", list(Geometry))
def test_quadrature_matches_closed_forms_on_log_grid(geometry):
    b = OhmicBath(coupling=0.7, cutoff=1.3, geometry=geometry, velocity=0.9)
    sc_scale = abs(spurious_coupling(b, 0.0))
    tr_scale = abs(transient_coupling(b, 0.0))
    for x in np.logspace(-3, 2, 40):
        r = x * b.velocity / b.cutoff
        sc_err = abs(spurious_coupling_quadrature(b, r) - spurious_coupling(b, r))
        assert sc_err <= 1e-8 * max(abs(spurious_coupling(b, r)), 1e-12 * sc_scale) + 1e-12 * sc_scale
        tr_err = abs(transient_coupling_quadrature(b, r) - transient_coupling(b, r))
        assert tr_err <= 1e-8 * max(abs(transient_coupling(b, r)), 1e-12 * tr_scale) + 1e-12 * tr_scale


@pytest.mark.parametrize("geometry", list(Geometry))
def test_quadrature_matches_closed_forms_far_apart(geometry):
    # x in (100, 2000], up to the largest oscillation scale: the integrand
    # oscillates over hundreds of panels and the 1d spurious coupling cancels
    # to -1/x^2 of its scale
    b = OhmicBath(coupling=0.7, cutoff=1.3, geometry=geometry, velocity=0.9)
    for closed_fn, quad_fn in (
        (spurious_coupling, spurious_coupling_quadrature),
        (transient_coupling, transient_coupling_quadrature),
    ):
        scale = abs(closed_fn(b, 0.0))
        for x in np.geomspace(100.0, 2000.0, 15)[1:]:
            r = x * b.velocity / b.cutoff
            closed = closed_fn(b, r)
            rel = abs(quad_fn(b, r) - closed) / max(abs(closed), 1e-12 * scale)
            assert rel <= 1e-8, (quad_fn.__name__, x, rel)


@pytest.mark.parametrize("geometry", list(Geometry))
def test_quadrature_refuses_far_apart_sites_before_evaluating(geometry):
    # above x = 2000 the rule would evaluate about x / 4 panels in one
    # call (gigabytes at x = 1e6), and from x ~ 3e3 the 1d quadratures miss
    # 1e-8 of their closed forms; x = 2000 itself is still taken and met
    b = OhmicBath(coupling=0.7, cutoff=1.3, geometry=geometry, velocity=0.9)
    for closed_fn, quad_fn in (
        (spurious_coupling, spurious_coupling_quadrature),
        (transient_coupling, transient_coupling_quadrature),
    ):
        r = 2000.0 * b.velocity / b.cutoff
        closed = closed_fn(b, r)
        assert abs(quad_fn(b, r) - closed) <= 1e-8 * abs(closed)
        for r in (1e6 * b.velocity / b.cutoff, math.inf):  # r = inf: x = inf
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="closed forms"):
                    quad_fn(b, r)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (quad_fn.__name__, r, peak)


def test_quadrature_that_never_converges_raises_with_its_estimate():
    from gatenoise import couplings

    # a jump at u = 1/3, never a panel edge: the 16- and 32-point sums differ
    # on the panel that holds it
    def step(u):
        return np.where(u < 1.0 / 3.0, 1.0, 0.0)

    with pytest.raises(couplings.QuadratureError, match="did not converge") as info:
        couplings._oscillatory_integral(step, 0.0)
    assert info.value.estimate == pytest.approx(1.0 / 3.0, abs=0.1)
    assert couplings._REL_TOL * abs(info.value.estimate) < info.value.error < 0.1
    assert f"{info.value.error:.3e}" in str(info.value)


@pytest.mark.parametrize("r", [-1.0, float("nan")])
@pytest.mark.parametrize(
    "fn", [spurious_coupling, transient_coupling, spurious_coupling_quadrature,
           transient_coupling_quadrature],
)
def test_negative_or_nan_distance_is_refused(fn, r):
    with pytest.raises(ValueError, match="distance must be >= 0"):
        fn(bath(), r)


def test_gauss_legendre_rules_are_built_once(monkeypatch):
    from gatenoise import couplings

    leggauss = np.polynomial.legendre.leggauss
    orders = []

    def counting_leggauss(order):
        orders.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    couplings._gauss_legendre.cache_clear()
    samples = [
        (quad, OhmicBath(coupling=0.7, cutoff=1.3, geometry=g, velocity=0.9), r)
        for quad in (spurious_coupling_quadrature, transient_coupling_quadrature)
        for g in Geometry
        for r in (0.0, 0.05, 3.0, 70.0)
    ]
    cached = [quad(b, r) for quad, b, r in samples]
    assert sorted(orders) == [16, 32]
    # rules rebuilt on every call, as the quadrature did before the cache
    monkeypatch.setattr(couplings, "_gauss_legendre", leggauss)
    assert [quad(b, r) for quad, b, r in samples] == cached


def test_coupling_matrix_symmetry_and_translation_invariance():
    b = bath(Geometry.THREE_D, cutoff=2.0)
    rng = np.random.default_rng(7)
    positions = rng.uniform(0, 4, size=5)
    for kind in CouplingKind:
        mat = coupling_matrix(b, positions, kind)
        assert np.array_equal(mat.values, mat.values.T)
        shifted = coupling_matrix(b, positions + 11.3, kind)
        assert np.allclose(mat.values, shifted.values, rtol=1e-12)


def test_coupling_matrix_coincident_and_chain():
    b = bath()
    mat = coupling_matrix(b, [0.0, 0.0], CouplingKind.SPURIOUS)
    assert mat.values[0, 1] == mat.values[0, 0]
    # chain spacing v / cutoff puts nearest neighbours at the 1D zero crossing
    spacing = b.velocity / b.cutoff
    chain = coupling_matrix(b, [j * spacing for j in range(4)], CouplingKind.SPURIOUS)
    off = chain.values[np.arange(3), np.arange(1, 4)]
    assert np.allclose(off, 0.0, atol=1e-15)
    # farther pairs do not vanish
    assert abs(chain.values[0, 2]) > 1e-3


def test_coupling_matrix_validation():
    with pytest.raises(ValueError):
        CouplingMatrix(CouplingKind.SPURIOUS, np.ones((2, 3)))
    asym = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        CouplingMatrix(CouplingKind.SPURIOUS, asym)


def _transient_matrix(n, rng=None, cutoff=1.0):
    b = OhmicBath(coupling=0.4, cutoff=cutoff, geometry=Geometry.THREE_D)
    if rng is None:
        positions = np.arange(n) * 0.7
    else:
        positions = np.sort(rng.uniform(0, 3, size=n))
    return coupling_matrix(b, positions, CouplingKind.TRANSIENT)


def test_energy_shift_trivial_cases():
    mu = _transient_matrix(3)
    assert transient_energy_shift(GateDrive.idle(3), RegisterLabel((1, 1, -1)), mu) == 0.0
    mu1 = _transient_matrix(1)
    shift = transient_energy_shift(GateDrive((1.0,)), RegisterLabel((1,)), mu1)
    assert shift == pytest.approx(mu1.values[0, 0] / 2.0, rel=1e-14)


def test_energy_shift_matches_explicit_quadruple_loop():
    rng = np.random.default_rng(5)
    mu = _transient_matrix(2, rng)
    phi = rng.uniform(-1, 1, size=2)
    m = np.array([1, -1])
    expected = 0.0
    for j in range(2):
        for k in range(2):
            for l in range(2):
                for n_ in range(2):
                    expected += (
                        phi[j] * phi[l] * mu.values[k, n_] * m[j] * m[k] * m[l] * m[n_]
                    )
    expected *= 0.5
    got = transient_energy_shift(GateDrive(tuple(phi)), RegisterLabel((1, -1)), mu)
    assert got == pytest.approx(expected, rel=1e-12)


def quadruple_sum_oracle(phi, bits, mu):
    """(1/2) sum_{j k l n} phi_j phi_l mu_kn m_j m_k m_l m_n as one explicit contraction."""
    m = np.asarray(bits, dtype=float)
    p = np.asarray(phi) * m
    return 0.5 * float(np.einsum("j,l,k,n,kn->", p, p, m, m, mu.values, optimize=False))


def test_energy_shift_factorization_identity_at_l8():
    rng = np.random.default_rng(12)
    mu = _transient_matrix(8, rng)
    phi = rng.uniform(-1, 1, size=8)
    bits = tuple(rng.choice([1, -1], size=8))
    got = transient_energy_shift(GateDrive(tuple(phi)), RegisterLabel(bits), mu)
    assert got == pytest.approx(quadruple_sum_oracle(phi, bits, mu), rel=1e-12)


def test_energy_shift_fast_path_matches_naive_oracle():
    # a larger register: the factorized form against the explicit contraction
    rng = np.random.default_rng(3)
    n = 40
    mu = _transient_matrix(n, rng)
    phi = rng.uniform(-1, 1, size=n)
    bits = tuple(rng.choice([1, -1], size=n))
    got = transient_energy_shift(GateDrive(tuple(phi)), RegisterLabel(bits), mu)
    assert got == pytest.approx(quadruple_sum_oracle(phi, bits, mu), rel=1e-12)


@settings(max_examples=25)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.2, 3.0))
def test_energy_shift_flip_and_drive_scaling(n, seed, scale):
    rng = np.random.default_rng(seed)
    mu = _transient_matrix(n, rng)
    phi = tuple(rng.uniform(-1, 1, size=n))
    bits = tuple(int(b) for b in rng.choice([1, -1], size=n))
    label = RegisterLabel(bits)
    base = transient_energy_shift(GateDrive(phi), label, mu)
    # quartic in the labels: global flip invariant
    assert transient_energy_shift(GateDrive(phi), label.flipped(), mu) == pytest.approx(
        base, rel=1e-12, abs=1e-15
    )
    # quadratic in a global drive rescale
    scaled = transient_energy_shift(GateDrive(tuple(scale * p for p in phi)), label, mu)
    assert scaled == pytest.approx(scale**2 * base, rel=1e-10, abs=1e-13)


def test_energy_shift_requires_transient_kind():
    b = bath()
    mu = coupling_matrix(b, [0.0, 1.0], CouplingKind.SPURIOUS)
    with pytest.raises(ValueError):
        transient_energy_shift(GateDrive.idle(2), RegisterLabel((1, 1)), mu)


def test_drive_enhancement():
    b = OhmicBath(coupling=4.0 * math.pi, cutoff=1.0)
    assert drive_enhancement(1, b) == pytest.approx(2.0, rel=1e-15)
    tiny = OhmicBath(coupling=1e-15, cutoff=1.0)
    assert drive_enhancement(100, tiny) == pytest.approx(1.0, abs=1e-10)
    b2 = bath()
    assert drive_enhancement(8, b2) - 1.0 == pytest.approx(
        2.0 * (drive_enhancement(4, b2) - 1.0), rel=1e-14
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: drive_enhancement(0, bath()), "register length must be >= 1"),
        (lambda: drive_enhancement(10, bath(coupling=1e300, cutoff=1e300)), "overflows"),
        (lambda: transient_energy_shift(GateDrive((1.0, 1.0)), RegisterLabel((1, 1, 1)),
                                        _transient_matrix(3)), "length mismatch"),
        (lambda: kernel_g(np.nan, Geometry.ONE_D), "no value at x = NaN"),
        (lambda: kernel_g([0.0, np.nan], Geometry.THREE_D), "no value at x = NaN"),
        (lambda: kernel_h(np.nan, Geometry.ONE_D), "no value at x = NaN"),
        (lambda: kernel_h([np.nan], Geometry.THREE_D), "no value at x = NaN"),
        # the drive sum squares past the float range
        (lambda: transient_energy_shift(GateDrive((1e200, 1e200)), RegisterLabel((1, 1)),
                                        _transient_matrix(2)), "level shift overflows"),
        # a length is a whole number of qubits: 2.5 and True gave a factor
        (lambda: drive_enhancement(2.5, bath()), "register length must be an integer"),
        (lambda: drive_enhancement(True, bath()), "register length must be an integer"),
        # an int length beyond the float range lies past the register's length bound
        (lambda: drive_enhancement(10**400, bath()), "register length must be <="),
        # a numpy length overflowed in numpy floats, with a RuntimeWarning
        (lambda: drive_enhancement(np.int64(10), bath(coupling=1e300, cutoff=1e300)),
         "drive enhancement overflows"),
        # inf warned from np.allclose and NaN read as asymmetric
        (lambda: CouplingMatrix(CouplingKind.SPURIOUS, np.array([[1.0, np.inf], [np.inf, 1.0]])),
         "entries must be finite"),
        (lambda: CouplingMatrix(CouplingKind.SPURIOUS, np.array([[np.nan, 0.0], [0.0, 1.0]])),
         "entries must be finite"),
    ],
    ids=["enhancement_no_qubits", "enhancement_overflows", "energy_shift_lengths",
         "kernel_g_nan_1d", "kernel_g_nan_3d", "kernel_h_nan_1d", "kernel_h_nan_3d",
         "energy_shift_overflows", "enhancement_fractional_length", "enhancement_bool_length",
         "enhancement_length_beyond_float_range", "enhancement_numpy_length_overflows",
         "matrix_inf_entry", "matrix_nan_entry"],
)
def test_coupling_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_drive_enhancement_takes_a_numpy_length():
    assert drive_enhancement(np.int64(8), bath()) == drive_enhancement(8, bath())
