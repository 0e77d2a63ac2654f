"""Reservoir spectra and synthesis of correlated Gaussian control noise.

The control circuit is modelled as an ohmic reservoir with spectral density
J(w) = coupling * w * exp(-w / cutoff).  In the classical (high-temperature)
limit the symmetrized power spectrum of the control-signal fluctuations is
S(w) = 2 * T * J(w) / w, which is finite at w = 0; its zero-frequency value
S(0) = 2 * T * coupling is what enters every dephasing rate.

Noise felt at two sites a distance r apart is correlated through the finite
propagation speed of reservoir excitations; the cross spectrum is the on-site
spectrum times a geometry kernel f(w r / v).

Noise is synthesized spectrally, by one path: R independent white sources
per frequency bin (:func:`draw_white`: each row's real parts, then its
imaginary parts), scaled per bin and mixed by one factor
(:func:`functional_factor`) so the discrete process has exactly the target
(cross-)spectrum on the grid, then inverse-FFT'd to the time domain.
Every topology's site kernel has one form, distance groups: the distinct
site distances d_g and each site pair's group, so the kernel in bin k is
f(w_k d_g / v) at the pairs of group g (:func:`_site_kernel`).  A uniform
topology and co-located sites are one group at distance 0 holding every
pair, an independent topology one holding the diagonal; there the factor is
one (P, R) matrix.  Separated sites, whose cross-spectrum varies with
frequency, get a per-bin factor and are mixed per bin (:func:`mix_per_bin`).
Natural units throughout: hbar = k_B = 1.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import enum
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Geometry",
    "OhmicBath",
    "TopologyKind",
    "NoiseTopology",
    "PsdEstimate",
    "spectral_density",
    "propagation_kernel_f",
    "cross_spectral_density",
    "classical_psd",
    "spatial_correlation_matrix",
    "SpectralSynthesizer",
    "draw_white",
    "mix_per_bin",
    "functional_factor",
    "trapezoid_phase_factor",
    "synthesize_trajectories",
    "trajectory_seed_sequence",
    "estimate_psd",
    "write_psd_csv",
]

# Relative tolerance for negative eigenvalues of a covariance matrix (the
# per-frequency spatial correlations, the integrated phase); anything below
# -EIG_CLAMP_TOL times the size of the terms it sums is a bug.
EIG_CLAMP_TOL = 1e-10
# Kernel values of separated sites held at a time: the per-bin covariance is
# built max(1, _KERNEL_VALUES // L^2) bins at a time.  It bounds the memory,
# not the result; it is not a setting.
_KERNEL_VALUES = 1 << 18


class Geometry(enum.Enum):
    """Reservoir dimensionality; fixes the spatial correlation kernels."""

    ONE_D = "1d"
    THREE_D = "3d"


@dataclass(frozen=True)
class OhmicBath:
    """Ohmic reservoir parameters.

    Parameters
    ----------
    coupling:
        Strength prefactor of the spectral density (dimensionless * time).
    cutoff:
        Exponential cutoff angular frequency, > 0.
    temperature:
        Reservoir temperature in energy units (k_B = 1), >= 0.  Zero is
        allowed for the quantum (quadrature) coupling coefficients but not
        for classical noise sampling.
    geometry:
        Spatial model used for inter-site correlations.
    velocity:
        Propagation speed of reservoir excitations, > 0.
    """

    coupling: float
    cutoff: float
    temperature: float = 0.0
    geometry: Geometry = Geometry.ONE_D
    velocity: float = 1.0

    def __post_init__(self) -> None:
        for name in ("coupling", "cutoff", "temperature", "velocity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"non-finite {name}: {value}")
        if self.coupling <= 0:
            raise ValueError(f"coupling must be > 0, got {self.coupling}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.velocity <= 0:
            raise ValueError(f"velocity must be > 0, got {self.velocity}")
        if not isinstance(self.geometry, Geometry):
            object.__setattr__(self, "geometry", Geometry(self.geometry))


class TopologyKind(enum.Enum):
    UNIFORM = "uniform"
    INDEPENDENT = "independent"
    SPATIAL = "spatial"


@dataclass(frozen=True)
class NoiseTopology:
    """How the noise sources seen by different qubits are related.

    Uniform: one central source shared by everyone.  Independent: one
    statistically independent source per qubit.  Spatial: per-qubit sources
    correlated through the reservoir geometry; requires site coordinates.
    """

    kind: TopologyKind
    positions: tuple | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, TopologyKind):
            object.__setattr__(self, "kind", TopologyKind(self.kind))
        if self.kind is TopologyKind.SPATIAL:
            if self.positions is None or len(self.positions) == 0:
                raise ValueError("spatial topology requires site positions")
            object.__setattr__(
                self, "positions", tuple(tuple(np.atleast_1d(p)) for p in self.positions)
            )
        elif self.positions is not None:
            raise ValueError(f"{self.kind.value} topology takes no positions")

    @classmethod
    def uniform(cls) -> "NoiseTopology":
        return cls(TopologyKind.UNIFORM)

    @classmethod
    def independent(cls) -> "NoiseTopology":
        return cls(TopologyKind.INDEPENDENT)

    @classmethod
    def spatial(cls, positions: Sequence) -> "NoiseTopology":
        return cls(TopologyKind.SPATIAL, tuple(positions))


def _check_frequencies(omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if not np.all((w >= 0) & (w < np.inf)):  # NaN fails both
        raise ValueError("frequencies must be finite and >= 0")
    return w


def _scalar_like(value: np.ndarray, reference) -> float | np.ndarray:
    return float(value) if np.isscalar(reference) or np.ndim(reference) == 0 else value


def _finite(value, message: str, *args):
    """``value`` (a number or an array), or ValueError(message.format(*args)) if
    any entry is not finite; the message is formatted only when it is raised.

    The package's one float-range rule: a public function refuses its input
    through this check, after computing any overflow-prone value under
    ``np.errstate``, rather than return NaN or infinity.
    """
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)):
        raise ValueError(message.format(*args))
    return value


def spectral_density(bath: OhmicBath, omega) -> float | np.ndarray:
    """Ohmic spectral density J(w) = coupling * w * exp(-w / cutoff).

    Here and in the other spectra, every frequency must be finite and >= 0.
    """
    w = _check_frequencies(omega)
    return _scalar_like(bath.coupling * w * np.exp(-w / bath.cutoff), omega)


def propagation_kernel_f(x, geometry: Geometry) -> float | np.ndarray:
    """Cross-spectrum kernel f(x): cos(x) in 1D, sin(x)/x in 3D.

    x = w r / v is the phase a reservoir excitation accumulates travelling
    between the two sites.  f(0) = 1 and |f| <= 1 in both geometries; the
    3D kernel is evaluated by its limits, 1 at x = 0 and 0 at x = +-inf.
    NaN is refused (:func:`_finite`), and so is x = +-inf in 1D, where cos
    has no limit.
    """
    xv = np.asarray(x, dtype=float)
    if Geometry(geometry) is Geometry.ONE_D:
        out = np.cos(_finite(xv, "kernel f(x) = cos(x) has no value at x = NaN or +-inf"))
    elif np.isfinite(xv).all():
        out = np.sinc(xv / np.pi)
    else:  # sin(x) / x tends to 0 at +-inf
        far = np.isinf(xv)
        near = _finite(np.where(far, 0.0, xv), "kernel f(x) has no value at x = NaN")
        out = np.where(far, 0.0, np.sinc(near / np.pi))
    return _scalar_like(out, x)


def _site_pair_kernel(bath: OhmicBath, w: np.ndarray, r) -> np.ndarray:
    """f(w r / v) in the bath's geometry, for checked frequencies and distances.

    A phase w r / v beyond the float range is refused (:func:`_finite`): f
    has no value there.
    """
    with np.errstate(over="ignore"):  # refused below
        x = w * r / bath.velocity
    message = "phase w r / v overflows the float range: check the site distances"
    return propagation_kernel_f(_finite(x, message), bath.geometry)


def cross_spectral_density(bath: OhmicBath, omega, r: float) -> float | np.ndarray:
    """Cross-spectral density between sites a distance r apart.

    Reduces to the on-site spectral density at r = 0 and, for any r, in the
    low-frequency limit.  A distance that is not finite and >= 0, or a phase
    w r / v beyond the float range, is refused.
    """
    if not 0 <= r < math.inf:  # NaN included
        raise ValueError(f"distance must be finite and >= 0, got {r}")
    w = _check_frequencies(omega)
    kernel = _site_pair_kernel(bath, w, r)
    return _scalar_like(kernel * bath.coupling * w * np.exp(-w / bath.cutoff), omega)


def classical_psd(bath: OhmicBath, omega) -> float | np.ndarray:
    """Classical (high-temperature) symmetrized noise power spectrum.

    S(w) = 2 T J(w) / w = 2 T coupling exp(-w / cutoff), continuous at w = 0
    where it equals 2 T coupling.  This is the spectrum sampled by the
    Monte-Carlo engine; it is undefined at T = 0, where the quantum coupling
    coefficients must be obtained by quadrature instead.
    """
    if bath.temperature <= 0:
        raise ValueError(
            "classical power spectrum requires temperature > 0; "
            "use the quadrature coupling coefficients at T = 0"
        )
    w = _check_frequencies(omega)
    out = 2.0 * bath.temperature * bath.coupling * np.exp(-w / bath.cutoff)
    return _scalar_like(out, omega)


def _distance_matrix(positions: Sequence) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(positions) == 1:
        pts = pts.T  # list of scalar coordinates
    diff = pts[:, None, :] - pts[None, :, :]
    if pts.shape[1] == 1:
        return np.abs(diff[..., 0])  # exact, where the squares would overflow
    return np.sqrt((diff**2).sum(axis=-1))


def _site_distances(positions: Sequence) -> np.ndarray:
    """The distance matrix of the sites; a non-finite distance is refused."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        r = _distance_matrix(positions)
    return _finite(r, "non-finite noise covariance: check the site positions")


def spatial_correlation_matrix(bath: OhmicBath, positions: Sequence, omega) -> np.ndarray:
    """Per-frequency matrix of kernels f(w r_jk / v); symmetric PSD, unit diagonal.

    ``omega`` is one frequency, or an array of shape (n, 1, 1) for a stack of
    n matrices.  A phase w r / v beyond the float range is refused.
    """
    w = _check_frequencies(omega)
    return _site_pair_kernel(bath, w, _site_distances(positions))


def _check_grid(dt: float, n_steps: int) -> None:
    """The time grid rule: a finite step dt > 0 and a power-of-two step count."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if n_steps < 2 or n_steps & (n_steps - 1):
        raise ValueError(f"n_steps must be a power of two >= 2, got {n_steps}")


def _spectral_grid(bath: OhmicBath, dt: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin frequencies of the rfft grid and the per-bin amplitude variance.

    E|Z_k|^2 = n_steps * S(w_k) / dt reproduces the target spectrum through
    the inverse DFT.  The grid must resolve the cutoff: dt * cutoff <= 0.5.
    """
    _check_grid(dt, n_steps)
    if dt * bath.cutoff > 0.5 + 1e-12:
        raise ValueError(
            f"grid too coarse: dt * cutoff = {dt * bath.cutoff:.3g} > 0.5; "
            "decrease dt to resolve the spectral cutoff"
        )
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_steps, d=dt)
    return omega, n_steps * classical_psd(bath, omega) / dt


def _site_kernel(topology: NoiseTopology, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Distance groups of the site kernel K_k[j, l] = f(w_k d[g[j, l]] / v).

    Returns the distinct site distances d, ascending (G,), and the (L, L)
    group index g of each site pair, -1 for a pair with independent noises
    (K = 0).  A uniform topology and co-located spatial sites are one group
    at distance 0 holding every pair (K all ones, f(0) = 1), an independent
    topology one holding the diagonal (K the identity).
    """
    if topology.kind is TopologyKind.INDEPENDENT:
        return np.zeros(1), np.eye(n_sites, dtype=int) - 1
    r = np.zeros((n_sites, n_sites))
    if topology.kind is TopologyKind.SPATIAL:
        if len(topology.positions) != n_sites:
            n = len(topology.positions)
            raise ValueError(f"spatial topology has {n} positions for {n_sites} sites")
        r = _site_distances(topology.positions)
    d = np.sort(r, axis=None)
    distances = d[np.diff(d, prepend=-1.0) > 0.0]
    return distances, np.searchsorted(distances, r)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count pairs of every OpenBLAS this process has loaded.

    The libraries are found by path in ``/proc/self/maps`` and bound through
    ``ctypes``, on first use.  Empty where there is no such file (macOS,
    Windows) or no OpenBLAS is loaded (numpy on MKL or Accelerate).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                fields[5].strip()
                for fields in (line.split(None, 5) for line in fh)
                if len(fields) == 6 and "openblas" in fields[5].lower()
            }
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in [
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ]:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


_blas_lock = threading.Lock()
_blas_pins = 0
_blas_saved: list[int] = []


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore the count it had.

    OpenBLAS's thread count is global to the process, so entries are counted
    under a lock: the first sets every loaded OpenBLAS to one thread and the
    last restores the counts the first found, whichever threads nest or
    overlap them.  A multi-threaded ``eigh`` rounds differently from a
    single-threaded one, and BLAS helper threads left spinning after a call
    take cores from the engine's own threads.  Does nothing where no OpenBLAS
    is found (see :func:`_openblas_thread_controls`).
    """
    global _blas_pins, _blas_saved
    controls = _openblas_thread_controls()
    with _blas_lock:
        if _blas_pins == 0:
            _blas_saved = [get() for get, _ in controls]
            for _, put in controls:
                put(1)
        _blas_pins += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins -= 1
            if _blas_pins == 0:
                for (_, put), count in zip(controls, _blas_saved):
                    put(count)


def _psd_eigh(cov: np.ndarray, what: str, omega=None, scale=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of symmetric PSD matrices, round-off negatives set to 0.

    ``cov`` is one matrix or a stack of them (one per bin of ``omega``).
    Round-off is measured against ``scale``, the size of the terms each
    matrix sums (one per bin of a stack), by default against the matrix's
    own largest eigenvalue; where the terms cancel, a matrix holds only
    round-off and its own largest eigenvalue may be negative.  The
    factorisation runs on one BLAS thread, so its bits do not depend on the
    process's BLAS thread count.
    """
    with _one_blas_thread():
        eigval, eigvec = np.linalg.eigh(cov)
    if scale is None:
        scale = np.maximum(eigval[..., -1], 0.0)
    floor = -EIG_CLAMP_TOL * np.asarray(scale)[..., None]
    bad = np.flatnonzero((eigval < floor).any(axis=-1))
    if bad.size:
        k = bad[0]
        where = "" if omega is None else f" at omega = {omega[k]:.3g}"
        raise ValueError(
            f"{what} is not positive semidefinite "
            f"(eigenvalue {np.atleast_2d(eigval)[k].min():.3e}{where})"
        )
    return np.clip(eigval, 0.0, None), eigvec


def functional_factor(
    bath: OhmicBath,
    topology: NoiseTopology,
    weights,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin amplitude (n_bins,) and factor F of P linear functionals of site noises.

    ``weights`` has shape (P, L): functional p is ``weights[p] @ noise`` over
    the L sites of ``topology``.  The covariance of the functionals' rfft
    amplitudes in bin k is scale_k^2 W K_k W^T, with K_k from the distance
    groups of ``_site_kernel`` and scale_k^2 from ``_spectral_grid``.  How F
    depends on frequency is carried by its shape:

    - where every group is at distance 0 (uniform and independent
      topologies, co-located spatial sites), K is the same in every bin, F
      has shape (P, R) with F F^T = W K W^T and ``amplitude`` is scale_k;
    - for separated spatial sites, F has shape (n_bins, P, R) with
      F_k F_k^T = scale_k^2 W K_k W^T, K_k built a block of bins at a time,
      and ``amplitude`` is 1.

    As |f| <= 1, no entry of W K_k W^T exceeds max_p (sum_j |W_pj|)^2;
    negative eigenvalues are round-off down to EIG_CLAMP_TOL times that (and
    scale_k^2), so a bin where the functionals' power cancels passes.
    Eigenvalues at or below EIG_CLAMP_TOL * lambda_max (of their bin) count as
    zero, and only the R directions that carry noise in some bin are kept;
    R = 0 means the functionals are noise free.  Each eigenvector, in every
    bin, is signed so that its largest-magnitude entry (the first of equal
    ones) is positive; near-equal eigenvalues may still rotate their pair.
    With ``white`` from :func:`draw_white` at ``amplitude``, ``F @ white``
    (or, per bin, :func:`mix_per_bin`) has the target covariance in every
    bin, so the functionals are drawn from R sources instead of L.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    omega, scale2 = _spectral_grid(bath, dt, n_steps)
    for value in (w, scale2):
        _finite(value, "non-finite noise covariance: check the bath and the weights for NaN "
                "or infinite values")
    distances, groups = _site_kernel(topology, w.shape[1])
    size = (np.abs(w).sum(axis=1) ** 2).max(initial=0.0)
    if not distances.any():
        amplitude = np.sqrt(scale2)
        kernel = (groups >= 0).astype(float)  # all ones or the identity
        eigval, eigvec = _psd_eigh(w @ kernel @ w.T, "spatial correlation matrix", scale=size)
    else:
        amplitude = np.ones(omega.size)
        cov = np.empty((omega.size, w.shape[0], w.shape[0]))
        rows = max(1, _KERNEL_VALUES // groups.size)
        for start in range(0, omega.size, rows):
            k = slice(start, start + rows)
            f = _site_pair_kernel(bath, omega[k, None], distances)
            cov[k] = scale2[k, None, None] * (w @ f[:, groups] @ w.T)  # spatial: no -1 pairs
        _finite(cov, "non-finite noise covariance: check the site positions")
        eigval, eigvec = _psd_eigh(cov, "spatial correlation matrix", omega, scale2 * size)
    eigval[eigval <= EIG_CLAMP_TOL * eigval[..., -1:]] = 0.0
    # one sign per eigenvector, whatever LAPACK returns: its largest entry is positive
    top = np.abs(eigvec).argmax(axis=-2)[..., None, :]
    eigvec *= np.sign(np.take_along_axis(eigvec, top, axis=-2))
    keep = np.atleast_2d(eigval > 0.0).any(axis=0)
    return amplitude, (eigvec * np.sqrt(eigval)[..., None, :])[..., keep]


def trapezoid_phase_factor(power, dt: float, report_idx) -> np.ndarray:
    """Factor B, shape (k, m - 1), of the law of a functional's integrated phase.

    ``power`` (n_bins,) is the per-bin power of one functional's rfft
    amplitudes (from :func:`functional_factor` with P = 1,
    amplitude_k^2 |F_k|^2 summed over its sources).  The functional x is
    then stationary and circulant on n_steps = 2 (n_bins - 1) points with
    autocovariance c = irfft(power) / n_steps, and its trapezoid integral
    phase_j = dt (x_0 + ... + x_j - (x_0 + x_j) / 2) is Gaussian.
    ``report_idx`` (m,) starts at 0, where the phase is exactly 0, and
    B^T B is the covariance of the phase at ``report_idx[1:]``, so
    ``standard_normal((nt, k)) @ B`` samples it exactly.

    Trapezoid increments of a stationary process are stationary, so
    Cov(phase_a, phase_b) = (V(a) + V(b) - V(|a - b|)) / 2 with
    V(n) = dt^2 (A(n) - 2 R(n) + (c_0 + c_n) / 2), R(n) = c_0 + ... + c_n and
    A(n) = sum_{i, j <= n} c_{i - j} = (n + 1) c_0 + 2 sum_{t=1..n} (n + 1 - t) c_t:
    O(n_steps + m^2) work and memory.  The covariance is factored with
    ``eigh``; round-off negatives down to -EIG_CLAMP_TOL * lambda_max count as
    zero and the k directions of positive variance are kept (k = 0: no noise).
    """
    power = np.asarray(power, dtype=float)
    n_steps = 2 * (power.size - 1)
    c = np.fft.irfft(power, n=n_steps) / n_steps
    r = np.cumsum(c)
    a = np.cumsum(2.0 * r - c[0])  # A(n) = A(n - 1) + 2 R(n) - c_0, A(0) = c_0
    v = dt**2 * (a - 2.0 * r + 0.5 * (c[0] + c))
    idx = np.asarray(report_idx)[1:]
    cov = 0.5 * (v[idx, None] + v[None, idx] - v[np.abs(idx[:, None] - idx[None, :])])
    eigval, eigvec = _psd_eigh(cov, "integrated phase covariance")
    keep = eigval > 0.0
    return (eigvec[:, keep] * np.sqrt(eigval[keep])).T


def draw_white(
    rng: np.random.Generator, nt: int, n_sources: int, amplitude: np.ndarray
) -> np.ndarray:
    """rfft amplitudes of nt rows of R independent white sources, scaled per bin:
    complex array (nt, R, n_bins).

    Bin k holds amplitude_k times a unit complex Gaussian, real at the DC and
    last bins.  The draw layout is part of the determinism contract of the
    Monte-Carlo engine: one ``standard_normal((nt, 2, R, n_bins))``, so each
    row (trajectory) draws the real parts of its (source, bin) amplitudes and
    then their imaginary parts.  A generator's normals in consecutive draws are
    those of one draw, so consecutive calls give the rows of one call.
    """
    re, im = np.moveaxis(rng.standard_normal((nt, 2, n_sources, amplitude.size)), 1, 0)
    half = amplitude / np.sqrt(2.0)
    white = np.empty(re.shape, dtype=complex)
    np.multiply(re, half, out=white.real)
    np.multiply(im, half, out=white.imag)
    white[:, :, 0] = re[:, :, 0] * amplitude[0]
    white[:, :, -1] = re[:, :, -1] * amplitude[-1]
    return white


def mix_per_bin(white: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """rfft amplitudes (nt, P, n_bins) of P functionals, sum_r F[k, p, r] white[:, r, k].

    ``factors`` (n_bins, P, R) is the per-bin factor :func:`functional_factor`
    gives for separated sites; where every distance group is at distance 0
    (uniform and independent topologies, co-located sites), the factor is
    one (P, R) matrix instead and the mix needs no per-bin loop.
    """
    nt, n_sources, n_bins = white.shape
    spec = np.empty((nt, factors.shape[1], n_bins), dtype=complex)
    for p in range(factors.shape[1]):
        np.multiply(white[:, 0], factors[:, p, 0], out=spec[:, p])
        for r in range(1, n_sources):
            spec[:, p] += white[:, r] * factors[:, p, r]
    return spec


class SpectralSynthesizer:
    """Reusable generator of noise bundles with a prescribed cross-spectrum.

    ``draw`` yields one bundle per call from the supplied random generator;
    ``draw_spectrum`` exposes the frequency-domain amplitudes (the rfft of the
    bundle).  ``n_sites`` is the number of rows L of a bundle, one per site.
    Uniform and independent topologies draw one or L white sources at the
    amplitude of one site's noise (the factor of one identity functional,
    :func:`functional_factor`); a spatial topology mixes its sources by the
    factor of the L identity functionals, per bin (:func:`mix_per_bin`)
    unless the sites are co-located (all distances zero).
    """

    def __init__(
        self,
        bath: OhmicBath,
        topology: NoiseTopology,
        n_sites: int,
        dt: float,
        n_steps: int,
    ) -> None:
        self.n_sites = int(n_sites)
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        self.n_steps = int(n_steps)
        self._uniform = topology.kind is TopologyKind.UNIFORM
        self._spatial = topology.kind is TopologyKind.SPATIAL
        eye = np.eye(self.n_sites if self._spatial else 1)
        self._amplitude, self._factor = functional_factor(bath, topology, eye, dt, n_steps)
        self._n_sources = self._factor.shape[-1] if self._spatial or self._uniform else self.n_sites

    def draw_spectrum(self, rng: np.random.Generator) -> np.ndarray:
        """One bundle in the frequency domain: complex array (L, n_bins).

        The inverse rfft of each row is one real trajectory.  The draw order
        is fixed, so a given generator state always yields the same bundle.
        """
        white = draw_white(rng, 1, self._n_sources, self._amplitude)
        if self._uniform:
            return np.broadcast_to(white[0, 0], (self.n_sites, self._amplitude.size))
        if not self._spatial:
            return white[0]
        if self._factor.ndim == 3:
            return mix_per_bin(white, self._factor)[0]
        return self._factor @ white[0]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One bundle in the time domain: real array (L, n_steps), read-only."""
        z = self.draw_spectrum(rng)
        if self._uniform:
            row = np.fft.irfft(z[0], n=self.n_steps)
            return np.broadcast_to(row, (self.n_sites, self.n_steps))
        samples = np.fft.irfft(z, n=self.n_steps)
        samples.setflags(write=False)
        return samples


def _check_integer(name: str, value: object) -> None:
    """A Python or numpy integer, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_seed(master_seed: object) -> None:
    """An integer in [0, 2^64): a float, bool or string would run as another seed."""
    _check_integer("master_seed", master_seed)
    if not 0 <= int(master_seed) < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")


def trajectory_seed_sequence(master_seed: int, index: int) -> np.random.SeedSequence:
    """Stream key for one trajectory bundle: hash of (master seed, index).

    Keying streams by index makes ensembles reproducible bit-exactly no
    matter how the work is scheduled across threads.  ``master_seed`` is an
    integer in [0, 2^64) and ``index`` an integer.
    """
    _check_seed(master_seed)
    _check_integer("index", index)
    return np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))


def synthesize_trajectories(
    bath: OhmicBath,
    topology: NoiseTopology,
    n_trajectories: int,
    dt: float,
    n_steps: int,
    seed: int,
) -> np.ndarray:
    """Synthesize one bundle of stationary zero-mean Gaussian noise trajectories.

    Returns a read-only array (L, n_steps): row j is the noise seen by qubit j
    at times 0, dt, ..., (n_steps - 1) dt.  The auto-spectrum of every
    trajectory matches ``classical_psd`` exactly on the discrete frequency
    grid, and for spatial topologies the cross-spectrum between sites j, k is
    the auto-spectrum times f(w r_jk / v).  A uniform topology returns L views
    of one shared trajectory.

    Parameters
    ----------
    n_trajectories:
        Number of rows L (must equal the number of sites for spatial
        topologies).
    dt, n_steps:
        Time grid; n_steps must be a power of two and dt * cutoff <= 0.5 so
        the exponential cutoff is resolved.
    seed:
        Integer in [0, 2^64); identical (seed, parameters) give identical
        bundles.
    """
    synth = SpectralSynthesizer(bath, topology, n_sites=n_trajectories, dt=dt, n_steps=n_steps)
    rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(seed, 0)))
    return synth.draw(rng)


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged-periodogram estimate of a power spectrum.

    ``psd`` estimates the symmetrized spectrum (the object ``classical_psd``
    returns), tabulated on the non-negative half of the frequency grid.  The
    total variance is (d_omega / 2 pi) * (psd[0] + 2 * sum(psd[1:])).
    """

    omega: np.ndarray
    psd: np.ndarray
    stderr: np.ndarray
    n_average: int


def estimate_psd(trajectories, dt: float) -> PsdEstimate:
    """Averaged periodogram of one or more equal-length trajectories.

    Accepts a single trajectory (1-D) or a stack with time along the last
    axis; all leading axes are flattened into the averaging ensemble.  The
    step ``dt`` must be finite and > 0, every sample finite, and the
    estimate and its error within the float range (:func:`_finite`).
    """
    x = np.asarray(trajectories, dtype=float)
    if x.ndim == 0:
        raise ValueError("need a trajectory, got a scalar")
    n = x.shape[-1]
    if n < 256:
        raise ValueError(f"trajectory too short for a PSD estimate: {n} < 256 samples")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    _finite(x, "trajectories must be finite")
    flat = x.reshape(-1, n)
    m = flat.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        periodograms = (dt / n) * np.abs(np.fft.rfft(flat, axis=-1)) ** 2
        psd = periodograms.mean(axis=0)
        if m > 1:
            stderr = periodograms.std(axis=0, ddof=1) / np.sqrt(m)
        else:
            stderr = psd.copy()  # single periodogram bins are ~100% uncertain
    for value in (psd, stderr):
        _finite(value, "power spectrum estimate overflows the float range")
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)
    return PsdEstimate(omega=omega, psd=psd, stderr=stderr, n_average=m)


def write_psd_csv(path, estimate: PsdEstimate, target: np.ndarray, header_lines: Sequence[str] = ()) -> None:
    """Write a PSD comparison table: columns (omega, S_target, S_estimated, stderr).

    ``target`` has one value per frequency of ``estimate``.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != estimate.psd.shape:
        raise ValueError(
            f"target has shape {target.shape}, the estimate {estimate.psd.shape}"
        )
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# n_average: {estimate.n_average}\n")
        writer = csv.writer(fh)
        writer.writerow(["omega", "S_target", "S_estimated", "stderr"])
        for w, st, se, err in zip(estimate.omega, target, estimate.psd, estimate.stderr):
            writer.writerow([repr(float(w)), repr(float(st)), repr(float(se)), repr(float(err))])
