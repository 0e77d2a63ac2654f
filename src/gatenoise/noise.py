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
per frequency bin (:func:`draw_white`), scaled or mixed by per-bin factors
(:func:`mix_per_bin`) so the discrete process has exactly the target
(cross-)spectrum on the grid, then inverse-FFT'd to the time domain.
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
    "TrajectoryBundle",
    "PsdEstimate",
    "spectral_density",
    "propagation_kernel_f",
    "cross_spectral_density",
    "classical_psd",
    "spatial_correlation_matrix",
    "SpectralSynthesizer",
    "draw_white",
    "mix_per_bin",
    "functional_spectral_factors",
    "separable_functional_factor",
    "trapezoid_phase_factor",
    "synthesize_trajectories",
    "trajectory_seed_sequence",
    "estimate_psd",
    "write_psd_csv",
]

# Relative tolerance for negative eigenvalues of a covariance matrix (the
# per-frequency spatial correlations, the integrated phase); anything below
# -EIG_CLAMP_TOL * lambda_max is a bug.
EIG_CLAMP_TOL = 1e-10


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


@dataclass(frozen=True)
class TrajectoryBundle:
    """One realization of L correlated discrete-time noise trajectories.

    ``samples`` has shape (L, n_steps); row j is the noise seen by qubit j at
    times 0, dt, ..., (n_steps - 1) dt.  Immutable after creation.
    """

    dt: float
    n_steps: int
    samples: np.ndarray
    seed: int


def _check_frequencies(omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("frequencies must be >= 0")
    return w


def _scalar_like(value: np.ndarray, reference) -> float | np.ndarray:
    return float(value) if np.isscalar(reference) or np.ndim(reference) == 0 else value


def spectral_density(bath: OhmicBath, omega) -> float | np.ndarray:
    """Ohmic spectral density J(w) = coupling * w * exp(-w / cutoff)."""
    w = _check_frequencies(omega)
    return _scalar_like(bath.coupling * w * np.exp(-w / bath.cutoff), omega)


def propagation_kernel_f(x, geometry: Geometry) -> float | np.ndarray:
    """Cross-spectrum kernel f(x): cos(x) in 1D, sin(x)/x in 3D.

    x = w r / v is the phase a reservoir excitation accumulates travelling
    between the two sites.  f(0) = 1 and |f| <= 1 in both geometries; the
    3D kernel is evaluated by its limit at x = 0.
    """
    xv = np.asarray(x, dtype=float)
    if Geometry(geometry) is Geometry.ONE_D:
        out = np.cos(xv)
    else:
        out = np.sinc(xv / np.pi)
    return _scalar_like(out, x)


def cross_spectral_density(bath: OhmicBath, omega, r: float) -> float | np.ndarray:
    """Cross-spectral density between sites a distance r apart.

    Reduces to the on-site spectral density at r = 0 and, for any r, in the
    low-frequency limit.
    """
    if r < 0:
        raise ValueError(f"distance must be >= 0, got {r}")
    w = _check_frequencies(omega)
    kernel = propagation_kernel_f(w * r / bath.velocity, bath.geometry)
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


def spatial_correlation_matrix(bath: OhmicBath, positions: Sequence, omega: float) -> np.ndarray:
    """Per-frequency matrix of kernels f(w r_jk / v); symmetric PSD, unit diagonal."""
    r = _distance_matrix(positions)
    return propagation_kernel_f(omega * r / bath.velocity, bath.geometry)


def _validate_grid(bath: OhmicBath, dt: float, n_steps: int) -> None:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if n_steps < 2 or n_steps & (n_steps - 1):
        raise ValueError(f"n_steps must be a power of two >= 2, got {n_steps}")
    if dt * bath.cutoff > 0.5 + 1e-12:
        raise ValueError(
            f"grid too coarse: dt * cutoff = {dt * bath.cutoff:.3g} > 0.5; "
            "decrease dt to resolve the spectral cutoff"
        )


def _spectral_grid(bath: OhmicBath, dt: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin frequencies of the rfft grid and the per-bin amplitude variance.

    E|Z_k|^2 = n_steps * S(w_k) / dt reproduces the target spectrum through
    the inverse DFT.
    """
    _validate_grid(bath, dt, n_steps)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_steps, d=dt)
    return omega, n_steps * classical_psd(bath, omega) / dt


def _site_kernels(
    bath: OhmicBath, topology: NoiseTopology, n_sites: int, omega: np.ndarray
) -> np.ndarray:
    """Per-bin site correlation matrices K_k, shape (n_bins, L, L).

    All ones for a uniform topology, the identity for an independent one and
    f(w_k r_jk / v) for a spatial one.
    """
    shape = (omega.size, n_sites, n_sites)
    if topology.kind is TopologyKind.UNIFORM:
        return np.broadcast_to(np.ones((n_sites, n_sites)), shape)
    if topology.kind is TopologyKind.INDEPENDENT:
        return np.broadcast_to(np.eye(n_sites), shape)
    if len(topology.positions) != n_sites:
        raise ValueError(
            f"spatial topology has {len(topology.positions)} positions "
            f"for {n_sites} sites"
        )
    r = _distance_matrix(topology.positions)
    kernels = propagation_kernel_f(omega[:, None, None] * r / bath.velocity, bath.geometry)
    if not np.isfinite(kernels).all():
        raise ValueError("non-finite noise covariance: check the site positions")
    return kernels


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


def _psd_eigh(
    cov: np.ndarray, what: str, omega: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of symmetric PSD matrices, round-off negatives set to 0.

    ``cov`` is one matrix or a stack of them (one per bin of ``omega``).  The
    factorisation runs on one BLAS thread, so its bits do not depend on the
    process's BLAS thread count.
    """
    with _one_blas_thread():
        eigval, eigvec = np.linalg.eigh(cov)
    floor = -EIG_CLAMP_TOL * np.maximum(eigval[..., -1:], 0.0)
    bad = np.flatnonzero((eigval < floor).any(axis=-1))
    if bad.size:
        k = bad[0]
        where = "" if omega is None else f" at omega = {omega[k]:.3g}"
        raise ValueError(
            f"{what} is not positive semidefinite "
            f"(eigenvalue {np.atleast_2d(eigval)[k].min():.3e}{where})"
        )
    return np.clip(eigval, 0.0, None), eigvec


def _functional_terms(
    bath: OhmicBath, topology: NoiseTopology, weights, dt: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights (P, L), bin frequencies, amplitude variances scale_k^2 and site
    kernels K_k of P functionals of the site noises, checked finite (the
    kernels where ``_site_kernels`` builds them from positions)."""
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    omega, scale2 = _spectral_grid(bath, dt, n_steps)
    if not (np.isfinite(w).all() and np.isfinite(scale2).all()):
        raise ValueError(
            "non-finite noise covariance: check the bath and the weights for NaN or "
            "infinite values"
        )
    return w, omega, scale2, _site_kernels(bath, topology, w.shape[1], omega)


def functional_spectral_factors(
    bath: OhmicBath,
    topology: NoiseTopology,
    weights,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Per-bin factors of P linear functionals of the site noises.

    ``weights`` has shape (P, L): functional p is ``weights[p] @ noise`` over
    the L sites of ``topology``.  Returns F with shape (n_bins, P, R) and
    F_k F_k^T = scale_k^2 W K_k W^T, the covariance of the functionals' rfft
    amplitudes in bin k (see ``_site_kernels`` for K_k).  Eigenvalues at or
    below EIG_CLAMP_TOL * lambda_max of their bin count as zero, and only the
    R directions that carry noise in some bin are kept; R = 0 means the
    functionals are noise free.

    With unit complex Gaussian amplitudes ``white`` (real at the DC and last
    bins; :func:`draw_white` with unit amplitude), ``F_k @ white_k``
    (:func:`mix_per_bin`) has the target covariance in every bin, so the
    functionals are drawn from R sources instead of L.
    """
    w, omega, scale2, kernels = _functional_terms(bath, topology, weights, dt, n_steps)
    cov = scale2[:, None, None] * (w @ kernels @ w.T)
    eigval, eigvec = _psd_eigh(cov, "spatial correlation matrix", omega)
    eigval[eigval <= EIG_CLAMP_TOL * eigval[:, -1:]] = 0.0
    keep = (eigval > 0.0).any(axis=0)
    return (eigvec * np.sqrt(eigval)[:, None, :])[:, :, keep]


def separable_functional_factor(
    bath: OhmicBath,
    topology: NoiseTopology,
    weights,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Bin-independent form F_k = scale_k G of :func:`functional_spectral_factors`.

    When the site kernel K_k is the same array in every bin (uniform,
    independent and co-located spatial topologies; compared exactly), the
    functionals' covariance scale_k^2 W K W^T factors once: returns the
    per-bin amplitude scale (n_bins,) and G (P, R) with G G^T = W K W^T, under
    the same eigenvalue rule and so with the same R.  The P functionals are
    then G times R sources whose rfft amplitudes are scale_k * white_k, so
    they can be mixed in time after R inverse FFTs.  Returns None when K_k
    varies between bins (separated spatial sites).
    """
    w, _, scale2, kernels = _functional_terms(bath, topology, weights, dt, n_steps)
    if kernels.strides[0] and not (kernels == kernels[0]).all():  # stride 0: one array
        return None
    eigval, eigvec = _psd_eigh(w @ kernels[0] @ w.T, "spatial correlation matrix")
    eigval[eigval <= EIG_CLAMP_TOL * eigval[-1]] = 0.0
    keep = eigval > 0.0
    return np.sqrt(scale2), (eigvec * np.sqrt(eigval))[:, keep]


def trapezoid_phase_factor(power, dt: float, report_idx) -> np.ndarray:
    """Factor B, shape (k, m - 1), of the law of a functional's integrated phase.

    ``power`` (n_bins,) is the per-bin power |F_k|^2 of one functional's rfft
    amplitudes (:func:`functional_spectral_factors` with P = 1, summed over
    its sources).  The functional x is then stationary and circulant on
    n_steps = 2 (n_bins - 1) points with autocovariance
    c = irfft(power) / n_steps, and its trapezoid integral
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
    """rfft amplitudes (nt, R, n_bins) of R independent white sources, scaled per bin.

    Bin k holds amplitude_k times a unit complex Gaussian, real at the DC and
    last bins.  The draw order (all real parts, then all imaginary parts) is
    part of the determinism contract of the Monte-Carlo engine.
    """
    re = rng.standard_normal((nt, n_sources, amplitude.size))
    im = rng.standard_normal((nt, n_sources, amplitude.size))
    white = np.empty(re.shape, dtype=complex)
    half = amplitude / np.sqrt(2.0)
    np.multiply(re, half, out=white.real)
    np.multiply(im, half, out=white.imag)
    white[:, :, 0] = re[:, :, 0] * amplitude[0]
    white[:, :, -1] = re[:, :, -1] * amplitude[-1]
    return white


def mix_per_bin(white: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """rfft amplitudes (nt, P, n_bins) of P functionals, sum_r F[k, p, r] white[:, r, k].

    ``factors`` (n_bins, P, R) comes from :func:`functional_spectral_factors`.
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
    Uniform and independent topologies draw one or L white sources scaled
    per bin (:func:`draw_white`); a spatial topology mixes the per-bin
    factors of the L identity functionals (:func:`mix_per_bin`).
    """

    def __init__(
        self,
        bath: OhmicBath,
        topology: NoiseTopology,
        n_sites: int,
        dt: float,
        n_steps: int,
    ) -> None:
        self.omega, scale2 = _spectral_grid(bath, dt, n_steps)
        self.bath = bath
        self.topology = topology
        self.n_sites = int(n_sites)
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        self.dt = float(dt)
        self.n_steps = int(n_steps)
        self._uniform = topology.kind is TopologyKind.UNIFORM
        if topology.kind is TopologyKind.SPATIAL:
            eye = np.eye(self.n_sites)
            self._factors = functional_spectral_factors(bath, topology, eye, dt, n_steps)
            self._amplitude = np.ones(self.omega.size)  # the factors carry the scale
            self._n_sources = self._factors.shape[2]
        else:
            self._factors = None
            self._amplitude = np.sqrt(scale2)
            self._n_sources = 1 if self._uniform else self.n_sites

    def draw_spectrum(self, rng: np.random.Generator) -> np.ndarray:
        """One bundle in the frequency domain: complex array (L, n_bins).

        The inverse rfft of each row is one real trajectory.  The draw order
        is fixed, so a given generator state always yields the same bundle.
        """
        white = draw_white(rng, 1, self._n_sources, self._amplitude)
        if self._factors is not None:
            return mix_per_bin(white, self._factors)[0]
        if self._uniform:
            return np.broadcast_to(white[0, 0], (self.n_sites, self.omega.size))
        return white[0]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One bundle in the time domain: real array (L, n_steps), read-only."""
        z = self.draw_spectrum(rng)
        if self._uniform:
            row = np.fft.irfft(z[0], n=self.n_steps)
            return np.broadcast_to(row, (self.n_sites, self.n_steps))
        samples = np.fft.irfft(z, n=self.n_steps)
        samples.setflags(write=False)
        return samples


def trajectory_seed_sequence(master_seed: int, index: int) -> np.random.SeedSequence:
    """Stream key for one trajectory bundle: hash of (master seed, index).

    Keying streams by index makes ensembles reproducible bit-exactly no
    matter how the work is scheduled across threads.
    """
    if not 0 <= int(master_seed) < 2**64:
        raise ValueError("master seed must fit in an unsigned 64-bit integer")
    return np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))


def synthesize_trajectories(
    bath: OhmicBath,
    topology: NoiseTopology,
    n_trajectories: int,
    dt: float,
    n_steps: int,
    seed: int,
) -> TrajectoryBundle:
    """Synthesize one bundle of stationary zero-mean Gaussian noise trajectories.

    The auto-spectrum of every trajectory matches ``classical_psd`` exactly on
    the discrete frequency grid, and for spatial topologies the cross-spectrum
    between sites j, k is the auto-spectrum times f(w r_jk / v).  A uniform
    topology returns L views of one shared trajectory.

    Parameters
    ----------
    n_trajectories:
        Number of rows L (must equal the number of sites for spatial
        topologies).
    dt, n_steps:
        Time grid; n_steps must be a power of two and dt * cutoff <= 0.5 so
        the exponential cutoff is resolved.
    seed:
        Unsigned 64-bit seed; identical (seed, parameters) give identical
        bundles.
    """
    synth = SpectralSynthesizer(bath, topology, n_sites=n_trajectories, dt=dt, n_steps=n_steps)
    rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(seed, 0)))
    return TrajectoryBundle(dt=dt, n_steps=n_steps, samples=synth.draw(rng), seed=int(seed))


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
    axis; all leading axes are flattened into the averaging ensemble.
    """
    x = np.asarray(trajectories, dtype=float)
    if x.ndim == 0:
        raise ValueError("need a trajectory, got a scalar")
    n = x.shape[-1]
    if n < 256:
        raise ValueError(f"trajectory too short for a PSD estimate: {n} < 256 samples")
    flat = x.reshape(-1, n)
    periodograms = (dt / n) * np.abs(np.fft.rfft(flat, axis=-1)) ** 2
    psd = periodograms.mean(axis=0)
    m = flat.shape[0]
    if m > 1:
        stderr = periodograms.std(axis=0, ddof=1) / np.sqrt(m)
    else:
        stderr = psd.copy()  # single periodogram bins are ~100% uncertain
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)
    return PsdEstimate(omega=omega, psd=psd, stderr=stderr, n_average=m)


def write_psd_csv(path, estimate: PsdEstimate, target: np.ndarray, header_lines: Sequence[str] = ()) -> None:
    """Write a PSD comparison table: columns (omega, S_target, S_estimated, stderr)."""
    target = np.asarray(target, dtype=float)
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# n_average: {estimate.n_average}\n")
        writer = csv.writer(fh)
        writer.writerow(["omega", "S_target", "S_estimated", "stderr"])
        for w, st, se, err in zip(estimate.omega, target, estimate.psd, estimate.stderr):
            writer.writerow([repr(float(w)), repr(float(st)), repr(float(se)), repr(float(err))])
