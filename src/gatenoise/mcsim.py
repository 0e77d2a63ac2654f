"""Monte-Carlo stochastic-dephasing engine.

Independent oracle for the analytic rates in :mod:`gatenoise.rates`: for each
noise realization the phase difference accumulated between the two labels of
a coherence pair is the trapezoidal time integral of the noise it couples to,
and the coherence is estimated as the ensemble mean of exp(i * phase).  For noise
whose spectrum is flat over the decay bandwidth, |coherence| decays
exponentially at the analytic rate.  A scenario's noise sources, analytic
rate and default topology come from its architecture's record
(:data:`gatenoise.rates.ARCHITECTURES`).

The engines only simulate: they take any cutoff and read no rate law.  One
function judges: :func:`validate_against_analytic`.  A
:class:`ValidationScenario` names its engine (the linear coupling of
:func:`simulate_dephasing` or the quadratic bus coupler of
:func:`simulate_bus_full`), its grid and seed, and derives its reference
rate from its own architecture, pair, bath and engine, so a replaced field
moves the reference with it.  The verdict refuses a grid shorter than three
decay times of that rate and a cutoff under 20 times it (the flat-spectrum
limit, :class:`WhiteNoiseLimitError`) before any engine runs, then runs the
engine, fits the trace (:func:`fit_rate`) and returns the verdict with the
trace.  This module owns the grid bound: :class:`McConfig` refuses more than
2^20 steps (``_MAX_GRID_STEPS``), and the CLI reads the same constant.  The CLI's
``mc`` writes that trace and fit and its ``validate`` the verdicts, and
:func:`mc_bus_scaling` runs one quadratic scenario per register length.

Noise is drawn only for what the phase reads.  The engine projects the site
cross-spectrum onto the one (linear coupling) or two (quadratic bus coupler)
linear functionals of the site noises it integrates and factors the
covariance of those functionals (:func:`gatenoise.noise.functional_factor`)
over the distance groups of the site kernel (the distinct site distances
and the masks of the site pairs at each): once, with a per-bin amplitude,
where every group is at distance 0 (uniform and independent topologies,
co-located sites), and per bin, one block of bins at a time, for separated
sites.  A linear combination of circular complex Gaussian amplitudes is
again one, so this is exact in distribution for every topology.  Under a
linear coupling the phase is a linear functional of Gaussian noise and so
Gaussian itself: its covariance at the report points
follows in closed form from the functional's power spectrum and is factored
once per run (:func:`gatenoise.noise.trapezoid_phase_factor`), and each
trajectory draws its report-point phases directly, with no time series,
inverse FFT or integration.  The quadratic bus coupler (:func:`simulate_bus_full`) is not
Gaussian in the noise: it draws R <= 2 white sources per bin
(:func:`gatenoise.noise.draw_white`) and builds its phase rate in
time, one row block of a chunk at a time.
Where the factor is one matrix G (every distance group at distance 0:
uniform, independent and co-located spatial topologies) the two functionals
(a, b) are G x, so only the R scaled sources x are inverse-FFT'd and the
rate is the quadratic form x^T Q x + q^T x; separated sites mix (a, b) per bin
(:func:`gatenoise.noise.mix_per_bin`) and inverse-FFT both.  Either way the
phase at the report points is the trapezoid rule assembled from sums of the
rate over the segments between report points, not integrated over the whole
grid.

Determinism contract: trajectories are processed in fixed chunks of 512;
chunk c (trajectories 512 c to 512 c + 511) draws all of its noise from one
stream keyed by (master_seed, c), in a fixed layout in which each
trajectory's normals are consecutive.  Linear coupling: one
``standard_normal((nt, k))`` for the k directions of the phase factor B, and
the phase at the report points is [0, xi @ B].  Bus coupler: one
``standard_normal((rows, 2, R, n_bins))`` per row block, so each trajectory
draws the real parts of its (source, bin) amplitudes and then their
imaginary parts.  A row block holds about 2^15 samples of the time series
the engine transforms (``_BLOCK_SAMPLES``) and is transformed and
integrated into the chunk's phase array before the next is drawn.
Consecutive draws give the normals of one draw and every step after the
draw is row-local, so the row-block height changes neither the draws nor a
byte of the result; it bounds the memory to one buffer per chunk, the
complex exp(i phase) array whose halves hold the phase and the linear
engine's normals, plus one row block.  Within a chunk, the sums over
trajectories are numpy reductions whose order is fixed by the chunk's
shape and memory layout; chunks are merged in chunk order.  Every
covariance factorisation runs on one BLAS thread, and with ``jobs`` > 1 so
does BLAS inside the
engine threads; every factor's columns (B and the noise factor) are signed
by the one rule of :func:`gatenoise.noise._psd_factor`, so they do not
depend on the signs the eigensolver returns.  Results are bit-identical for a given configuration at any
``jobs`` and, wherever the process's OpenBLAS is found
(:func:`gatenoise.noise._one_blas_thread`), at any OpenBLAS thread count.

Error bars: the estimator's layout is fixed.  Trajectories run in chunks of
512, are split by index into 50 blocks and are reported at 257 points of the
grid (every point of a shorter grid).  Under a linear coupling the normals
xi are drawn into the first half of the chunk's exp(i phase) buffer and one
``matmul`` writes xi @ B straight into the phase array, its second half.
Each chunk is reduced, as soon as it is drawn, to its sum of exp(i phase),
the centred second moments of its real and imaginary parts and its partial
sums over the blocks.  exp(i phase) overwrites the phase and the normals,
128 rows at a time, from a float32 copy of each block: cos and sin run in
float32 into the complex128 array, and everything after is float64.  The
cast moves a phase by at most 2^-24 |phi| and float32 cos/sin are within a
few float32 ulp, so each sample, and every mean of them, moves by at most
about 6e-8 |phi| + 3e-7 (``_EXP_ROWS``).  Results stay bit-identical at any
``jobs`` on one host, but their last bits also depend on the float32 loops
numpy dispatches to for the host's CPU.  The reduction works on the chunk
in place (sums first, then centring and one ``einsum`` per second moment)
in the summation order a centred copy would have, so no chunk is copied.
The chunks are
merged in chunk order with the pairwise update of Chan, Golub & LeVeque
(1983), so memory does not grow with the number of trajectories.  Per-point
standard errors of |coherence| follow from the moments by the delta method
(the variance of the trajectories' projection on the direction of the mean).
A fitted rate has one standard error, the delete-one-block jackknife of its
weighted slope over the block sums, which is insensitive to the strong
correlation of the trace across time points.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .noise import (
    NoiseTopology,
    OhmicBath,
    _check_grid,
    _check_integer,
    _check_seed,
    _one_blas_thread,
    draw_white,
    functional_factor,
    mix_per_bin,
    trajectory_seed_sequence,
    trapezoid_phase_factor,
)
from .rates import (
    ARCHITECTURES,
    ArchKind,
    ArchitectureModel,
    rate_fsa_independent,
    worst_case_pair,
)
from .register import (
    CoherencePair,
    GateDrive,
    _check_length,
    label_with_total_spin,
)

__all__ = [
    "DEFAULT_MASTER_SEED",
    "WHITE_NOISE_CUTOFF_RATIO",
    "McConfig",
    "CoherenceTrace",
    "RateEstimate",
    "ValidationScenario",
    "ValidationReport",
    "WhiteNoiseLimitError",
    "FitWindowError",
    "simulate_dephasing",
    "simulate_bus_full",
    "fit_rate",
    "validate_against_analytic",
    "make_validation_scenario",
    "default_validation_suite",
    "mc_bus_scaling",
    "grid_points",
]

DEFAULT_MASTER_SEED = 20260810

# A verdict needs cutoff >= this multiple of its reference rate, otherwise the
# flat-spectrum assumption behind the rate formulas fails.
WHITE_NOISE_CUTOFF_RATIO = 20.0
# The quadratic bus coupler's linear-response rate is this share of the bus
# rate law: the coupler's cross term carries a factor 1/4 on each side.
_COUPLER_SHARE = 1.0 / 16.0
_MIN_DECAY_SPANS = 3.0
# Relative slack of a time compared with a fit-window edge or a required
# duration: a report time that equals an edge up to round-off is inside it.
_TIME_RTOL = 1e-9


class WhiteNoiseLimitError(ValueError):
    """Scenario violates the flat-spectrum (cutoff >> rate) requirement of its verdict."""


class FitWindowError(ValueError):
    """No usable trace points in the requested fit window."""


def _check_fit_window(fit_window: Sequence[float]) -> tuple[float, float]:
    """A window of two edges 0 <= lo < hi with a finite upper edge, as two floats."""
    if not (len(fit_window) == 2 and math.isfinite(fit_window[1])
            and 0 <= fit_window[0] < fit_window[1]):
        raise ValueError(f"invalid fit window {fit_window}")
    return float(fit_window[0]), float(fit_window[1])


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run settings.

    ``fit_window`` is expressed in units of 1 / (analytic rate guess) and is
    converted to absolute times by the validation harness; it is held as a
    tuple of two floats, so a config built from a list hashes.  The integration
    grid is (n_steps, dt), n_steps a power of two of at most 2^20
    (``_MAX_GRID_STEPS``), and n_trajectories is an integer in [100, 2^53].
    The trace is reported at 257 of its points and the trajectories are
    reduced in 512-row chunks and 50 blocks, a fixed layout that no setting
    changes.
    """

    dt: float
    n_steps: int
    n_trajectories: int = 10_000
    master_seed: int = DEFAULT_MASTER_SEED
    fit_window: tuple[float, float] = (0.5, 2.0)

    def __post_init__(self) -> None:
        # the block bounds are float64 (np.linspace), which ends exactly at the
        # count only up to 2^53
        _check_integer("n_trajectories", self.n_trajectories, 100, 2**53)
        _check_seed(self.master_seed)
        _check_integer("n_steps", self.n_steps, hi=_MAX_GRID_STEPS)
        _check_grid(self.dt, self.n_steps)
        object.__setattr__(self, "fit_window", _check_fit_window(self.fit_window))

    @property
    def duration(self) -> float:
        return (self.n_steps - 1) * self.dt

    def absolute_fit_window(self, gamma: float) -> tuple[float, float]:
        """``fit_window`` in times: units of 1/gamma, or 5%-95% of the run if gamma is 0."""
        if gamma > 0:
            return (self.fit_window[0] / gamma, self.fit_window[1] / gamma)
        return (0.05 * self.duration, 0.95 * self.duration)


@dataclass(frozen=True)
class CoherenceTrace:
    """|<exp(i phase)>| and its phase vs time, with delta-method standard errors.

    ``stderr`` is the standard error of ``abs_coherence`` from the streamed
    second moments of exp(i phase).  ``block_sums`` (50, points) holds the
    partial sums of exp(i phase) over the 50 trajectory blocks (by index) and
    ``block_counts`` their sizes; they feed the delete-one-block jackknife,
    the one standard error of a rate in :func:`fit_rate`.
    """

    times: np.ndarray
    abs_coherence: np.ndarray
    arg_coherence: np.ndarray
    stderr: np.ndarray
    n_samples: int
    block_sums: np.ndarray
    block_counts: np.ndarray


@dataclass(frozen=True)
class RateEstimate:
    gamma_hat: float
    stderr_gamma: float
    r_squared: float
    n_points: int


# Time steps of a run's grid, which McConfig bounds: a scenario's is set by its
# cutoff ratio and the upper end of its fit window (the default suite uses 1024
# steps, the bus scan 8192), and the CLI refuses a larger one before any work.
_MAX_GRID_STEPS = 2**20
# Trajectories per chunk: chunk c covers trajectories [c * _CHUNK, (c + 1) * _CHUNK)
# and draws from one stream keyed by (master_seed, c).  The chunking is fixed,
# so neither the streams nor the arithmetic depend on the number of threads.
_CHUNK = 512
# Samples of the bus engine's transformed time series per row block: a chunk
# is transformed and integrated max(1, _BLOCK_SAMPLES // (series per row *
# n_steps)) rows at a time.  Every step after the draw is row-local, so the
# block height changes no byte, only the memory; it is not a setting.  The
# chunk's complex exp(i phase) array (2 MiB) is held while the blocks run, so
# a block's series, spectrum and rate (about 1 MiB at 2^15 samples) stay
# under it.
_BLOCK_SAMPLES = 1 << 15
# Rows of a chunk's phase copied out and turned into exp(i phase) at a time:
# the phase lives inside the complex array it becomes (``_run_engine``).  The
# copy is float32, and cos/sin run in float32 (numpy's SIMD loops) into the
# complex128 z; everything after is float64.  Error bound: the cast moves a
# phase by at most 2^-24 |phi| and float32 cos/sin are within a few float32
# ulp, so each sample of exp(i phase), and so every mean over trajectories,
# moves by at most about 6e-8 |phi| + 3e-7.  The largest |phi| is 13.2 rad in
# the default suite and 13.0 rad in the bus scan.
_EXP_ROWS = 128
# Trajectory blocks of the rate's jackknife; n_trajectories >= 100 gives each
# block at least 2 rows.
_N_BLOCKS = 50
# Report points of a trace (all of a shorter grid); the linear engine factors
# the covariance of the phase at these points.
_N_REPORT = 257
# The bus scan's bath and gate drive amplitude (``mc_bus_scaling``).
_SCAN_BATH = OhmicBath(coupling=4e-4, cutoff=128.0, temperature=1.0)
_SCAN_AMPLITUDE = 20.0


def _report_indices(n_steps: int) -> np.ndarray:
    # strictly increasing on every power-of-two grid: exact integers up to 257
    # steps, rounded points about two steps apart above
    return np.round(np.linspace(0, n_steps - 1, min(_N_REPORT, n_steps))).astype(int)


def _quadratic_rate(x: np.ndarray, quad: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """x^T quad x + lin^T x at every (trajectory, time) of x (nt, R, n_steps).

    ``quad`` is symmetric (R, R); summed as sum_r x_r (quad_rr x_r +
    2 sum_{s > r} quad_rs x_s + lin_r), skipping zero cross terms.
    """
    rate = None
    for r in range(x.shape[1]):
        term = x[:, r] * quad[r, r]
        term += lin[r]
        for s in range(r + 1, x.shape[1]):
            if quad[r, s]:
                term += (2.0 * quad[r, s]) * x[:, s]
        term *= x[:, r]
        if rate is None:
            rate = term
        else:
            rate += term
    return rate


def _trapezoid_at(
    rate: np.ndarray, report_idx: np.ndarray, dt: float, phase: np.ndarray
) -> None:
    """Write into ``phase`` (nt, m) the trapezoid integral of ``rate`` (nt, n_steps)
    from 0 to each report index after the first.

    Column 0, the integral up to report index 0, is never written: it is the
    zero the phase arrives with.  The sums of the rate over
    [idx_m, idx_{m+1}), up to the last report index, accumulate to
    sum_{i < idx_{m+1}} rate_i; the end terms (rate_idx - rate_0) / 2
    complete the trapezoid rule.
    """
    segments = np.add.reduceat(rate[:, :report_idx[-1]], report_idx[:-1], axis=1)
    integral = np.cumsum(segments, axis=1, out=phase[:, 1:])
    integral += 0.5 * (rate[:, report_idx[1:]] - rate[:, :1])
    integral *= dt


def _chunk_moments(
    z: np.ndarray, start: int, bounds: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, int, np.ndarray]:
    """Streaming statistics of one chunk: rows z (nt, points) from trajectory ``start``.

    Returns the row count, the sum of z, the centred second moments of
    (Re z, Im z) stacked as (rr, ii, ri), the index of the first block of
    ``bounds`` the chunk overlaps and the chunk's partial sum for each block
    it overlaps (blocks may straddle chunks).  ``z`` is consumed: it is
    centred in place after its sums are taken, and each second moment is one
    ``einsum`` over its real and imaginary views, so the chunk is never copied.
    """
    nt = z.shape[0]
    total = z.sum(axis=0)
    first = int(np.searchsorted(bounds, start, side="right")) - 1
    last = int(np.searchsorted(bounds, start + nt, side="left"))
    cuts = np.maximum(bounds[first:last], start) - start
    partial = np.add.reduceat(z, cuts, axis=0)  # complex: real sums round differently
    z -= total / nt
    re, im = z.real, z.imag
    moments = np.empty((3, z.shape[1]))
    for row, (a, b) in zip(moments, [(re, re), (im, im), (re, im)]):
        np.einsum("ij,ij->j", a, b, out=row)
    return nt, total, moments, first, partial


# sample_phase(rng, phase, scratch): writes a chunk's phase (nt, points), which
# arrives zeroed, from column 1 on; column 0, the phase at t = 0, is never
# written.  ``scratch`` is nt * points float64 values, 1-D, that the sampler may
# use for anything it drops before it returns (the linear engine draws its
# normals there).  Both are halves of the chunk's exp(i phase) buffer and do
# not overlap.  An engine whose phase no noise reaches passes None instead,
# and ``_run_engine`` returns the exact noise-free trace without drawing.
PhaseSampler = Callable[[np.random.Generator, np.ndarray, np.ndarray], None]


def _run_engine(sample_phase: PhaseSampler | None, cfg: McConfig, jobs: int) -> CoherenceTrace:
    """Ensemble mean of exp(i phase) over ``cfg.n_trajectories`` trajectories.

    Each chunk allocates one buffer, its complex z = exp(i phase) (nt,
    points), of nt trajectories at the report points.  Its second half, as
    float64, is the chunk's phase (nt, points), zeroed, and its first half
    the sampler's scratch; ``sample_phase(rng, phase, scratch)`` writes
    columns 1 onwards from the chunk's generator and leaves column 0, the
    phase at t = 0, zero.  exp(i phase) is then formed in place, in
    ascending blocks of ``_EXP_ROWS`` rows, each block's phase copied out as
    float32 before its z rows are written; float32 cos and sin write
    straight into z's float64 halves, within about 6e-8 |phase| + 3e-7 of
    exp(i phase) (the bound at ``_EXP_ROWS``), the same bytes at any ``jobs``
    on one host.  Each chunk is reduced to its moments as
    soon as it is formed, so memory does not grow with the number of
    trajectories and each thread holds one chunk's z and one block.
    ``None`` means no noise reaches the phase, which then stays exactly zero
    (exp(i 0) = 1 + 0j): the accumulators start at their noise-free values
    (count n, every total n, zero second moments, block sums equal to the
    block counts) and no chunk runs, so no stream is opened and the trace
    (|C| = 1, arg 0, stderr 0) comes from the same tail as any other, the
    same bytes a sampler that writes zeros gives.  ``jobs`` is the number of
    engine threads, an integer >= 1.
    """
    _check_integer("jobs", jobs, lo=1)
    n = cfg.n_trajectories
    report_idx = _report_indices(cfg.n_steps)
    bounds = np.linspace(0, n, _N_BLOCKS + 1).astype(int)
    counts = np.diff(bounds)

    def work(chunk: int) -> tuple:
        start = chunk * _CHUNK
        nt, m = min(start + _CHUNK, n) - start, report_idx.size
        z = np.empty((nt, m), dtype=complex)
        # the phase is the second half of z's buffer and the scratch the first
        scratch, phase = np.split(z.reshape(-1).view(np.float64), 2)
        phase = phase.reshape(nt, m)
        phase.fill(0.0)
        seed = trajectory_seed_sequence(cfg.master_seed, chunk)
        sample_phase(np.random.Generator(np.random.PCG64(seed)), phase, scratch)
        # z rows [s, s + b) end at or below phase row s + b, so every phase row
        # is copied out before a z row overwrites it
        for s in range(0, nt, _EXP_ROWS):
            rows = slice(s, s + _EXP_ROWS)
            block = phase[rows].astype(np.float32)
            np.cos(block, out=z.real[rows])
            np.sin(block, out=z.imag[rows])
            del block  # before the next block is copied
        return _chunk_moments(z, start, bounds)

    # Merge in chunk order (Chan, Golub & LeVeque 1983 pairwise update); both
    # map and pool.map yield in that order, so the bytes do not depend on jobs.
    # Without a sampler no chunk runs and the sums start at their noise-free
    # values: every z is exactly 1, so the total is n and a block's sum its count.
    count = n if sample_phase is None else 0
    total = np.full(report_idx.size, count, dtype=complex)
    moments = np.zeros((3, report_idx.size))
    block_sums = np.outer(counts, total / n)  # all zero, or each block's count
    # With engine threads, BLAS runs on one thread inside each of them: its
    # helper threads would otherwise spin on the cores the pool needs.
    pinned = _one_blas_thread() if jobs > 1 else contextlib.nullcontext()
    with pinned, ThreadPoolExecutor(max_workers=jobs) as pool:
        chunks = range(0 if sample_phase is None else -(-n // _CHUNK))
        for nt, chunk_total, chunk_moments, first, partial in (
            pool.map(work, chunks) if jobs > 1 else map(work, chunks)
        ):
            if count:
                delta = chunk_total / nt - total / count
                weight = count * nt / (count + nt)
                moments[0] += weight * delta.real**2
                moments[1] += weight * delta.imag**2
                moments[2] += weight * delta.real * delta.imag
            moments += chunk_moments
            total += chunk_total
            count += nt
            block_sums[first:first + partial.shape[0]] += partial

    mean = total / n
    # Delta method: |mean| moves along u = mean / |mean| to first order.
    # A zero mean has no direction; u = 1 keeps the error finite there.
    abs_mean = np.abs(mean)
    u = np.divide(mean, abs_mean, out=np.ones_like(mean), where=abs_mean > 0)
    var = u.real**2 * moments[0] + u.imag**2 * moments[1] + 2.0 * u.real * u.imag * moments[2]
    var /= n - 1
    return CoherenceTrace(
        times=report_idx * cfg.dt,
        abs_coherence=abs_mean,
        arg_coherence=np.angle(mean),
        stderr=np.sqrt(np.maximum(var, 0.0) / n),  # rounding can dip below 0
        n_samples=n,
        block_sums=block_sums,
        block_counts=counts,
    )


def _check_reference_limits(cfg: McConfig, bath: OhmicBath, gamma: float) -> None:
    """Refuse a verdict that its reference rate ``gamma`` cannot judge: first a
    grid shorter than three decay times, then a cutoff under
    ``WHITE_NOISE_CUTOFF_RATIO`` times the rate (the flat-spectrum limit).  A
    zero rate has no decay time and no limit."""
    if gamma > 0 and cfg.duration < _MIN_DECAY_SPANS / gamma * (1.0 - _TIME_RTOL):
        raise ValueError(
            f"run too short: duration {cfg.duration:g} covers fewer than "
            f"{_MIN_DECAY_SPANS:g} decay times of the analytic rate {gamma:g}"
        )
    if gamma > 0 and bath.cutoff < WHITE_NOISE_CUTOFF_RATIO * gamma:
        raise WhiteNoiseLimitError(
            f"cutoff {bath.cutoff:g} < {WHITE_NOISE_CUTOFF_RATIO:g} x analytic rate "
            f"{gamma:g}: the flat-spectrum assumption behind the analytic rate "
            "fails; raise the cutoff or lower the coupling/temperature"
        )


def _check_scenario(arch: ArchitectureModel, pair: CoherencePair, topology: NoiseTopology) -> None:
    """Refuse a pair whose length is not the architecture's, an architecture
    with no noise sources, or a topology its record does not list: the noises
    it would sum are not those of its rate law."""
    if pair.n_qubits != arch.n_qubits:
        raise ValueError(
            f"pair length {pair.n_qubits} does not match architecture L = {arch.n_qubits}"
        )
    record = arch.record
    if record.sources is None:
        raise ValueError(
            f"Monte-Carlo dephasing supports switched-array and bus scenarios, "
            f"not {arch.kind.value}"
        )
    if topology.kind not in record.topologies:
        accepted = " or ".join(t.value for t in record.topologies)
        raise ValueError(f"{arch.kind.value} noise sources require the {accepted} topology")


def simulate_dephasing(
    arch: ArchitectureModel,
    pair: CoherencePair,
    bath: OhmicBath,
    topology: NoiseTopology,
    cfg: McConfig,
    jobs: int = 1,
) -> CoherenceTrace:
    """Monte-Carlo coherence decay of one density-matrix element.

    Per trajectory, the phase sum_s int_0^t noise_s * (Q_s - Q'_s) ds is the
    trapezoidal integral of the synthesized noise over the sources of
    ``topology`` that the architecture's record names (the central source,
    the gates or the bus sites); it is Gaussian, so it is drawn directly at
    the report points from its exact covariance
    (:func:`gatenoise.noise.trapezoid_phase_factor`).  The coherence is the
    ensemble mean of exp(i * phase).  Deterministic given ``cfg.master_seed``
    at any ``jobs``.  It only simulates: it reads no rate law and takes any
    cutoff; the flat-spectrum limit is the verdict's
    (:func:`validate_against_analytic`).
    """
    _check_scenario(arch, pair, topology)
    weights = arch.record.sources(pair, arch.drive)
    amplitude, mix = functional_factor(bath, topology, weights, cfg.dt, cfg.n_steps)
    report_idx = _report_indices(cfg.n_steps)
    power = amplitude**2 * (mix[..., 0, :] ** 2).sum(axis=-1)
    factor = trapezoid_phase_factor(power, cfg.dt, report_idx)

    def sample_phase(rng: np.random.Generator, phase: np.ndarray, scratch: np.ndarray) -> None:
        xi = scratch[:len(phase) * factor.shape[0]].reshape(len(phase), factor.shape[0])
        np.matmul(rng.standard_normal(out=xi), factor, out=phase[:, 1:])

    return _run_engine(sample_phase if factor.size else None, cfg, jobs)


def simulate_bus_full(
    drive: GateDrive,
    pair: CoherencePair,
    bath: OhmicBath,
    topology: NoiseTopology,
    cfg: McConfig,
    jobs: int = 1,
) -> CoherenceTrace:
    """Monte-Carlo coherence under the full quadratic shared-line coupler.

    Simulates the complete diagonal energy difference, including the
    noise-squared term that is present even with all gates idle; the returned
    complex coherence carries both the decay (abs) and the systematic drift
    (arg) of the quadratic term.  The linear-response decay rate of this
    coupler is 1/16 of the pointer-variable rate law (``_COUPLER_SHARE``),
    so this engine validates scaling shapes, not absolute prefactors.  It
    only simulates: it reads no rate law and takes any cutoff; a quadratic
    :class:`ValidationScenario` derives that rate and its verdict guards
    the flat-spectrum limit.

    The diagonal energy of label m is A_m^2 / 8 with
    A_m(t) = sum_j (phi_j + xi_j(t)) m_j, so with a = m . xi, b = m' . xi and
    c = m . phi, c' = m' . phi the phase rate, less its noise-free part, is
    (b^2 + 2 c' b - a^2 - 2 c a) / 8.  Each chunk draws R white sources x
    at the per-bin amplitude of :func:`gatenoise.noise.functional_factor`,
    in the module's fixed layout, one row block at a time: each trajectory's
    real parts, then its imaginary parts (:func:`gatenoise.noise.draw_white`).
    Each row block is drawn and transformed, its rate formed and integrated
    and its phase written into the chunk's phase array before the next is
    drawn; the block height (``_BLOCK_SAMPLES`` samples of the transformed
    series) bounds the memory and moves no byte of the result.

    Where the factor is one (2, R) matrix G (every distance group at
    distance 0: uniform, independent and co-located spatial topologies),
    (a, b) = G x: only the R series x are inverse-FFT'd and the rate is x^T Q x + q^T x with
    Q = (g' g'^T - g g^T) / 8 and q = (c' g' - c g) / 4 (g, g' the rows of
    G).  Separated sites mix (a, b) per bin and inverse-FFT both (G = I).
    The trapezoid phase at report index n_j is
    dt (sum_{i < n_j} rate_i + (rate_{n_j} - rate_0) / 2), the inner sums
    being running totals of the rate over the segments between consecutive
    report points.  It reads no architecture record and so takes any
    topology; a quadratic :class:`ValidationScenario` holds it to the bus's.
    """
    if pair.n_qubits != len(drive):
        raise ValueError(
            f"pair length {pair.n_qubits} does not match drive length {len(drive)}"
        )
    labels = np.array([pair.left.bits, pair.right.bits], dtype=float)
    amplitude, factor = functional_factor(bath, topology, labels, cfg.dt, cfg.n_steps)
    n_sources = factor.shape[-1]
    per_bin = factor.ndim == 3
    # separated sites: a and b are mixed per bin and transformed themselves
    mix = np.eye(2) if per_bin else factor
    const_left, const_right = labels @ np.asarray(drive.phi, dtype=float)
    # (b^2 + 2 c_R b - a^2 - 2 c_L a) / 8 with (a, b) = mix @ x
    quad = (np.outer(mix[1], mix[1]) - np.outer(mix[0], mix[0])) / 8.0
    lin = (const_right * mix[1] - const_left * mix[0]) / 4.0
    report_idx = _report_indices(cfg.n_steps)

    def sample_phase(rng: np.random.Generator, phase: np.ndarray, scratch: np.ndarray) -> None:
        # x holds mix.shape[1] series per trajectory: R sources, or (a, b)
        rows = max(1, _BLOCK_SAMPLES // (mix.shape[1] * cfg.n_steps))
        for start in range(0, len(phase), rows):
            block = phase[start:start + rows]
            spec = draw_white(rng, len(block), n_sources, amplitude)
            if per_bin:
                spec = mix_per_bin(spec, factor)
            x = np.fft.irfft(spec, n=cfg.n_steps)
            _trapezoid_at(_quadratic_rate(x, quad, lin), report_idx, cfg.dt, block)

    return _run_engine(sample_phase if n_sources else None, cfg, jobs)


def fit_rate(trace: CoherenceTrace, window: tuple[float, float]) -> RateEstimate:
    """Weighted least-squares decay rate from ln |coherence| inside a window.

    A report time within a relative 1e-9 of a window edge counts as inside,
    so the last bit of an edge decides nothing.  Points with |coherence| <=
    5 * stderr are dropped; at least 10 usable points are required.  The
    slope uses the per-point standard errors as weights (uniform ones when
    every error is 0).  Its standard error is the delete-one-block jackknife
    of that slope over the trace's block sums: the trace is strongly
    correlated across time, which a least-squares error formula would ignore.
    A noise-free trace gets 0, as its leave-one-block-out traces are exactly
    1.
    """
    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ValueError(f"invalid fit window {window}")
    lo, hi = t_lo - _TIME_RTOL * abs(t_lo), t_hi + _TIME_RTOL * abs(t_hi)
    mask = (trace.times >= lo) & (trace.times <= hi)
    mask &= trace.abs_coherence > 5.0 * trace.stderr  # stderr >= 0: |coherence| > 0
    n_points = int(mask.sum())
    if n_points < 10:
        raise FitWindowError(
            f"only {n_points} usable points in window [{t_lo:g}, {t_hi:g}]; "
            "need >= 10 with |coherence| above 5 standard errors"
        )
    t = trace.times[mask]
    y = np.log(trace.abs_coherence[mask])
    sigma = trace.stderr[mask] / trace.abs_coherence[mask]
    if np.any(sigma > 0):
        sigma = np.where(sigma == 0, sigma[sigma > 0].min(), sigma)
        weights = 1.0 / sigma**2
    else:
        weights = np.ones_like(t)
    w_sum = weights.sum()
    t_bar = (weights * t).sum() / w_sum
    s_tt = (weights * (t - t_bar) ** 2).sum()

    def weighted_slope(log_c: np.ndarray) -> float:
        return (weights * (t - t_bar) * (log_c - (weights * log_c).sum() / w_sum)).sum() / s_tt

    slope = weighted_slope(y)
    y_bar = (weights * y).sum() / w_sum
    residuals = y - (y_bar + slope * (t - t_bar))
    ss_res = (weights * residuals**2).sum()
    ss_tot = (weights * (y - y_bar) ** 2).sum()
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot

    total = trace.block_sums.sum(axis=0)[mask]
    loo = np.abs(total - trace.block_sums[:, mask])
    loo /= (trace.n_samples - trace.block_counts)[:, None]
    slopes = np.array([weighted_slope(np.log(np.maximum(row, 1e-300))) for row in loo])
    n_blocks = slopes.size
    stderr_gamma = math.sqrt((n_blocks - 1) / n_blocks * ((slopes - slopes.mean()) ** 2).sum())

    return RateEstimate(
        gamma_hat=float(-slope),
        stderr_gamma=float(stderr_gamma),
        r_squared=float(r_squared),
        n_points=n_points,
    )


@dataclass(frozen=True)
class ValidationScenario:
    """One named Monte-Carlo scenario; its analytic reference rate is derived.

    ``quadratic`` (keyword-only) names the engine: False runs the linear
    coupling of the architecture's record (:func:`simulate_dephasing`), True
    the full quadratic shared-line coupler of a bus's drive
    (:func:`simulate_bus_full`).  ``gamma_analytic`` is no field: it is
    computed once, when the scenario is built, from ``arch``, ``pair``,
    ``bath`` and ``quadratic`` (:func:`_reference_rate`), so a scenario
    whose fields are replaced (``dataclasses.replace`` builds it anew) is
    judged against their rate, and one with no rate (a bath at zero
    temperature) is refused when it is built.  Either way the pair must have
    the architecture's length and the topology must be one the
    architecture's record lists, the rules :func:`simulate_dephasing`
    applies.
    """

    name: str
    arch: ArchitectureModel
    pair: CoherencePair
    bath: OhmicBath
    topology: NoiseTopology
    cfg: McConfig
    quadratic: bool = dataclasses.field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        if self.quadratic and self.arch.record.default_drive is None:  # no gate drive
            raise ValueError(f"the quadratic coupler is a bus engine, not {self.arch.kind.value}")
        _check_scenario(self.arch, self.pair, self.topology)
        gamma = _reference_rate(self.arch, self.pair, self.bath, self.quadratic)
        object.__setattr__(self, "_gamma", gamma)

    @property
    def gamma_analytic(self) -> float:
        """The verdict's reference rate, derived from the scenario's own fields."""
        return self._gamma


def _reference_rate(
    arch: ArchitectureModel, pair: CoherencePair, bath: OhmicBath, quadratic: bool = False
) -> float:
    """The record's rate law, or for the quadratic coupler its share of the bus
    law (``_COUPLER_SHARE``); the rate is the same at any cutoff."""
    gamma = arch.record.rate(bath, pair, arch.drive).gamma
    return gamma * _COUPLER_SHARE if quadratic else gamma


@dataclass(frozen=True)
class ValidationReport:
    """The verdict on one scenario, with the trace it was fitted to.

    ``trace`` is the scenario's coherence trace; it is not one of the
    verdict's columns (:meth:`to_dict`).
    """

    scenario: str
    gamma_analytic: float
    gamma_hat: float
    stderr_gamma: float
    rel_err: float | None
    z_score: float
    passed: bool
    r_squared: float
    n_trajectories: int
    master_seed: int
    trace: CoherenceTrace = dataclasses.field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "gamma_analytic": self.gamma_analytic,
            "gamma_hat": self.gamma_hat,
            "stderr": self.stderr_gamma,
            "rel_err": self.rel_err,
            "z": self.z_score,
            "pass": self.passed,
            "r_squared": self.r_squared,
            "n_trajectories": self.n_trajectories,
            "master_seed": self.master_seed,
        }


def grid_points(cutoff_ratio: float, fit_window: tuple[float, float]) -> float:
    """Points a scenario's grid needs before ``n_steps`` rounds them up to a
    power of two (at least 16): steps of half an inverse cutoff, with the cutoff
    at ``cutoff_ratio`` times the rate, past three decay times and the fit window."""
    return 2.0 * cutoff_ratio * max(_MIN_DECAY_SPANS + 0.2, fit_window[1] * 1.15) + 1.0


def _grid_for_rate(
    gamma: float, cutoff: float, fit_window: tuple[float, float]
) -> tuple[float, int]:
    """(dt, n_steps): half an inverse cutoff, and ``grid_points`` at the ratio
    cutoff / gamma rounded up; a count past ``_MAX_GRID_STEPS``, infinite
    included, rounds to twice it, which :class:`McConfig` refuses."""
    points = min(grid_points(cutoff / gamma, fit_window), 2.0 * _MAX_GRID_STEPS)
    return 0.5 / cutoff, 1 << max(4, math.ceil(math.log2(points)))


def make_validation_scenario(
    kind: ArchKind,
    pair: CoherencePair,
    *,
    drive: GateDrive | None = None,
    coupling: float = 1.0,
    temperature: float = 1.0,
    cutoff_ratio: float = 128.0,
    n_trajectories: int = 20_000,
    master_seed: int = DEFAULT_MASTER_SEED,
    fit_window: tuple[float, float] = (0.5, 2.0),
    reference_rate: float | None = None,
    name: str | None = None,
) -> ValidationScenario:
    """Build a self-consistent scenario around a pair's analytic rate.

    The cutoff is set to ``cutoff_ratio`` times the analytic rate (safely in
    the white-noise regime) and the grid to resolve the cutoff while covering
    more than three decay times; the topology is the first one the
    architecture's record accepts, and a bus without a ``drive`` takes the
    record's default drive.  Decoherence-free pairs have no intrinsic
    scale, so they require an explicit ``reference_rate``.  ``master_seed``
    is an integer in [0, 2^64) and ``fit_window`` a window
    :class:`McConfig` accepts; both are checked before the grid is sized.
    """
    _check_seed(master_seed)
    fit_window = _check_fit_window(fit_window)
    kind = ArchKind(kind)
    n = pair.n_qubits
    if drive is None and ARCHITECTURES[kind].default_drive is not None:
        drive = ARCHITECTURES[kind].default_drive(n)
    arch = ArchitectureModel(kind, n, drive)
    probe_bath = OhmicBath(coupling=coupling, cutoff=1.0, temperature=temperature)
    if arch.record.sources is None:
        raise ValueError(f"no analytic Monte-Carlo scenario for {kind.value}")
    gamma = _reference_rate(arch, pair, probe_bath)  # the scenario's own, at any cutoff
    topology = NoiseTopology(arch.record.topologies[0])
    scale = gamma if gamma > 0 else reference_rate
    if not scale or scale <= 0:
        raise ValueError(
            "decoherence-free scenario needs a reference_rate to set its grid"
        )
    cutoff = cutoff_ratio * scale
    bath = dataclasses.replace(probe_bath, cutoff=cutoff)
    dt, n_steps = _grid_for_rate(scale, cutoff, fit_window)
    if name is None:
        name = f"{kind.value}_L{n}_{pair.left}_{pair.right}"
    # Mix the scenario name into the stream: scenarios with the same master
    # seed must not share dimensionless noise realizations.
    seed_seq = trajectory_seed_sequence(master_seed, zlib.crc32(name.encode()))
    scenario_seed = int(seed_seq.generate_state(1, dtype=np.uint64)[0])
    cfg = McConfig(
        dt=dt,
        n_steps=n_steps,
        n_trajectories=n_trajectories,
        master_seed=scenario_seed,
        fit_window=fit_window,
    )
    return ValidationScenario(name, arch, pair, bath, topology, cfg)


def validate_against_analytic(scenario: ValidationScenario, jobs: int = 1) -> ValidationReport:
    """Run one scenario and compare the fitted rate to its analytic value.

    The one Monte-Carlo path that judges, against the scenario's derived
    reference rate (:attr:`ValidationScenario.gamma_analytic`).  Before any
    engine runs it refuses a grid that covers fewer than three decay times and
    then a cutoff under 20 times the rate (:class:`WhiteNoiseLimitError`);
    the engines themselves only simulate.  The scenario's engine
    (:attr:`ValidationScenario.quadratic`) then runs, and :func:`fit_rate`
    fits its trace in the scenario's window.  PASS requires a relative error
    within 5% and a z-score within 3 (for decoherence-free scenarios, just
    the z-score criterion).
    """
    gamma = scenario.gamma_analytic
    cfg = scenario.cfg
    _check_reference_limits(cfg, scenario.bath, gamma)
    engine, subject = (
        (simulate_bus_full, scenario.arch.drive) if scenario.quadratic
        else (simulate_dephasing, scenario.arch)
    )
    trace = engine(subject, scenario.pair, scenario.bath, scenario.topology, cfg, jobs)
    est = fit_rate(trace, cfg.absolute_fit_window(gamma))
    deviation = est.gamma_hat - gamma
    if est.stderr_gamma > 0:
        z = deviation / est.stderr_gamma
    else:
        z = 0.0 if deviation == 0 else math.inf
    if gamma > 0:
        rel = deviation / gamma
        passed = abs(rel) <= 0.05 and abs(z) <= 3.0
    else:
        rel = None
        passed = abs(z) <= 3.0
    return ValidationReport(
        scenario=scenario.name,
        gamma_analytic=float(gamma),
        gamma_hat=float(est.gamma_hat),
        stderr_gamma=float(est.stderr_gamma),
        rel_err=None if rel is None else float(rel),
        z_score=float(z),
        passed=bool(passed),
        r_squared=float(est.r_squared),
        n_trajectories=cfg.n_trajectories,
        master_seed=cfg.master_seed,
        trace=trace,
    )


def default_validation_suite(
    master_seed: int = DEFAULT_MASTER_SEED,
    n_trajectories: int | None = None,
) -> list[ValidationScenario]:
    """The bundled validation suite.

    Six central-noise switched-array pairs across L <= 4 (quartic rate law),
    a Hamming-distance sweep at L = 6 (parabolic rate law, including the
    decoherence-free endpoints, whose grid is set by the sweep's peak rate),
    and one driven bus gate at L = 4 on the record's default drive (quadratic
    pointer law).  One row per scenario: its name, architecture, pair,
    default trajectory count and reference rate.
    """
    spin = label_with_total_spin
    peak = rate_fsa_independent(
        OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0),
        worst_case_pair(ArchKind.FSA_INDEPENDENT, 6),
    ).gamma
    rows = [
        *((f"fsa_uniform_L{n}_M{m}_Mp{mp}", ArchKind.FSA_UNIFORM,
           CoherencePair(spin(n, m), spin(n, mp)), 20_000, None)
          for n, m, mp in [(2, 2, 0), (3, 3, 1), (3, 3, -1), (4, 4, 2), (4, 4, 0), (4, 2, 0)]),
        # all up against the first nd qubits flipped
        *((f"fsa_independent_L6_Nd{nd}", ArchKind.FSA_INDEPENDENT,
           CoherencePair(spin(6, -6), spin(6, 2 * nd - 6)).flipped(), 10_000, peak)
          for nd in range(7)),
        ("bus_L4_active_gate", ArchKind.BUS, worst_case_pair(ArchKind.BUS, 4), 20_000, None),
    ]
    return [
        make_validation_scenario(
            kind, pair, n_trajectories=count if n_trajectories is None else n_trajectories,
            master_seed=master_seed, reference_rate=reference_rate, name=name,
        )
        for name, kind, pair, count, reference_rate in rows
    ]


def mc_bus_scaling(
    n_qubits_values: Sequence[int] = (2, 4, 8),
    *,
    n_trajectories: int = 4000,
    master_seed: int = DEFAULT_MASTER_SEED,
    jobs: int = 1,
) -> tuple[float, list[tuple[int, float]]]:
    """Fitted decay rates of the full shared-line coupler vs register length.

    Scans the canonical worst-case family (all-up label vs flipped first
    driven qubit, pointer difference growing linearly in L) and returns the
    log-log slope together with the per-L fitted rates; the slope checks the
    quadratic superdecoherence law of the driven bus, so at least two distinct
    lengths, none repeated, each an integer >= 2 (a two-qubit gate), are
    needed; they are checked before any run.  Each length is one quadratic
    :class:`ValidationScenario` run through :func:`validate_against_analytic`,
    on the module's uniform scan bath and gate amplitude (``_SCAN_BATH``,
    ``_SCAN_AMPLITUDE``), a grid set by the coupler's rate (1/16 of the bus
    rate law) and ``master_seed`` itself (no scenario-name mixing); its
    verdict is computed but not gated.
    """
    lengths = tuple(_check_length(n, lo=2) for n in n_qubits_values)
    if len(set(lengths)) < max(2, len(lengths)):
        raise ValueError(
            "need at least two distinct register lengths, none repeated, to fit an "
            f"exponent, got {lengths}"
        )
    fitted: list[tuple[int, float]] = []
    for n in lengths:
        drive = GateDrive.two_qubit_gate(n, 0, 1, _SCAN_AMPLITUDE)
        pair = worst_case_pair(ArchKind.BUS, n, drive)
        arch = ArchitectureModel(ArchKind.BUS, n, drive)
        gamma_eff = _reference_rate(arch, pair, _SCAN_BATH, quadratic=True)
        dt, n_steps = _grid_for_rate(gamma_eff, _SCAN_BATH.cutoff, (0.5, 2.0))
        cfg = McConfig(dt, n_steps, n_trajectories=n_trajectories, master_seed=master_seed)
        scenario = ValidationScenario(
            f"bus_scan_L{n}", arch, pair, _SCAN_BATH, NoiseTopology.uniform(), cfg, quadratic=True
        )
        fitted.append((n, validate_against_analytic(scenario, jobs).gamma_hat))
    log_l = np.log([n for n, _ in fitted])
    log_g = np.log([g for _, g in fitted])
    exponent = float(np.polyfit(log_l, log_g, 1)[0])
    return exponent, fitted


def __getattr__(name: str):
    # scipy stays off the import path: ``cumulative_trapezoid`` is resolved
    # here on first access, for callers that look it up on this module.
    if name == "cumulative_trapezoid":
        from scipy.integrate import cumulative_trapezoid

        return cumulative_trapezoid
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
