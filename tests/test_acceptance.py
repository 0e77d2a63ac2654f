"""Acceptance gate.

One test per release criterion, each asserted at its stated tolerance and
runtime bound and reporting a single PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -v -s``).  Statistical criteria run at
fixed seeds, so the whole gate is deterministic.
"""
import json
import time

import numpy as np

from gatenoise.cli import main
from gatenoise.couplings import (
    spurious_coupling,
    spurious_coupling_quadrature,
    transient_coupling,
    transient_coupling_quadrature,
)
from gatenoise.mcsim import (
    make_validation_scenario,
    mc_bus_scaling,
    validate_against_analytic,
)
from gatenoise.noise import (
    Geometry,
    NoiseTopology,
    OhmicBath,
    SpectralSynthesizer,
    classical_psd,
    estimate_psd,
    synthesize_trajectories,
    trajectory_seed_sequence,
)
from gatenoise.rates import (
    ArchKind,
    NoiseKind,
    rate_fsa_independent,
    rate_fsa_independent_bruteforce,
    rate_fsa_uniform,
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
    total_spin,
)

SEED = 20260810


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def rel_close(a: float, b: float, tol: float) -> bool:
    if b == 0.0:
        return a == 0.0
    return abs(a - b) <= tol * abs(b)


def log_log_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


def test_criterion_01_closed_form_agreement():
    start = time.monotonic()
    bath = OhmicBath(coupling=0.7, cutoff=1.0, temperature=1.3)
    st = bath.coupling * bath.temperature
    checked = 0
    ok = True
    for n in range(1, 7):
        for pair in iter_coherence_pairs(n):
            m, mp = total_spin(pair.left), total_spin(pair.right)
            nd = hamming_distance(pair)
            ok &= rel_close(
                rate_fsa_uniform(bath, pair).gamma, st / 4.0 * (m * m - mp * mp) ** 2, 1e-12
            )
            ok &= rel_close(
                rate_fsa_independent(bath, pair).gamma, st / 16.0 * (n - nd) * nd, 1e-12
            )
            checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(
        1,
        "closed-form rates match their quartic/parabolic laws for every pair, L <= 6",
        ok,
        f"{checked} pairs, {elapsed:.2f}s",
    )


def test_criterion_02_bruteforce_pair_sum():
    start = time.monotonic()
    bath = OhmicBath(coupling=0.8, cutoff=1.0, temperature=2.5)
    ok = True
    checked = 0
    for n in range(1, 7):
        for pair in iter_coherence_pairs(n):
            nd = hamming_distance(pair)
            brute = rate_fsa_independent_bruteforce(bath, pair).gamma
            closed = rate_fsa_independent(bath, pair).gamma
            if 0 < nd < n:
                ok &= rel_close(brute, closed, 1e-12)
            else:
                ok &= brute == 0.0 == closed
            checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(
        2,
        "single-anchor-calibrated per-gate sum reproduces the closed form exactly, L <= 6",
        ok,
        f"{checked} pairs, {elapsed:.2f}s",
    )


def test_criterion_03_quadrature_vs_closed_forms():
    start = time.monotonic()
    ok = True
    worst = 0.0
    for geometry in Geometry:
        bath = OhmicBath(coupling=0.7, cutoff=1.3, geometry=geometry, velocity=0.9)
        sc_scale = abs(spurious_coupling(bath, 0.0))
        tr_scale = abs(transient_coupling(bath, 0.0))
        for x in np.logspace(-3, 2, 200):
            r = x * bath.velocity / bath.cutoff
            for closed_fn, quad_fn, scale in [
                (spurious_coupling, spurious_coupling_quadrature, sc_scale),
                (transient_coupling, transient_coupling_quadrature, tr_scale),
            ]:
                closed = closed_fn(bath, r)
                err = abs(quad_fn(bath, r) - closed)
                rel = err / max(abs(closed), 1e-12 * scale)
                worst = max(worst, rel)
                ok &= rel <= 1e-8
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(
        3,
        "coupling quadratures match closed forms to 1e-8 on 200 log-spaced arguments",
        ok,
        f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_mc_quartic_rate():
    start = time.monotonic()
    pair = CoherencePair(label_with_total_spin(3, 3), label_with_total_spin(3, 1))
    scenario = make_validation_scenario(
        ArchKind.FSA_UNIFORM, pair, n_trajectories=40_000, master_seed=SEED
    )
    assert scenario.gamma_analytic == 16.0
    assert scenario.bath.cutoff >= 20.0 * scenario.gamma_analytic
    rep = validate_against_analytic(scenario, jobs=1)
    elapsed = time.monotonic() - start
    ok = abs(rep.rel_err) <= 0.05 and elapsed < 300.0
    report(
        4,
        "Monte-Carlo rate for the central-noise register (analytic 16) within 5%",
        ok,
        f"gamma_hat {rep.gamma_hat:.3f}, rel {rep.rel_err:+.2%}, {elapsed:.1f}s single-threaded",
    )


def test_criterion_05_mc_hamming_sweep():
    start = time.monotonic()
    peak = rate_fsa_independent(
        OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0),
        CoherencePair(label_with_total_spin(6, 6), RegisterLabel((-1,) * 3 + (1,) * 3)),
    ).gamma
    fitted = {}
    ok = True
    details = []
    for nd in range(7):
        bits = tuple(-1 if j < nd else 1 for j in range(6))
        pair = CoherencePair(label_with_total_spin(6, 6), RegisterLabel(bits))
        scenario = make_validation_scenario(
            ArchKind.FSA_INDEPENDENT,
            pair,
            n_trajectories=20_000,
            master_seed=SEED,
            reference_rate=peak,
            name=f"sweep_Nd{nd}",
        )
        rep = validate_against_analytic(scenario, jobs=1)
        fitted[nd] = rep.gamma_hat
        analytic = (6 - nd) * nd / 16.0
        assert rep.gamma_analytic == analytic
        if analytic > 0:
            # each point within 5% or 3 sigma
            ok &= abs(rep.rel_err) <= 0.05 or abs(rep.z_score) <= 3.0
            details.append(f"Nd{nd}:{rep.gamma_hat:.4f}")
        else:
            ok &= abs(rep.z_score) <= 3.0
    # parabola shape with the peak at half-flipped labels
    interior = {nd: fitted[nd] for nd in range(1, 6)}
    ok &= max(interior, key=interior.get) == 3
    elapsed = time.monotonic() - start
    ok &= elapsed < 900.0
    report(
        5,
        "Monte-Carlo Hamming sweep at L=6 reproduces the parabola with peak at N_d=3",
        ok,
        f"{', '.join(details)}, {elapsed:.1f}s",
    )


def test_criterion_06_mc_bus_rate():
    start = time.monotonic()
    drive = GateDrive.two_qubit_gate(4, 0, 1)
    pair = worst_case_pair(ArchKind.BUS, 4, drive)
    scenario = make_validation_scenario(
        ArchKind.BUS, pair, drive=drive, n_trajectories=40_000, master_seed=SEED
    )
    assert scenario.gamma_analytic == 64.0  # tau T (Q - Q')^2 with Q - Q' = 8
    rep = validate_against_analytic(scenario, jobs=1)
    elapsed = time.monotonic() - start
    ok = abs(rep.rel_err) <= 0.05 and elapsed < 300.0
    report(
        6,
        "Monte-Carlo rate for one active bus gate at L=4 within 5% of the pointer law",
        ok,
        f"gamma_hat {rep.gamma_hat:.3f}, rel {rep.rel_err:+.2%}, {elapsed:.1f}s single-threaded",
    )


def test_criterion_07_superdecoherence_scaling():
    checks = []
    scan = scaling_scan(ArchKind.FSA_UNIFORM, NoiseKind.CENTRAL, [2, 4, 8, 16])
    exp_u = log_log_slope([p.n_qubits for p in scan], [p.relative_rate for p in scan])
    checks.append(("fsa_uniform 4.0", abs(exp_u - 4.0) <= 0.05))

    scan = scaling_scan(ArchKind.FSA_INDEPENDENT, NoiseKind.INDEPENDENT, [4, 8, 16, 32, 64])
    exp_i = log_log_slope([p.n_qubits for p in scan], [p.relative_rate for p in scan])
    checks.append(("fsa_independent 2.0", abs(exp_i - 2.0) <= 0.05))

    exp_bus, fitted = mc_bus_scaling(n_trajectories=4000, master_seed=SEED, jobs=1)
    checks.append(("bus MC 2.0+-0.2", abs(exp_bus - 2.0) <= 0.2))

    scan = scaling_scan(ArchKind.PROCESSOR_CORE, NoiseKind.CENTRAL, [2, 4, 8, 16])
    exp_cc = log_log_slope([p.n_qubits for p in scan], [p.relative_rate for p in scan])
    checks.append(("processor_core central 2.0", abs(exp_cc - 2.0) <= 0.05))

    scan = scaling_scan(ArchKind.PROCESSOR_CORE, NoiseKind.INDEPENDENT, [2, 4, 8, 16])
    exp_ci = log_log_slope([p.n_qubits for p in scan], [p.relative_rate for p in scan])
    checks.append(("processor_core independent 1.0", abs(exp_ci - 1.0) <= 0.05))

    cube = scaling_scan(ArchKind.HYPERCUBE, NoiseKind.INDEPENDENT, [2, 4, 8])
    checks.append(("hypercube {1,4,12}", [p.relative_rate for p in cube] == [1.0, 4.0, 12.0]))

    ok = all(passed for _, passed in checks)
    report(
        7,
        "superdecoherence scaling exponents per architecture",
        ok,
        f"uniform {exp_u:.3f}, independent {exp_i:.3f}, bus MC {exp_bus:.3f}, "
        f"core {exp_cc:.3f}/{exp_ci:.3f}, cube {[p.relative_rate for p in cube]}",
    )


def test_criterion_08_decoherence_free_pairs():
    start = time.monotonic()
    bath_probe = OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0)
    cases = []
    # globally mirrored total spins under central noise
    pair_u = CoherencePair(label_with_total_spin(3, 3), label_with_total_spin(3, -3))
    cases.append((ArchKind.FSA_UNIFORM, pair_u, rate_fsa_uniform(bath_probe, pair_u).gamma))
    # identical labels and fully flipped labels under per-gate noise
    same = CoherencePair.from_strings("++-", "++-")
    cases.append((ArchKind.FSA_INDEPENDENT, same, rate_fsa_independent(bath_probe, same).gamma))
    allflip = CoherencePair.from_strings("+++", "---")
    cases.append(
        (ArchKind.FSA_INDEPENDENT, allflip, rate_fsa_independent(bath_probe, allflip).gamma)
    )
    ok = all(gamma == 0.0 for _, _, gamma in cases)
    for kind, pair, _ in cases:
        for seed in range(20):
            scenario = make_validation_scenario(
                kind,
                pair,
                n_trajectories=300,
                master_seed=seed,
                reference_rate=4.0,
                name=f"free_{kind.value}_{pair.left}_{pair.right}",
            )
            rep = validate_against_analytic(scenario, jobs=1)
            ok &= rep.gamma_analytic == 0.0 and abs(rep.z_score) <= 3.0
    elapsed = time.monotonic() - start
    report(
        8,
        "decoherence-free pairs: zero analytic rate and no MC decay over 20 seeds",
        ok,
        f"3 pair classes x 20 seeds, {elapsed:.1f}s",
    )


def test_criterion_09_noise_synthesis_fidelity():
    start = time.monotonic()
    bath = OhmicBath(coupling=1.0, cutoff=8.0, temperature=1.0)
    dt, n_steps = 0.5 / 8.0, 512
    synth = SpectralSynthesizer(bath, NoiseTopology.independent(), 1, dt, n_steps)
    rows = []
    for i in range(1000):
        rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(SEED, i)))
        rows.append(synth.draw(rng)[0])
    est = estimate_psd(np.asarray(rows), dt)
    target = classical_psd(bath, est.omega)
    band = (est.omega >= bath.cutoff / 10.0) & (est.omega <= bath.cutoff)
    max_dev = float(np.max(np.abs(est.psd[band] / target[band] - 1.0)))
    ok = max_dev < 0.10

    # spatial cross-spectrum at zero separation equals the auto-spectrum
    bundle = synthesize_trajectories(
        bath, NoiseTopology.spatial([0.0, 0.0]), 2, dt, n_steps, seed=SEED
    )
    spectra = np.fft.rfft(bundle, axis=-1)
    cross = (dt / n_steps) * np.real(spectra[0] * np.conj(spectra[1]))
    auto = (dt / n_steps) * np.abs(spectra[0]) ** 2
    gap = np.abs(cross - auto)
    sigma = np.maximum(est.stderr, 1e-30)  # scale of one-periodogram noise
    ok &= bool(np.all(gap[band] <= 3.0 * sigma[band] * np.sqrt(1000)))
    elapsed = time.monotonic() - start
    report(
        9,
        "synthesized noise: auto-spectrum within 10% of target over the band, "
        "zero-distance cross-spectrum equals auto-spectrum",
        ok,
        f"max band deviation {max_dev:.1%} at 1000 averages, {elapsed:.1f}s",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps(
            {
                "scenario": {
                    "architecture": "fsa_uniform",
                    "L": 3,
                    "pair": {"left": "+++", "right": "++-"},
                    "n_trajectories": 1500,
                },
                "seed": SEED,
            }
        )
    )
    blobs = []
    for tag, jobs in [("a", "1"), ("b", "4"), ("c", "1")]:
        for fmt in ("csv", "json"):
            out = tmp_path / f"run_{tag}.{fmt}"
            code = main(
                ["mc", "--config", str(config), "--output", str(out),
                 "--format", fmt, "--jobs", jobs]
            )
            assert code == 0
        blobs.append(
            (
                (tmp_path / f"run_{tag}.csv").read_bytes(),
                (tmp_path / f"run_{tag}.json").read_bytes(),
            )
        )
    ok = blobs[0] == blobs[1] == blobs[2]
    report(
        10,
        "identical config and seed give byte-identical outputs at any --jobs",
        ok,
        "jobs 1 vs 4 vs rerun, csv and json",
    )
