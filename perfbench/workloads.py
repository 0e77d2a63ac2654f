"""The four benchmark workloads: inputs from a seed, one pass, and its checks.

Every call into the package goes through a module attribute
(``mcsim.validate_against_analytic``, ``cli.main``, ...) so that the traced
run sees it.  A pass returns one :class:`Check` per operation; an operation is
one validation verdict, one CLI invocation or one oracle comparison, and an
exception inside it fails that operation without stopping the pass.

The Monte-Carlo master seed is always the suite's ``DEFAULT_MASTER_SEED``.
The 5% / 3 sigma verdicts are fixed-seed gates, as in the repository's own
acceptance tests: at 10k trajectories the 5% limit is under two standard
errors for the L=6 sweep, so a fresh stream fails some verdict for a sizable
share of seeds.  The workload seed therefore draws everything else: the
order of the scenarios in a pass and the parameters of the analytic tables.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gatenoise import cli, couplings, mcsim, rates, register
from gatenoise.noise import Geometry, NoiseTopology, OhmicBath
from gatenoise.rates import ArchKind
from gatenoise.register import GateDrive

MC_SEED = mcsim.DEFAULT_MASTER_SEED

# Closed-form tolerances of the repository's acceptance criteria 2, 3 and 7.
BRUTE_FORCE_REL_TOL = 1e-12
QUADRATURE_REL_TOL = 1e-8
BUS_EXPONENT, BUS_EXPONENT_TOL = 2.0, 0.2

SCAN_COMBOS = [
    ("fsa_uniform", "central"),
    ("fsa_independent", "independent"),
    ("bus", "central"),
    ("hypercube", "independent"),
    ("processor_core", "independent"),
    ("processor_core", "central"),
]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    seconds: float | None = None  # wall time of the operation, when it has its own


@dataclass
class Workload:
    """A built workload: ``run`` performs one pass and returns its checks."""

    run: Callable[[], list[Check]]
    items: int          # work per pass: MC trajectories, or operations
    item_unit: str
    inputs: dict


def _check(name: str, fn: Callable[[], tuple[bool, str]]) -> Check:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash fails this operation, not the run
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return Check(name, bool(ok), detail, time.perf_counter() - start)


def _scaled(scenario: mcsim.ValidationScenario, scale: float) -> mcsim.ValidationScenario:
    if scale == 1.0:
        return scenario
    n = max(100, round(scenario.cfg.n_trajectories * scale))
    return dataclasses.replace(
        scenario, cfg=dataclasses.replace(scenario.cfg, n_trajectories=n)
    )


def _verdict(scenario: mcsim.ValidationScenario, jobs: int) -> Check:
    def run() -> tuple[bool, str]:
        rep = mcsim.validate_against_analytic(scenario, jobs=jobs)
        return rep.passed, f"rel {rep.rel_err} z {rep.z_score:.3f}"

    return _check(f"verdict {scenario.name}", run)


def _suite(kind: ArchKind, scale: float) -> list[mcsim.ValidationScenario]:
    suite = mcsim.default_validation_suite(master_seed=MC_SEED)
    return [_scaled(s, scale) for s in suite if s.arch.kind is kind]


def build_uniform_quartic(rng: random.Random, scale: float, workdir: Path) -> Workload:
    """The six central-noise scenarios of the default suite, jobs=1."""
    scenarios = _suite(ArchKind.FSA_UNIFORM, scale)
    rng.shuffle(scenarios)
    return Workload(
        lambda: [_verdict(s, jobs=1) for s in scenarios],
        sum(s.cfg.n_trajectories for s in scenarios),
        "trajectories",
        {"order": [s.name for s in scenarios]},
    )


def build_hamming_sweep(rng: random.Random, scale: float, workdir: Path) -> Workload:
    """The L=6 Hamming sweep through ``gatenoise validate --jobs 2``, in-process."""
    scenarios = _suite(ArchKind.FSA_INDEPENDENT, scale)
    rng.shuffle(scenarios)
    # The suite's grid scale for the decoherence-free endpoints: the peak rate.
    peak = rates.rate_fsa_independent(
        OhmicBath(coupling=1.0, cutoff=1.0, temperature=1.0),
        rates.worst_case_pair(ArchKind.FSA_INDEPENDENT, 6),
    ).gamma
    entries = [
        {
            "name": s.name,
            "architecture": s.arch.kind.value,
            "L": s.pair.n_qubits,
            "pair": {"left": str(s.pair.left), "right": str(s.pair.right)},
            "reference_rate": peak,
            "n_trajectories": s.cfg.n_trajectories,
        }
        for s in scenarios
    ]
    config = workdir / "hamming_validate.json"
    config.write_text(json.dumps({"scenarios": entries, "seed": MC_SEED}))
    output = workdir / "hamming_result.json"
    argv = ["validate", "--config", str(config), "--jobs", "2",
            "--output", str(output), "--format", "json"]

    def run() -> list[Check]:
        output.unlink(missing_ok=True)
        checks = [_check("cli validate", lambda: (cli.main(argv) == 0, "exit code"))]
        missing = "no result row"
        try:
            rows = {r["scenario"]: r for r in json.loads(output.read_text())["rows"]}
        except (OSError, ValueError, KeyError) as exc:
            rows, missing = {}, f"no result rows: {exc}"
        for s in scenarios:
            row = rows.get(s.name)
            detail = missing if row is None else f"rel {row['rel_err']} z {row['z']:.3f}"
            checks.append(Check(f"verdict {s.name}", bool(row and row["pass"]), detail))
        return checks

    return Workload(
        run, sum(s.cfg.n_trajectories for s in scenarios),
        "trajectories", {"order": [s.name for s in scenarios]},
    )


def build_bus_coupler(rng: random.Random, scale: float, workdir: Path) -> Workload:
    """The bus gate on the uniform and a co-located spatial topology, and the
    quadratic-coupler scan."""
    (uniform,) = _suite(ArchKind.BUS, scale)
    colocated = mcsim.make_validation_scenario(
        ArchKind.BUS, uniform.pair, drive=uniform.arch.drive, master_seed=MC_SEED,
        name="bus_L4_spatial_colocated",
    )
    colocated = _scaled(
        dataclasses.replace(colocated, topology=NoiseTopology.spatial([0.0] * 4)), scale
    )
    n_scan = max(100, round(4000 * scale))
    scan_lengths = (2, 4, 8)

    def scan() -> tuple[bool, str]:
        exponent, _ = mcsim.mc_bus_scaling(
            scan_lengths, n_trajectories=n_scan, master_seed=MC_SEED, jobs=1
        )
        return abs(exponent - BUS_EXPONENT) <= BUS_EXPONENT_TOL, f"exponent {exponent:.4f}"

    parts = [
        ("bus_L4_active_gate", lambda: _verdict(uniform, jobs=1)),
        ("bus_L4_spatial_colocated", lambda: _verdict(colocated, jobs=1)),
        ("mc_bus_scaling", lambda: _check("mc_bus_scaling exponent", scan)),
    ]
    rng.shuffle(parts)
    return Workload(
        lambda: [part() for _, part in parts],
        uniform.cfg.n_trajectories + colocated.cfg.n_trajectories
        + n_scan * len(scan_lengths),
        "trajectories",
        {"order": [name for name, _ in parts]},
    )


def _csv_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return sum(1 for _ in csv.reader(lines)) - 1  # minus the header


def build_analytic_tables(rng: random.Random, scale: float, workdir: Path) -> Workload:
    """Rate tables, coupling map and scan through the CLI, plus the two
    closed-form oracles (coupling quadratures, brute-force pair sum)."""
    coupling = rng.uniform(0.5, 1.5)
    temperature = rng.uniform(0.5, 3.0)
    cutoff = rng.uniform(0.5, 2.0)
    velocity = rng.uniform(0.5, 2.0)
    bath_cfg = {"coupling": coupling, "cutoff": cutoff, "temperature": temperature}
    j, k = sorted(rng.sample(range(8), 2))
    drive = GateDrive.two_qubit_gate(8, j, k, rng.uniform(0.5, 2.0))
    n_pairs_8 = sum(1 for _ in register.iter_coherence_pairs(8))

    calls: list[tuple[str, list[str], int | None]] = []  # name, argv, expected rows
    for arch in ("fsa_uniform", "fsa_independent", "bus"):
        config = {"architecture": arch, "L": 8, "bath": bath_cfg, "pairs": "all"}
        if arch == "bus":
            config["drive"] = list(drive.phi)
        calls.append((f"rates {arch}", _cli_argv("rates", config, arch, workdir), n_pairs_8))
    couplings_cfg = {
        "bath": {"coupling": coupling, "cutoff": cutoff, "velocity": velocity,
                 "geometry": rng.choice(["1d", "3d"])},
        "positions": {"count": 64, "spacing": rng.uniform(0.1, 2.0)},
    }
    calls.append(("couplings", _cli_argv("couplings", couplings_cfg, "map", workdir), None))
    arch, noise_kind = rng.choice(SCAN_COMBOS)
    scan_cfg = {"architecture": arch, "noise": noise_kind, "L_values": [2, 4, 8, 16, 32, 64]}
    calls.append(("scan", _cli_argv("scan", scan_cfg, "scan", workdir), None))

    quad_baths = [
        OhmicBath(coupling=coupling, cutoff=cutoff, geometry=g, velocity=velocity)
        for g in Geometry
    ]
    distances = np.logspace(-3, 2, 200) * velocity / cutoff
    brute_bath = OhmicBath(coupling=coupling, cutoff=1.0, temperature=temperature)
    pairs_6 = list(register.iter_coherence_pairs(6))

    def cli_check(argv: list[str], expected_rows: int | None) -> tuple[bool, str]:
        code = cli.main(argv)
        if code != 0:
            return False, f"exit {code}"
        if expected_rows is None:
            return True, "exit 0"
        rows = _csv_rows(Path(argv[argv.index("--output") + 1]))
        return rows == expected_rows, f"{rows} rows for {expected_rows} pairs"

    def quadrature(closed_fn, quad_fn, bath, r, ref) -> tuple[bool, str]:
        closed = closed_fn(bath, r)
        rel = abs(quad_fn(bath, r) - closed) / max(abs(closed), 1e-12 * ref)
        return rel <= QUADRATURE_REL_TOL, f"rel {rel:.3e}"

    def brute(pair) -> tuple[bool, str]:
        nd = register.hamming_distance(pair)
        value = rates.rate_fsa_independent_bruteforce(brute_bath, pair).gamma
        closed = rates.rate_fsa_independent(brute_bath, pair).gamma
        if 0 < nd < pair.n_qubits:
            return abs(value - closed) <= BRUTE_FORCE_REL_TOL * abs(closed), f"{value!r}"
        return value == 0.0 == closed, f"{value!r}"

    def run() -> list[Check]:
        checks = [_check(f"cli {name}", lambda a=argv, e=rows: cli_check(a, e))
                  for name, argv, rows in calls]
        # Looked up per pass, so that a traced pass calls the wrapped functions.
        oracles = [
            ("spurious", couplings.spurious_coupling, couplings.spurious_coupling_quadrature),
            ("transient", couplings.transient_coupling, couplings.transient_coupling_quadrature),
        ]
        for bath in quad_baths:
            for label, closed_fn, quad_fn in oracles:
                ref = abs(closed_fn(bath, 0.0))
                for r in distances:
                    checks.append(_check(
                        f"quadrature {label} {bath.geometry.value} r={r:.6g}",
                        lambda c=closed_fn, q=quad_fn, b=bath, r=r, s=ref:
                            quadrature(c, q, b, r, s),
                    ))
        for pair in pairs_6:
            checks.append(_check(f"bruteforce {pair}", lambda p=pair: brute(p)))
        return checks

    n_ops = len(calls) + 2 * 2 * len(distances) + len(pairs_6)
    return Workload(
        run, n_ops, "operations",
        {"bath": bath_cfg, "velocity": velocity, "bus_drive": list(drive.phi),
         "couplings": couplings_cfg, "scan": scan_cfg},
    )


def _cli_argv(command: str, config: dict, tag: str, workdir: Path) -> list[str]:
    path = workdir / f"{command}_{tag}.json"
    path.write_text(json.dumps(config))
    return [command, "--config", str(path), "--output", str(workdir / f"{command}_{tag}.csv"),
            "--format", "csv"]


BUILDERS = {
    "uniform_quartic": build_uniform_quartic,
    "hamming_sweep": build_hamming_sweep,
    "bus_coupler": build_bus_coupler,
    "analytic_tables": build_analytic_tables,
}


def build(name: str, seed: int, scale: float, workdir: Path) -> Workload:
    """Build a workload's inputs from its seed; the same seed gives the same inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}/{seed}"), scale, workdir)
