"""Config-driven command line frontend.

Subcommands: ``rates``, ``scan``, ``couplings``, ``mc``, ``validate``.
Configuration is a JSON document with a strict schema (unknown keys are
rejected); command line flags override file values.  Every output file embeds
the fully resolved configuration and seed in its header, so a run can be
reproduced byte-for-byte from its own output.

Exit codes: 0 success / all validations passed, 1 validation failure, 2
configuration error (unreadable JSON, unknown key, a value of the wrong JSON
type such as a string or a fractional number where an integer belongs, an
architecture the command does not support (``rates``, ``mc`` and ``validate``
take fsa_uniform, fsa_independent and bus; ``scan`` takes the architecture and
noise combinations of ``rates.scaling_scan``), an explicit pair whose labels
do not have ``L`` qubits, or a size above its bound: register lengths,
``L_values`` entries and ``positions.count`` <= 64, a Monte-Carlo scenario's
``L`` <= 16, ``n_trajectories`` <= 10^6, and a time grid of at most 2^20
steps), 3 physical-constraint violation (including non-finite physical values
and coupling scales that overflow), 4 internal error (any other exception;
never reported as 1).

A scenario's grid has ``mcsim.grid_points(cutoff_ratio, fit_window)`` =
2 * cutoff_ratio * max(3.2, 1.15 * fit_window[1]) + 1 points rounded up to a
power of two; the bound is checked as the scenario is read.

Units: natural units (hbar = k_B = 1) by default.  An optional ``units``
block accepts frequencies in GHz and temperatures in kelvin; they are
converted at this boundary (time unit: ns) and the conversion factors are
recorded in the output header.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .couplings import (
    CouplingKind,
    coupling_matrix,
    drive_enhancement,
    kernel_h,
)
from .mcsim import (
    DEFAULT_MASTER_SEED,
    default_validation_suite,
    fit_rate,
    grid_points,
    make_validation_scenario,
    simulate_dephasing,
    validate_against_analytic,
)
from .noise import Geometry, OhmicBath
from .rates import (
    ARCHITECTURES,
    ArchitectureModel,
    ArchitectureRecord,
    ArchKind,
    NoiseKind,
    rate_table,
    scaling_scan,
    worst_case_pair,
)
from .register import (
    CoherencePair,
    GateDrive,
    RegisterLabel,
    enumerate_labels,
    total_spin,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_PHYSICAL_ERROR = 3
EXIT_INTERNAL_ERROR = 4

# Conversion factors applied by the optional "units" block (time unit: ns).
GHZ_TO_NATURAL = 2.0 * math.pi          # GHz -> rad/ns
KELVIN_TO_NATURAL = 130.92034           # k_B/hbar in rad/ns per kelvin

_MAX_ALL_PAIRS_QUBITS = 8
# Upper bounds on the config's size parameters, checked as they are read so an
# oversized value exits 2 before anything is allocated.  Register lengths and
# site counts: rates "L", each scan "L_values" entry, "positions.count".
_MAX_QUBITS = 64
# Monte-Carlo scenarios ("L" of mc/validate scenarios): per-gate noise gives
# L (L - 1) / 2 sources, whose per-bin site kernels grow as L^4.
_MAX_MC_QUBITS = 16
# "n_trajectories" of a scenario or of the validate override.
_MAX_TRAJECTORIES = 10**6
# Time steps of a scenario's grid, which its "cutoff_ratio" and the upper end of
# its "fit_window" set (the default suite uses 1024 steps, the bus scan 8192).
_MAX_GRID_STEPS = 2**20


class ConfigError(Exception):
    """Malformed configuration (unknown key, wrong type, bad structure)."""


class PhysicalParameterError(ValueError):
    """A physical parameter is missing or violates its constraints."""


def _check_keys(mapping: Mapping, allowed: Sequence[str], context: str) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{context} must be an object, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(unknown)}")


def _structural(mapping: Mapping, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"missing required key '{key}' in {context}")
    return mapping[key]


def _number(value: Any, context: str) -> float:
    """A JSON number as a float.  Non-finite values pass: the physics rejects them."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    return float(value)


def _integer(value: Any, context: str, maximum: int | None = None) -> int:
    """A JSON integer, at most ``maximum`` if given; an integral float such as
    2.0 is accepted, 2.7 is not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{context} must be <= {maximum}, got {value}")
    return value


def _number_pair(value: Any, context: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{context} must be a list of two numbers, got {value!r}")
    return (_number(value[0], f"{context}[0]"), _number(value[1], f"{context}[1]"))


def _label_pair(entry: Any, context: str) -> CoherencePair:
    """A coherence pair from {"left": "+-...", "right": "..."}."""
    _check_keys(entry, ["left", "right"], context)
    labels = [_structural(entry, side, context) for side in ("left", "right")]
    for side, label in zip(("left", "right"), labels):
        if not isinstance(label, str):
            raise ConfigError(f"{context}.{side} must be a label string, got {label!r}")
    try:
        return CoherencePair.from_strings(*labels)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _architecture(config: Mapping, context: str) -> ArchKind:
    try:
        return ArchKind(_structural(config, "architecture", context))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _supporting(kind: ArchKind, field: str, what: str) -> ArchitectureRecord:
    """The record of ``kind``; a config error if it has no ``field`` (no ``what``)."""
    record = ARCHITECTURES[kind]
    if getattr(record, field) is None:
        names = [k.value for k, r in ARCHITECTURES.items() if getattr(r, field) is not None]
        raise ConfigError(
            f"{what} exist for {', '.join(names[:-1])} and {names[-1]}, not {kind.value}"
        )
    return record


def _physical(mapping: Mapping, key: str, context: str) -> float:
    if key not in mapping:
        raise PhysicalParameterError(f"missing physical parameter '{context}.{key}'")
    return _number(mapping[key], f"{context}.{key}")


def _units_from_config(config: Mapping) -> dict[str, float]:
    block = config.get("units", {})
    _check_keys(block, ["frequency", "temperature"], "units")
    factors = {"frequency": 1.0, "temperature": 1.0}
    freq = block.get("frequency", "natural")
    if freq == "ghz":
        factors["frequency"] = GHZ_TO_NATURAL
    elif freq != "natural":
        raise ConfigError(f"units.frequency must be 'natural' or 'ghz', got {freq!r}")
    temp = block.get("temperature", "natural")
    if temp == "kelvin":
        factors["temperature"] = KELVIN_TO_NATURAL
    elif temp != "natural":
        raise ConfigError(
            f"units.temperature must be 'natural' or 'kelvin', got {temp!r}"
        )
    return factors


def _bath_from_config(
    config: Mapping, units: Mapping[str, float], require_temperature: bool
) -> OhmicBath:
    _check_keys(config, ["coupling", "cutoff", "temperature", "geometry", "velocity"], "bath")
    coupling = _physical(config, "coupling", "bath")
    cutoff = _physical(config, "cutoff", "bath") * units["frequency"]
    if require_temperature:
        temperature = _physical(config, "temperature", "bath") * units["temperature"]
    else:
        temperature = _number(config.get("temperature", 0.0), "bath.temperature")
        temperature *= units["temperature"]
    geometry = config.get("geometry", "1d")
    try:
        geometry = Geometry(geometry)
    except ValueError:
        raise ConfigError(f"bath.geometry must be '1d' or '3d', got {geometry!r}") from None
    return OhmicBath(
        coupling=coupling,
        cutoff=cutoff,
        temperature=temperature,
        geometry=geometry,
        velocity=_number(config.get("velocity", 1.0), "bath.velocity"),
    )


def _drive_from_config(config: Mapping, n_qubits: int) -> GateDrive | None:
    if "drive" not in config:
        return None
    raw = config["drive"]
    if not isinstance(raw, (list, tuple)):
        raise ConfigError("drive must be a list of per-qubit amplitudes")
    if len(raw) != n_qubits:
        raise ConfigError(f"drive has {len(raw)} entries for L = {n_qubits}")
    return GateDrive(tuple(_number(p, f"drive[{j}]") for j, p in enumerate(raw)))


def _pairs_from_config(
    config: Mapping, kind: ArchKind, n_qubits: int, drive: GateDrive | None
) -> tuple[list[RegisterLabel], np.ndarray, np.ndarray]:
    """The table's distinct labels and, per pair, the indices of its two labels."""
    spec = config.get("pairs", "all")
    if spec == "all":
        if n_qubits > _MAX_ALL_PAIRS_QUBITS:
            raise ConfigError(
                f"pairs: 'all' enumerates 4^L/2 rows and is capped at "
                f"L <= {_MAX_ALL_PAIRS_QUBITS}; list pairs explicitly"
            )
        labels = enumerate_labels(n_qubits)
        # row-major upper triangle, diagonal included: iter_coherence_pairs order
        left, right = np.triu_indices(len(labels))
        return labels, left, right
    if spec == "worst_case":
        pairs = [worst_case_pair(kind, n_qubits, drive)]
    elif isinstance(spec, list):
        pairs = [_label_pair(entry, f"pairs[{i}]") for i, entry in enumerate(spec)]
        for i, pair in enumerate(pairs):
            if pair.n_qubits != n_qubits:
                raise ConfigError(f"pairs[{i}] has {pair.n_qubits} qubits but L = {n_qubits}")
    else:
        raise ConfigError("pairs must be 'all', 'worst_case', or a list of label pairs")
    index: dict[RegisterLabel, int] = {}
    left = [index.setdefault(pair.left, len(index)) for pair in pairs]
    right = [index.setdefault(pair.right, len(index)) for pair in pairs]
    return list(index), np.array(left, dtype=np.intp), np.array(right, dtype=np.intp)


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _format_cell(value: Any) -> str:
    """One CSV field, quoted as ``csv.writer`` quotes it by default: a field
    holding a comma, a double quote or a line break is enclosed in double
    quotes, with its double quotes doubled."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class _Coded(NamedTuple):
    """A column stored as its distinct values and, per row, the index of its
    value, so that each distinct value is formatted once."""

    values: Sequence[Any]
    index: np.ndarray


def _cells(column: Sequence[Any] | _Coded, convert: Callable[[Any], Any]) -> list:
    if isinstance(column, _Coded):
        converted = [convert(v) for v in column.values]
        return [converted[i] for i in column.index.tolist()]
    return list(map(convert, column))


def _by_column(columns: Sequence[str], rows: Sequence[Mapping[str, Any]]) -> dict[str, list]:
    return {c: [row[c] for row in rows] for c in columns}


def _write_output(
    destination: str | None,
    fmt: str,
    meta: dict[str, Any],
    table: Mapping[str, Sequence[Any] | _Coded],
) -> None:
    """Write a table of at least two columns, given column by column in order,
    as CSV (``#`` header lines, then ``csv.writer``'s default dialect) or JSON."""
    if fmt == "csv":
        header = "".join(f"# {key}: {_canonical_json(value)}\n" for key, value in meta.items())
        columns = [_cells(c, _format_cell) for c in table.values()]
        lines = [",".join(map(_format_cell, table)), *map(",".join, zip(*columns))]
        text = header + "\r\n".join(lines) + "\r\n"
    else:
        names = list(table)
        rows = zip(*(_cells(c, lambda v: v) for c in table.values()))
        payload = {"meta": meta, "rows": [dict(zip(names, row)) for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(text)


def _base_meta(command: str, config: Mapping, seed: int | None) -> dict[str, Any]:
    meta: dict[str, Any] = {
        "tool": f"gatenoise {command} v{__version__}",
        "config": config,
    }
    if seed is not None:
        meta["seed"] = seed
    units = _units_from_config(config)
    if units["frequency"] != 1.0 or units["temperature"] != 1.0:
        meta["unit_conversion"] = {
            "frequency_to_natural": units["frequency"],
            "temperature_to_natural": units["temperature"],
            "note": "natural units: hbar = k_B = 1, time in ns",
        }
    return meta


def _cmd_rates(config: Mapping, args: argparse.Namespace) -> int:
    _check_keys(
        config, ["architecture", "L", "bath", "pairs", "drive", "units"], "rates config"
    )
    kind = _architecture(config, "rates config")
    record = _supporting(kind, "rate", "rate tables")
    n_qubits = _integer(_structural(config, "L", "rates config"), "L", _MAX_QUBITS)
    units = _units_from_config(config)
    bath = _bath_from_config(
        _structural(config, "bath", "rates config"), units, require_temperature=True
    )
    drive = _drive_from_config(config, n_qubits)
    if record.default_drive is not None and drive is None:
        raise ConfigError(f"{kind.value} rates require a 'drive' entry")
    labels, left, right = _pairs_from_config(config, kind, n_qubits, drive)
    table = rate_table(ArchitectureModel(kind, n_qubits, drive), bath, labels, left, right)

    names = [str(label) for label in labels]
    spins = [total_spin(label) for label in labels]
    pointers = table.pointers or [None] * len(labels)
    every_row = np.zeros(len(left), dtype=np.intp)
    columns = {
        "architecture": _Coded([kind.value], every_row),
        "L": _Coded([n_qubits], every_row),
        "left": _Coded(names, left),
        "right": _Coded(names, right),
        "M": _Coded(spins, left),
        "Mp": _Coded(spins, right),
        "Nd": _Coded(range(n_qubits + 1), table.hamming),
        "Q": _Coded(pointers, left),
        "Qp": _Coded(pointers, right),
        "gamma": table.gamma.tolist(),
    }
    _write_output(args.output, args.format, _base_meta("rates", config, seed=None), columns)
    return EXIT_OK


def _cmd_scan(config: Mapping, args: argparse.Namespace) -> int:
    _check_keys(config, ["architecture", "noise", "L_values", "units"], "scan config")
    kind = _architecture(config, "scan config")
    try:
        noise = NoiseKind(_structural(config, "noise", "scan config"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if noise not in ARCHITECTURES[kind].laws:
        raise ConfigError(f"no scaling law in scope for {kind.value} with {noise.value} noise")
    l_values = _structural(config, "L_values", "scan config")
    if not isinstance(l_values, list) or not l_values:
        raise ConfigError("L_values must be a non-empty list of register lengths")
    points = scaling_scan(
        kind, noise,
        [_integer(v, f"L_values[{i}]", _MAX_QUBITS) for i, v in enumerate(l_values)],
    )
    exponents = [None]
    for previous, point in zip(points, points[1:]):
        # the log-log slope needs two distinct lengths with non-zero rates
        exponents.append(
            math.log(point.relative_rate / previous.relative_rate)
            / math.log(point.n_qubits / previous.n_qubits)
            if point.n_qubits != previous.n_qubits
            and point.relative_rate > 0 and previous.relative_rate > 0
            else None
        )
    every_row = np.zeros(len(points), dtype=np.intp)
    columns = {
        "architecture": _Coded([kind.value], every_row),
        "noise": _Coded([noise.value], every_row),
        "L": [point.n_qubits for point in points],
        "relative_rate": [point.relative_rate for point in points],
        "local_exponent": exponents,
    }
    _write_output(args.output, args.format, _base_meta("scan", config, seed=None), columns)
    return EXIT_OK


def _positions_from_config(config: Mapping) -> list[float]:
    raw = _structural(config, "positions", "couplings config")
    if isinstance(raw, Mapping):
        _check_keys(raw, ["count", "spacing"], "positions")
        count = _integer(
            _structural(raw, "count", "positions"), "positions.count", _MAX_QUBITS
        )
        spacing = _number(_structural(raw, "spacing", "positions"), "positions.spacing")
        if count < 1:
            raise ConfigError("positions.count must be >= 1")
        return [j * spacing for j in range(count)]
    if isinstance(raw, list) and raw:
        return [_number(p, f"positions[{i}]") for i, p in enumerate(raw)]
    raise ConfigError("positions must be a list or {count, spacing}")


def _cmd_couplings(config: Mapping, args: argparse.Namespace) -> int:
    _check_keys(config, ["bath", "positions", "units"], "couplings config")
    units = _units_from_config(config)
    bath = _bath_from_config(
        _structural(config, "bath", "couplings config"), units, require_temperature=False
    )
    positions = _positions_from_config(config)
    n = len(positions)
    mu_sc = coupling_matrix(bath, positions, CouplingKind.SPURIOUS)
    mu_tr = coupling_matrix(bath, positions, CouplingKind.TRANSIENT)
    rows = []
    for j in range(n):
        for k in range(j + 1, n):
            r = abs(positions[k] - positions[j])
            x = bath.cutoff * r / bath.velocity
            tr_1d = 2.0 * bath.coupling * bath.cutoff / math.pi * kernel_h(x, Geometry.ONE_D)
            tr_3d = 2.0 * bath.coupling * bath.cutoff / math.pi * kernel_h(x, Geometry.THREE_D)
            rows.append(
                {
                    "j": j,
                    "k": k,
                    "r_jk": r,
                    "x": x,
                    "mu_sc": float(mu_sc.values[j, k]),
                    "mu_tr": float(mu_tr.values[j, k]),
                    "mu_tr_1d": tr_1d,
                    "mu_tr_3d": tr_3d,
                    "tr_3d_dominates": bool(tr_3d >= tr_1d),
                }
            )
    meta = _base_meta("couplings", config, seed=None)
    meta["drive_enhancement"] = drive_enhancement(n, bath)
    meta["geometry"] = bath.geometry.value
    if args.format == "json":
        meta["mu_sc_matrix"] = [list(map(float, row)) for row in mu_sc.values]
        meta["mu_tr_matrix"] = [list(map(float, row)) for row in mu_tr.values]
    columns = ["j", "k", "r_jk", "x", "mu_sc", "mu_tr", "mu_tr_1d", "mu_tr_3d", "tr_3d_dominates"]
    _write_output(args.output, args.format, meta, _by_column(columns, rows))
    return EXIT_OK


_SCENARIO_KEYS = [
    "name",
    "architecture",
    "L",
    "pair",
    "drive",
    "coupling",
    "temperature",
    "cutoff_ratio",
    "reference_rate",
    "n_trajectories",
    "fit_window",
]


def _scenario_from_config(config: Mapping, seed: int, default_trajectories: int):
    _check_keys(config, _SCENARIO_KEYS, "scenario")
    kind = _architecture(config, "scenario")
    record = _supporting(kind, "sources", "Monte-Carlo scenarios")
    n_qubits = _integer(_structural(config, "L", "scenario"), "scenario.L", _MAX_MC_QUBITS)
    drive = _drive_from_config(config, n_qubits)
    if record.default_drive is not None and drive is None:
        drive = record.default_drive(n_qubits)
    pair_spec = _structural(config, "pair", "scenario")
    if pair_spec == "worst_case":
        pair = worst_case_pair(kind, n_qubits, drive)
    else:
        pair = _label_pair(pair_spec, "scenario.pair")
    if pair.n_qubits != n_qubits:
        raise ConfigError(
            f"scenario.pair has {pair.n_qubits} qubits but L = {n_qubits}"
        )
    # fit_window is [t_min, t_max] in units of 1/rate
    fit_window = _number_pair(config.get("fit_window", [0.5, 2.0]), "scenario.fit_window")
    cutoff_ratio = _number(config.get("cutoff_ratio", 128.0), "scenario.cutoff_ratio")
    # Compared as is, so that NaN passes on to the physics, which rejects it.
    if grid_points(cutoff_ratio, fit_window) > _MAX_GRID_STEPS:
        raise ConfigError(
            f"scenario.cutoff_ratio {cutoff_ratio:g} with scenario.fit_window upper end "
            f"{fit_window[1]:g} needs a grid of more than {_MAX_GRID_STEPS} steps"
        )
    reference_rate = config.get("reference_rate")
    if reference_rate is not None:
        reference_rate = _number(reference_rate, "scenario.reference_rate")
    name = config.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError(f"scenario.name must be a string, got {name!r}")
    return make_validation_scenario(
        kind,
        pair,
        drive=drive,
        coupling=_number(config.get("coupling", 1.0), "scenario.coupling"),
        temperature=_number(config.get("temperature", 1.0), "scenario.temperature"),
        cutoff_ratio=cutoff_ratio,
        n_trajectories=_integer(
            config.get("n_trajectories", default_trajectories), "scenario.n_trajectories",
            _MAX_TRAJECTORIES,
        ),
        master_seed=seed,
        fit_window=fit_window,
        reference_rate=reference_rate,
        name=name,
    )


def _resolve_seed(config: Mapping, args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    return _integer(config.get("seed", DEFAULT_MASTER_SEED), "seed")


def _cmd_mc(config: Mapping, args: argparse.Namespace) -> int:
    _check_keys(config, ["scenario", "seed", "units"], "mc config")
    seed = _resolve_seed(config, args)
    resolved = dict(config)
    resolved["seed"] = seed
    scenario = _scenario_from_config(
        _structural(config, "scenario", "mc config"), seed, default_trajectories=10_000
    )
    trace = simulate_dephasing(
        scenario.arch, scenario.pair, scenario.bath, scenario.topology,
        scenario.cfg, jobs=args.jobs,
    )
    gamma = scenario.gamma_analytic
    estimate = fit_rate(trace, scenario.cfg.absolute_fit_window(gamma))
    meta = _base_meta("mc", resolved, seed=seed)
    meta["scenario"] = scenario.name
    meta["gamma_analytic"] = gamma
    meta["gamma_hat"] = estimate.gamma_hat
    meta["stderr_gamma"] = estimate.stderr_gamma
    meta["r_squared"] = estimate.r_squared
    columns = {
        "t": trace.times.tolist(),
        "abs_C": trace.abs_coherence.tolist(),
        "arg_C": trace.arg_coherence.tolist(),
        "stderr": trace.stderr.tolist(),
    }
    _write_output(args.output, args.format, meta, columns)
    return EXIT_OK


def _cmd_validate(config: Mapping, args: argparse.Namespace) -> int:
    _check_keys(config, ["suite", "scenarios", "n_trajectories", "seed", "units"], "validate config")
    seed = _resolve_seed(config, args)
    resolved = dict(config)
    resolved["seed"] = seed
    n_override = config.get("n_trajectories")
    if n_override is not None:
        n_override = _integer(n_override, "n_trajectories", _MAX_TRAJECTORIES)
    if "scenarios" in config:
        if not isinstance(config["scenarios"], list):
            raise ConfigError("scenarios must be a list of scenario objects")
        scenarios = [
            _scenario_from_config(entry, seed, default_trajectories=n_override or 10_000)
            for entry in config["scenarios"]
        ]
    else:
        suite = config.get("suite", "default")
        if suite != "default":
            raise ConfigError(f"unknown suite {suite!r}; only 'default' is bundled")
        scenarios = default_validation_suite(
            master_seed=seed, n_trajectories=n_override
        )
    reports = [validate_against_analytic(s, jobs=args.jobs) for s in scenarios]
    rows = [r.to_dict() for r in reports]
    meta = _base_meta("validate", resolved, seed=seed)
    meta["all_pass"] = all(r.passed for r in reports)
    columns = [
        "scenario", "gamma_analytic", "gamma_hat", "stderr", "rel_err", "z",
        "pass", "r_squared", "n_trajectories", "master_seed",
    ]
    _write_output(args.output, args.format, meta, _by_column(columns, rows))
    return EXIT_OK if meta["all_pass"] else EXIT_VALIDATION_FAILED


_COMMANDS = {
    "rates": (_cmd_rates, True),
    "scan": (_cmd_scan, True),
    "couplings": (_cmd_couplings, True),
    "mc": (_cmd_mc, True),
    "validate": (_cmd_validate, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatenoise",
        description="Gate-control-noise dephasing: rates, couplings, scaling scans "
        "and Monte-Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("rates", "tabulate analytic dephasing rates for coherence pairs"),
        ("scan", "worst-case rate scaling vs register length"),
        ("couplings", "noise-induced inter-qubit coupling map"),
        ("mc", "Monte-Carlo coherence trace for one scenario"),
        ("validate", "run Monte-Carlo validation against the analytic rates"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--output", type=str, default=None, help="output file (default: stdout)")
        cmd.add_argument("--format", choices=["csv", "json"], default="csv")
        cmd.add_argument("--jobs", type=int, default=1, help="worker threads")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, config_required = _COMMANDS[args.command]
    try:
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
            if not isinstance(config, dict):
                raise ConfigError("config must be a JSON object")
        elif config_required:
            raise ConfigError(f"'{args.command}' requires --config")
        else:
            config = {}
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        return handler(config, args)
    except ConfigError as exc:
        print(f"gatenoise: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"gatenoise: {exc}", file=sys.stderr)
        return EXIT_PHYSICAL_ERROR
    except Exception as exc:  # a crash must not read as a failed validation
        print(f"gatenoise: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
