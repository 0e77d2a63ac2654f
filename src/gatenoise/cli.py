"""Config-driven command line frontend.

Subcommands: ``rates``, ``scan``, ``couplings``, ``mc``, ``validate``.
Configuration is a JSON document read against one slot table per command
(``_COMMANDS``): each key maps to a reader and a default, a nested object is
a nested table, and one loop (``_read``) reads every slot in table order.
Unknown keys are rejected, and JSON ``null`` means absent everywhere.
``--config`` is required by every command whose table has a required slot,
which is all but ``validate``.  ``--output`` and ``--format`` apply to every
command; only the Monte-Carlo commands ``mc`` and ``validate`` take
``--seed`` (overriding the config's seed) and ``--jobs``, and the others
refuse them (argparse, exit 2).  Every output file embeds the fully resolved
configuration and seed in its header, so a run can be reproduced
byte-for-byte from its own output.

Exit codes: 0 success / all validations passed, 1 validation failure, 2
configuration error (unreadable JSON, unknown key, missing required key, a
value of the wrong JSON type such as a string or a fractional number where an
integer belongs, an empty list, a non-finite position, an architecture the
command does not support (``rates``, ``mc`` and ``validate`` take
fsa_uniform, fsa_independent and bus; ``scan`` takes the architecture and
noise combinations of ``rates.scaling_scan``), a pair or drive whose length is
not ``L``, or a value outside its bounds: register lengths, ``L_values``
entries and ``positions.count`` in [1, 64], a Monte-Carlo scenario's ``L`` in
[1, 16], ``n_trajectories`` in [100, 10^6], ``seed`` and ``--seed`` in
[0, 2^64 - 1], ``--jobs`` in [1, 64], and a time grid of at most 2^20 steps),
3 physical-constraint violation (a missing bath ``coupling`` or ``cutoff``
or ``rates`` temperature, non-finite physical values, and rates, couplings or
coupling scales that overflow), 4 internal error (any other exception;
never reported as 1).

A scenario's grid has ``mcsim.grid_points(cutoff_ratio, fit_window)`` =
2 * cutoff_ratio * max(3.2, 1.15 * fit_window[1]) + 1 points rounded up to a
power of two; the bound is checked after the scenario is read, before any
work.

Units: natural units (hbar = k_B = 1) by default.  ``rates`` and
``couplings``, the commands that convert a value with it, accept an optional
``units`` block with frequencies in GHz and temperatures in kelvin; they are
converted at this boundary (time unit: ns) and the conversion factors are
recorded in the output header.
"""
from __future__ import annotations

import argparse
import dataclasses
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
# "--jobs": the thread pool starts a thread per queued chunk while none is idle.
_MAX_JOBS = 64


class ConfigError(Exception):
    """Malformed configuration (unknown key, wrong type, bad structure)."""


class PhysicalParameterError(ValueError):
    """A physical parameter is missing or violates its constraints."""


# The default of a required slot is the error its absence raises.
_REQUIRED = ConfigError
_PHYSICAL = PhysicalParameterError

Reader = Callable[[Any, str], Any]


class _Table(dict):
    """The slots of one JSON object, key -> (reader, default), in reading
    order.  A default is a JSON value passed through the slot's reader, None
    (the slot stays None) or ``_REQUIRED`` / ``_PHYSICAL``.  A table is the
    reader of a nested object, and a reader that wraps others exposes them
    (``item`` of a list, ``by_type`` of a type switch), so the whole slot set
    can be walked as data."""

    def __call__(self, value: Any, where: str) -> dict[str, Any]:
        return _read(value, self, where)


def _read(config: Any, table: Mapping[str, tuple[Reader, Any]], where: str) -> dict[str, Any]:
    """Every slot of ``table`` read from the JSON object ``config``: unknown
    keys are refused, and an absent or null slot takes its default."""
    if not isinstance(config, dict):
        raise ConfigError(f"{where or 'config'} must be an object, got {type(config).__name__}")
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: {', '.join(map(repr, unknown))}")
    values = {}
    for key, (reader, default) in table.items():
        path = f"{where}.{key}" if where else key
        value = default if config.get(key) is None else config[key]
        if isinstance(value, type):
            raise value(f"missing required key '{path}'")
        values[key] = None if value is None else reader(value, path)
    return values


def _number(value: Any, where: str) -> float:
    """A JSON number as a float.  Non-finite values pass: the physics rejects them."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is beyond the float range") from None


def _finite_number(value: Any, where: str) -> float:
    number = _number(value, where)
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {number}")
    return number


def _integer(lo: int, hi: int) -> Reader:
    """Reader of a JSON integer in [lo, hi]; an integral float such as 2.0 is
    accepted, 2.7 is not."""

    def read(value: Any, where: str) -> int:
        number = int(value) if isinstance(value, float) and value.is_integer() else value
        if isinstance(number, bool) or not isinstance(number, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        if not lo <= number <= hi:
            bound = f">= {lo}" if number < lo else f"<= {hi}"
            raise ConfigError(f"{where} must be {bound}, got {value!r}")
        return number

    return read


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _choice(options: type | Mapping[str, Any] | Sequence[str]) -> Reader:
    """Reader of one word of ``options``: an enum's values (read as its
    members), a mapping of words to values, or the words themselves."""
    if isinstance(options, type):
        options = {member.value: member for member in options}
    elif not isinstance(options, Mapping):
        options = dict(zip(options, options))

    def read(value: Any, where: str) -> Any:
        if not isinstance(value, str) or value not in options:
            raise ConfigError(
                f"{where} must be one of {', '.join(map(repr, options))}, got {value!r}"
            )
        return options[value]

    return read


def _items(item: Reader, length: int | None = None) -> Reader:
    """Reader of a non-empty JSON list (of exactly ``length`` entries if
    given) as a tuple, each entry read by ``item``."""

    def read(value: Any, where: str) -> tuple:
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            size = "non-empty" if length is None else f"{length}-entry"
            raise ConfigError(f"{where} must be a {size} list, got {value!r}")
        return tuple(item(entry, f"{where}[{i}]") for i, entry in enumerate(value))

    read.item = item
    return read


_JSON_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _by_type(readers: Mapping[type, Reader]) -> Reader:
    """Reader that reads a value by the reader of its JSON type."""

    def read(value: Any, where: str) -> Any:
        reader = readers.get(type(value))
        if reader is None:
            kinds = " or ".join(_JSON_KINDS[kind] for kind in readers)
            raise ConfigError(f"{where} must be {kinds}, got {value!r}")
        return reader(value, where)

    read.by_type = readers
    return read


def _label(value: Any, where: str) -> RegisterLabel:
    try:
        return RegisterLabel.from_string(_string(value, where))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


_seed = _integer(0, 2**64 - 1)
_jobs = _integer(1, _MAX_JOBS)

_UNITS = _Table(
    frequency=(_choice({"natural": 1.0, "ghz": GHZ_TO_NATURAL}), "natural"),
    temperature=(_choice({"natural": 1.0, "kelvin": KELVIN_TO_NATURAL}), "natural"),
)
_RATES_BATH = _Table(
    coupling=(_number, _PHYSICAL),
    cutoff=(_number, _PHYSICAL),
    temperature=(_number, _PHYSICAL),
    geometry=(_choice(Geometry), "1d"),
    velocity=(_number, 1.0),
)
_COUPLINGS_BATH = _Table(_RATES_BATH, temperature=(_number, 0.0))
# A coherence pair {"left": "+-...", "right": "..."}; ``_pair`` checks its length.
_PAIR = _Table(left=(_label, _REQUIRED), right=(_label, _REQUIRED))
_SCENARIO = _Table(
    name=(_string, None),
    architecture=(_choice(ArchKind), _REQUIRED),
    L=(_integer(1, _MAX_MC_QUBITS), _REQUIRED),
    pair=(_by_type({str: _choice(["worst_case"]), dict: _PAIR}), _REQUIRED),
    drive=(_items(_number), None),
    coupling=(_number, 1.0),
    temperature=(_number, 1.0),
    cutoff_ratio=(_number, 128.0),
    reference_rate=(_number, None),
    n_trajectories=(_integer(100, _MAX_TRAJECTORIES), None),
    fit_window=(_items(_number, 2), [0.5, 2.0]),  # [t_min, t_max] in units of 1/rate
)
_RATES = _Table(
    architecture=(_choice(ArchKind), _REQUIRED),
    L=(_integer(1, _MAX_QUBITS), _REQUIRED),
    bath=(_RATES_BATH, _REQUIRED),
    pairs=(_by_type({str: _choice(["all", "worst_case"]), list: _items(_PAIR)}), "all"),
    drive=(_items(_number), None),
    units=(_UNITS, {}),
)
_SCAN = _Table(
    architecture=(_choice(ArchKind), _REQUIRED),
    noise=(_choice(NoiseKind), _REQUIRED),
    L_values=(_items(_integer(1, _MAX_QUBITS)), _REQUIRED),
)
_GRID = _Table(count=(_integer(1, _MAX_QUBITS), _REQUIRED), spacing=(_number, _REQUIRED))
_COUPLINGS = _Table(
    bath=(_COUPLINGS_BATH, _REQUIRED),
    positions=(_by_type({list: _items(_finite_number), dict: _GRID}), _REQUIRED),
    units=(_UNITS, {}),
)
_MC = _Table(scenario=(_SCENARIO, _REQUIRED), seed=(_seed, DEFAULT_MASTER_SEED))
_VALIDATE = _Table(
    suite=(_choice(["default"]), "default"),
    scenarios=(_items(_SCENARIO), None),
    n_trajectories=(_integer(100, _MAX_TRAJECTORIES), None),
    seed=(_seed, DEFAULT_MASTER_SEED),
)


def _supporting(kind: ArchKind, field: str, what: str) -> ArchitectureRecord:
    """The record of ``kind``; a config error if it has no ``field`` (no ``what``)."""
    record = ARCHITECTURES[kind]
    if getattr(record, field) is None:
        names = [k.value for k, r in ARCHITECTURES.items() if getattr(r, field) is not None]
        raise ConfigError(
            f"{what} exist for {', '.join(names[:-1])} and {names[-1]}, not {kind.value}"
        )
    return record


def _bath(values: Mapping[str, Any]) -> OhmicBath:
    """The bath of a rates or couplings config, converted by its units block."""
    bath, units = values["bath"], values["units"]
    return OhmicBath(**{
        **bath,
        "cutoff": bath["cutoff"] * units["frequency"],
        "temperature": bath["temperature"] * units["temperature"],
    })


def _drive(phi: tuple[float, ...] | None, n_qubits: int, where: str) -> GateDrive | None:
    if phi is None:
        return None
    if len(phi) != n_qubits:
        raise ConfigError(f"{where} has {len(phi)} entries for L = {n_qubits}")
    return GateDrive(phi)


def _pair(pair: Mapping[str, RegisterLabel], n_qubits: int, where: str) -> CoherencePair:
    """The coherence pair read by ``_PAIR``; both labels must have ``n_qubits`` qubits."""
    for label in (pair["left"], pair["right"]):
        if len(label) != n_qubits:
            raise ConfigError(f"{where} has {len(label)} qubits but L = {n_qubits}")
    return CoherencePair(pair["left"], pair["right"])


def _rate_pairs(
    spec: str | tuple, kind: ArchKind, n_qubits: int, drive: GateDrive | None
) -> tuple[list[RegisterLabel], np.ndarray, np.ndarray]:
    """The table's distinct labels and, per pair, the indices of its two labels."""
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
    else:
        pairs = [_pair(entry, n_qubits, f"pairs[{i}]") for i, entry in enumerate(spec)]
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


def _json_cells(column: Sequence[Any] | _Coded) -> list[str]:
    """The JSON text of each cell of a column of scalars, from one call of the C
    encoder: an encoded scalar holds no line break, so one splits the cells."""
    if isinstance(column, _Coded):
        texts = _json_cells(column.values)
        return [texts[i] for i in column.index.tolist()]
    text = json.dumps(list(column), separators=("\n", ":"))[1:-1]
    return text.split("\n") if text else []


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
        # The bytes of json.dumps({"meta": meta, "rows": [...]}, indent=2), with
        # the flat rows put together from their cells' JSON text.
        row_text = "    {\n" + ",\n".join(
            "      " + json.dumps(name).replace("%", "%%") + ": %s" for name in table
        ) + "\n    }"
        rows = [row_text % row for row in zip(*map(_json_cells, table.values()))]
        meta_text = json.dumps(meta, indent=2).replace("\n", "\n  ")
        rows_text = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        text = f'{{\n  "meta": {meta_text},\n  "rows": {rows_text}\n}}\n'
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(text)



def _base_meta(
    command: str, config: Mapping, seed: int | None = None, units: Mapping | None = None
) -> dict[str, Any]:
    """The header of an output; a seed also goes into the config it records."""
    meta: dict[str, Any] = {"tool": f"gatenoise {command} v{__version__}", "config": config}
    if seed is not None:
        meta.update(config={**config, "seed": seed}, seed=seed)
    if units is not None and (units["frequency"] != 1.0 or units["temperature"] != 1.0):
        meta["unit_conversion"] = {
            "frequency_to_natural": units["frequency"],
            "temperature_to_natural": units["temperature"],
            "note": "natural units: hbar = k_B = 1, time in ns",
        }
    return meta


def _cmd_rates(values: Mapping, config: Mapping, args: argparse.Namespace) -> int:
    kind, n_qubits = values["architecture"], values["L"]
    record = _supporting(kind, "rate", "rate tables")
    bath = _bath(values)
    drive = _drive(values["drive"], n_qubits, "drive")
    if record.default_drive is not None and drive is None:
        raise ConfigError(f"{kind.value} rates require a 'drive' entry")
    labels, left, right = _rate_pairs(values["pairs"], kind, n_qubits, drive)
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
    meta = _base_meta("rates", config, units=values["units"])
    _write_output(args.output, args.format, meta, columns)
    return EXIT_OK


def _cmd_scan(values: Mapping, config: Mapping, args: argparse.Namespace) -> int:
    kind, noise = values["architecture"], values["noise"]
    if noise not in ARCHITECTURES[kind].laws:
        raise ConfigError(f"no scaling law in scope for {kind.value} with {noise.value} noise")
    points = scaling_scan(kind, noise, values["L_values"])
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
    _write_output(args.output, args.format, _base_meta("scan", config), columns)
    return EXIT_OK


def _cmd_couplings(values: Mapping, config: Mapping, args: argparse.Namespace) -> int:
    bath = _bath(values)
    positions = values["positions"]
    if isinstance(positions, dict):  # {count, spacing}
        count, spacing = positions["count"], positions["spacing"]
        if not math.isfinite((count - 1) * spacing):
            raise ConfigError(f"positions.spacing {spacing!r} puts site {count - 1} out of range")
        positions = [j * spacing for j in range(count)]
    n = len(positions)
    mu_sc = coupling_matrix(bath, positions, CouplingKind.SPURIOUS)
    mu_tr = coupling_matrix(bath, positions, CouplingKind.TRANSIENT)
    tr_1d, tr_3d = (
        coupling_matrix(
            dataclasses.replace(bath, geometry=geometry), positions, CouplingKind.TRANSIENT
        ).values
        for geometry in (Geometry.ONE_D, Geometry.THREE_D)
    )
    j, k = np.triu_indices(n, 1)
    pos = np.asarray(positions)
    r = np.abs(pos[k] - pos[j])
    columns = {
        "j": j.tolist(),
        "k": k.tolist(),
        "r_jk": r.tolist(),
        "x": (bath.cutoff * r / bath.velocity).tolist(),
        "mu_sc": mu_sc.values[j, k].tolist(),
        "mu_tr": mu_tr.values[j, k].tolist(),
        "mu_tr_1d": tr_1d[j, k].tolist(),
        "mu_tr_3d": tr_3d[j, k].tolist(),
        "tr_3d_dominates": (tr_3d[j, k] >= tr_1d[j, k]).tolist(),
    }
    meta = _base_meta("couplings", config, units=values["units"])
    meta["drive_enhancement"] = drive_enhancement(n, bath)
    meta["geometry"] = bath.geometry.value
    if args.format == "json":
        meta["mu_sc_matrix"] = [list(map(float, row)) for row in mu_sc.values]
        meta["mu_tr_matrix"] = [list(map(float, row)) for row in mu_tr.values]
    _write_output(args.output, args.format, meta, columns)
    return EXIT_OK


def _scenario(values: Mapping, seed: int, n_trajectories: int, where: str):
    """The Monte-Carlo scenario read by ``_SCENARIO``, with ``n_trajectories``
    where it sets none."""
    kind, n_qubits = values["architecture"], values["L"]
    _supporting(kind, "sources", "Monte-Carlo scenarios")
    drive = _drive(values["drive"], n_qubits, f"{where}.drive")
    if values["pair"] == "worst_case":
        pair = worst_case_pair(kind, n_qubits, drive)
    else:
        pair = _pair(values["pair"], n_qubits, f"{where}.pair")
    fit_window, cutoff_ratio = values["fit_window"], values["cutoff_ratio"]
    # Compared as is, so that NaN passes on to the physics, which rejects it.
    if grid_points(cutoff_ratio, fit_window) > _MAX_GRID_STEPS:
        raise ConfigError(
            f"{where}.cutoff_ratio {cutoff_ratio:g} with {where}.fit_window upper end "
            f"{fit_window[1]:g} needs a grid of more than {_MAX_GRID_STEPS} steps"
        )
    named = ("name", "coupling", "temperature", "cutoff_ratio", "reference_rate", "fit_window")
    return make_validation_scenario(
        kind, pair, drive=drive, master_seed=seed,
        n_trajectories=values["n_trajectories"] or n_trajectories,
        **{key: values[key] for key in named},
    )


def _cmd_mc(values: Mapping, config: Mapping, args: argparse.Namespace) -> int:
    seed = values["seed"]
    scenario = _scenario(values["scenario"], seed, 10_000, "scenario")
    trace = simulate_dephasing(
        scenario.arch, scenario.pair, scenario.bath, scenario.topology,
        scenario.cfg, jobs=args.jobs,
    )
    gamma = scenario.gamma_analytic
    estimate = fit_rate(trace, scenario.cfg.absolute_fit_window(gamma))
    meta = _base_meta("mc", config, seed=seed)
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


def _cmd_validate(values: Mapping, config: Mapping, args: argparse.Namespace) -> int:
    seed, n_override = values["seed"], values["n_trajectories"]
    if values["scenarios"] is None:  # the one bundled suite, "default"
        scenarios = default_validation_suite(master_seed=seed, n_trajectories=n_override)
    else:
        scenarios = [
            _scenario(entry, seed, n_override or 10_000, f"scenarios[{i}]")
            for i, entry in enumerate(values["scenarios"])
        ]
    reports = [validate_against_analytic(s, jobs=args.jobs) for s in scenarios]
    rows = [r.to_dict() for r in reports]
    meta = _base_meta("validate", config, seed=seed)
    meta["all_pass"] = all(r.passed for r in reports)
    columns = [
        "scenario", "gamma_analytic", "gamma_hat", "stderr", "rel_err", "z",
        "pass", "r_squared", "n_trajectories", "master_seed",
    ]
    _write_output(args.output, args.format, meta, _by_column(columns, rows))
    return EXIT_OK if meta["all_pass"] else EXIT_VALIDATION_FAILED


_COMMANDS = {
    "rates": (_cmd_rates, _RATES),
    "scan": (_cmd_scan, _SCAN),
    "couplings": (_cmd_couplings, _COUPLINGS),
    "mc": (_cmd_mc, _MC),
    "validate": (_cmd_validate, _VALIDATE),
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
        cmd.add_argument("--output", type=str, default=None, help="output file (default: stdout)")
        cmd.add_argument("--format", choices=["csv", "json"], default="csv")
        if name in ("mc", "validate"):  # the Monte-Carlo commands
            cmd.add_argument("--seed", type=int, default=None, help="master seed override")
            cmd.add_argument(
                "--jobs", type=int, default=1,
                help=f"engine threads (1 to {_MAX_JOBS}); above 1, BLAS runs "
                "single-threaded inside each",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, table = _COMMANDS[args.command]
    try:
        config: Any = {}
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            except ValueError as exc:  # also an undecodable file or an overlong integer
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        elif any(isinstance(default, type) for _, default in table.values()):
            raise ConfigError(f"'{args.command}' requires --config")
        values = _read(config, table, "")
        if getattr(args, "seed", None) is not None:
            values["seed"] = _seed(args.seed, "--seed")
        if hasattr(args, "jobs"):
            args.jobs = _jobs(args.jobs, "--jobs")
        return handler(values, config, args)
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
