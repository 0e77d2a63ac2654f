"""The rates table against the per-pair loop it replaced.

``oracle_rows`` keeps that loop (one ``CoherencePair`` and one row dict per
pair), with the arithmetic of the scalar ``rate_*`` functions written out, and
``oracle_write`` the ``csv.writer`` based writer; the CLI must reproduce their
bytes exactly.  The bath makes the order of the products matter: at L = 8,
(coupling T / 16) * 3 * 5 and (coupling T / 16) * 15 differ in the last bit.
"""
import csv
import io
import json

import numpy as np
import pytest

from gatenoise import cli, register
from gatenoise.cli import main
from gatenoise.noise import OhmicBath
from gatenoise.rates import (
    ArchitectureModel,
    ArchKind,
    rate_bus,
    rate_fsa_independent,
    rate_fsa_uniform,
    rate_table,
    worst_case_pair,
)
from gatenoise.register import (
    CoherencePair,
    GateDrive,
    enumerate_labels,
    hamming_distance,
    iter_coherence_pairs,
    pointer_bus,
    pointer_fsa_uniform,
    total_spin,
)

BATH = {"coupling": 1.1, "cutoff": 1.3, "temperature": 2.2}
COLUMNS = ["architecture", "L", "left", "right", "M", "Mp", "Nd", "Q", "Qp", "gamma"]


def oracle_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def oracle_write(fmt, meta, columns, rows):
    if fmt == "csv":
        buffer = io.StringIO()
        for key, value in meta.items():
            buffer.write(f"# {key}: {json.dumps(value, sort_keys=True, separators=(',', ':'))}\n")
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([oracle_cell(row.get(c)) for c in columns])
        return buffer.getvalue()
    payload = {"meta": meta, "rows": [dict(r) for r in rows]}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def oracle_rows(config):
    kind = ArchKind(config["architecture"])
    n_qubits = config["L"]
    bath = OhmicBath(**config["bath"])
    drive = GateDrive(tuple(config["drive"])) if "drive" in config else None
    spec = config["pairs"]
    if spec == "all":
        pairs = list(iter_coherence_pairs(n_qubits))
    elif spec == "worst_case":
        pairs = [worst_case_pair(kind, n_qubits, drive)]
    else:
        pairs = [CoherencePair.from_strings(e["left"], e["right"]) for e in spec]
    s0 = 2.0 * bath.temperature * bath.coupling
    rows = []
    for pair in pairs:
        m, mp = total_spin(pair.left), total_spin(pair.right)
        nd = hamming_distance(pair)
        q = qp = None
        if kind is ArchKind.FSA_INDEPENDENT:
            gamma = bath.coupling * bath.temperature / 16.0 * (n_qubits - nd) * nd
        else:
            if kind is ArchKind.FSA_UNIFORM:
                q, qp = pointer_fsa_uniform(pair.left), pointer_fsa_uniform(pair.right)
            else:
                q, qp = pointer_bus(pair.left, drive), pointer_bus(pair.right, drive)
            dq = q - qp
            gamma = 0.5 * s0 * dq * dq
        rows.append({
            "architecture": kind.value, "L": n_qubits,
            "left": str(pair.left), "right": str(pair.right),
            "M": m, "Mp": mp, "Nd": nd, "Q": q, "Qp": qp, "gamma": gamma,
        })
    return rows


def assert_cli_matches_oracle(tmp_path, capsys, config, stdout=True):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rows = oracle_rows(config)
    meta = cli._base_meta("rates", config, seed=None)
    for fmt in ("csv", "json"):
        expected = oracle_write(fmt, meta, COLUMNS, rows)
        out = tmp_path / f"rates.{fmt}"
        assert main(["rates", "--config", str(path), "--format", fmt, "--output", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        if stdout:
            capsys.readouterr()
            assert main(["rates", "--config", str(path), "--format", fmt]) == 0
            assert capsys.readouterr().out == expected
    return rows


def bus_drive(n_qubits):
    # label "+-..." has M = 0 and a negative drive sum, so its pointer is -0.0
    return [0.7] if n_qubits == 1 else [1.0, 2.0] + [0.0] * (n_qubits - 2)


@pytest.mark.parametrize("n_qubits", range(1, 9))
@pytest.mark.parametrize("architecture", ["fsa_uniform", "fsa_independent", "bus"])
def test_all_pairs_table_is_byte_identical(tmp_path, capsys, architecture, n_qubits):
    config = {"architecture": architecture, "L": n_qubits, "bath": BATH, "pairs": "all"}
    if architecture == "bus":
        config["drive"] = bus_drive(n_qubits)
    rows = assert_cli_matches_oracle(tmp_path, capsys, config, stdout=n_qubits <= 4)
    assert len(rows) == 2**n_qubits * (2**n_qubits + 1) // 2


def test_bus_negative_zero_pointer_is_written_as_such(tmp_path, capsys):
    config = {"architecture": "bus", "L": 2, "bath": BATH, "pairs": "all", "drive": [1.0, 2.0]}
    rows = assert_cli_matches_oracle(tmp_path, capsys, config)
    pointers = {row["left"]: row["Q"] for row in rows}
    assert pointers["+-"] == 0.0 and repr(pointers["+-"]) == "-0.0"
    assert ",-0.0," in (tmp_path / "rates.csv").read_text()


@pytest.mark.parametrize("architecture", ["fsa_uniform", "fsa_independent", "bus"])
def test_worst_case_and_explicit_tables_are_byte_identical(tmp_path, capsys, architecture):
    worst = {"architecture": architecture, "L": 5, "bath": BATH, "pairs": "worst_case"}
    explicit = {
        "architecture": architecture, "L": 3, "bath": BATH,
        "pairs": [{"left": "+-+", "right": "--+"}, {"left": "+++", "right": "+-+"},
                  {"left": "---", "right": "---"}, {"left": "+-+", "right": "+-+"}],
    }
    if architecture == "bus":
        worst["drive"] = [0.0, 1.5, 0.0, 1.5, 0.0]
        explicit["drive"] = [1.0, -2.0, 0.5]
    assert_cli_matches_oracle(tmp_path, capsys, worst)
    assert_cli_matches_oracle(tmp_path, capsys, explicit)


@pytest.mark.parametrize("n_qubits", [1, 3, 6])
@pytest.mark.parametrize("kind", [ArchKind.FSA_UNIFORM, ArchKind.FSA_INDEPENDENT, ArchKind.BUS])
def test_table_equals_scalar_rates_exactly(kind, n_qubits):
    bath = OhmicBath(**BATH)
    drive = GateDrive(tuple(bus_drive(n_qubits))) if kind is ArchKind.BUS else None
    labels = enumerate_labels(n_qubits)
    left, right = np.triu_indices(len(labels))
    table = rate_table(ArchitectureModel(kind, n_qubits, drive), bath, labels, left, right)
    scalar = {
        ArchKind.FSA_UNIFORM: lambda pair: rate_fsa_uniform(bath, pair),
        ArchKind.FSA_INDEPENDENT: lambda pair: rate_fsa_independent(bath, pair),
        ArchKind.BUS: lambda pair: rate_bus(bath, pair, drive),
    }[kind]
    pairs = list(iter_coherence_pairs(n_qubits))
    assert [(labels[i], labels[j]) for i, j in zip(left, right)] == [
        (p.left, p.right) for p in pairs
    ]
    assert table.gamma.tolist() == [scalar(pair).gamma for pair in pairs]
    assert table.hamming.tolist() == [hamming_distance(pair) for pair in pairs]
    if kind is ArchKind.FSA_INDEPENDENT:
        assert table.pointers is None
    else:
        pointer = pointer_fsa_uniform if drive is None else lambda lab: pointer_bus(lab, drive)
        assert list(map(repr, table.pointers)) == [repr(pointer(label)) for label in labels]


@pytest.mark.parametrize("architecture", ["hypercube", "processor_core"])
def test_unsupported_architecture_exits_2_before_enumerating(
    tmp_path, capsys, monkeypatch, architecture
):
    calls = []
    for owner in (cli, register):
        for name in ("enumerate_labels", "iter_coherence_pairs"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, lambda *a, _n=name, **k: calls.append(_n))
    path = tmp_path / "rates.json"
    path.write_text(json.dumps({"architecture": architecture, "L": 4, "bath": BATH,
                                "pairs": "all"}))
    out = tmp_path / "r.csv"
    assert main(["rates", "--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "rate tables exist for" in err and len(err.strip().splitlines()) == 1
    assert calls == []
    assert not out.exists()


def test_explicit_pair_of_another_length_exits_2(tmp_path, capsys):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps({"architecture": "fsa_independent", "L": 3, "bath": BATH,
                                "pairs": [{"left": "++", "right": "+-"}]}))
    out = tmp_path / "r.csv"
    assert main(["rates", "--config", str(path), "--output", str(out)]) == 2
    assert "pairs[0] has 2 qubits but L = 3" in capsys.readouterr().err
    assert not out.exists()


def test_writer_quotes_like_csv_writer(tmp_path):
    # every cell type the commands write, and strings that need quoting
    text_cells = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " pad ", "semi;colon"]
    n = len(text_cells)
    columns = {
        "name": text_cells,
        "flag": [True, False] * (n // 2),
        "maybe": [None, 1.5] * (n // 2),
        "count": list(range(n)),
        "value": [-0.0, 1e-300, float("inf"), float("nan"), 0.1, 2.0, -3.5, 1e22],
        "coded": cli._Coded(["x,y", None, 7], np.array([0, 1, 2, 0, 1, 2, 0, 1])),
    }
    rows = [
        {"name": text_cells[i], "flag": columns["flag"][i], "maybe": columns["maybe"][i],
         "count": i, "value": columns["value"][i],
         "coded": ["x,y", None, 7][columns["coded"].index[i]]}
        for i in range(n)
    ]
    meta = {"tool": "test", "config": {"a": [1, 2]}}
    for fmt in ("csv", "json"):
        out = tmp_path / f"t.{fmt}"
        cli._write_output(str(out), fmt, meta, columns)
        assert out.read_bytes() == oracle_write(fmt, meta, list(columns), rows).encode()
