import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gatenoise import cli
from gatenoise.cli import main
from gatenoise.couplings import CouplingKind, coupling_matrix, kernel_h
from gatenoise.noise import Geometry, OhmicBath
from gatenoise.rates import ArchKind, rate_fsa_uniform, worst_case_pair


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    header_lines = []
    rows = []
    with open(path) as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#") or header_lines.append(line.rstrip("\n")) or False)
        columns = next(reader)
        for row in reader:
            rows.append(dict(zip(columns, row)))
    return header_lines, columns, rows


BATH = {"coupling": 1.0, "cutoff": 50.0, "temperature": 1.0}


def test_rates_all_pairs_row_count(tmp_path):
    config = write_config(
        tmp_path,
        {"architecture": "fsa_uniform", "L": 2, "bath": BATH, "pairs": "all"},
    )
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", config, "--output", str(out)]) == 0
    header, columns, rows = read_csv(out)
    # 16 ordered label pairs deduplicated to 10 unordered (diagonal included)
    assert len(rows) == 10
    assert columns[:2] == ["architecture", "L"]
    assert any(line.startswith("# config:") for line in header)


def test_rates_missing_temperature_exits_3(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"architecture": "fsa_uniform", "L": 2,
         "bath": {"coupling": 1.0, "cutoff": 50.0}, "pairs": "all"},
    )
    assert main(["rates", "--config", config]) == 3
    assert "temperature" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("coupling", math.nan), ("cutoff", math.inf)])
def test_rates_non_finite_bath_exits_3(tmp_path, capsys, field, value):
    config = write_config(
        tmp_path,
        {"architecture": "fsa_uniform", "L": 2, "bath": {**BATH, field: value},
         "pairs": "all"},
    )
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", config, "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


def assert_one_line_exit(code, argv, out, capsys):
    assert main([*argv, "--output", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()
    return err


MC_SCENARIO = {"architecture": "fsa_uniform", "L": 2, "pair": {"left": "++", "right": "+-"},
               "n_trajectories": 500}


def test_mc_fit_window_of_wrong_type_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"scenario": {**MC_SCENARIO, "fit_window": "ab"}})
    err = assert_one_line_exit(2, ["mc", "--config", config], tmp_path / "mc.csv", capsys)
    assert "fit_window" in err


@pytest.mark.parametrize("value", [2.7, "abc"])
def test_rates_non_integer_register_length_exits_2(tmp_path, capsys, value):
    config = write_config(
        tmp_path, {"architecture": "fsa_uniform", "L": value, "bath": BATH, "pairs": "all"}
    )
    err = assert_one_line_exit(2, ["rates", "--config", config], tmp_path / "r.csv", capsys)
    assert "L must be an integer" in err


def test_couplings_overflowing_cutoff_exits_3(tmp_path, capsys):
    # cutoff^2 of the spurious coupling is beyond the float range
    config = write_config(
        tmp_path, {"bath": {**BATH, "cutoff": 1e300}, "positions": [0.0, 1.0]}
    )
    err = assert_one_line_exit(3, ["couplings", "--config", config], tmp_path / "c.csv", capsys)
    assert "overflows" in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("rates", {"architecture": "fsa_uniform", "L": 1e9, "bath": BATH, "pairs": "worst_case"}),
        ("scan", {"architecture": "fsa_uniform", "noise": "central", "L_values": [2, 10**9]}),
        ("couplings", {"bath": BATH, "positions": {"count": 10**9, "spacing": 1.0}}),
        ("mc", {"scenario": {**MC_SCENARIO, "L": 10**9}}),
        ("mc", {"scenario": {**MC_SCENARIO, "n_trajectories": 1e30}}),
        ("validate", {"n_trajectories": 10**30}),
    ],
    ids=["rates_L", "scan_L_values", "positions_count", "mc_L", "mc_n_trajectories",
         "validate_n_trajectories"],
)
def test_oversized_config_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, config):
    calls = []
    for name in ("worst_case_pair", "scaling_scan", "coupling_matrix", "GateDrive",
                 "make_validation_scenario", "default_validation_suite"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
    path = write_config(tmp_path, config)
    err = assert_one_line_exit(2, [command, "--config", path], tmp_path / "out.csv", capsys)
    assert "must be <=" in err
    assert calls == []


def test_non_string_pair_label_exits_2(tmp_path, capsys):
    scenario = {**MC_SCENARIO, "pair": {"left": 5, "right": "+-"}}
    config = write_config(tmp_path, {"scenario": scenario})
    err = assert_one_line_exit(2, ["mc", "--config", config], tmp_path / "mc.csv", capsys)
    assert "scenario.pair.left" in err


def test_scan_leaves_exponent_empty_next_to_a_zero_rate(tmp_path):
    # one qubit has no central-noise rate, so no log-log slope reaches L = 1
    config = write_config(
        tmp_path, {"architecture": "fsa_uniform", "noise": "central", "L_values": [1, 2, 4]}
    )
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", config, "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert [r["local_exponent"] for r in rows[:2]] == ["", ""]
    assert float(rows[2]["local_exponent"]) == pytest.approx(4.0, abs=1e-12)


def test_internal_error_exits_4_not_validation_failed(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "rate_table", crash)
    config = write_config(
        tmp_path, {"architecture": "fsa_uniform", "L": 2, "bath": BATH, "pairs": "all"}
    )
    err = assert_one_line_exit(4, ["rates", "--config", config], tmp_path / "r.csv", capsys)
    assert "internal error: RuntimeError: simulated fault" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"architecture": "fsa_uniform", "L": 2, "bath": BATH, "pairs": "all",
         "unexpected": 1},
    )
    assert main(["rates", "--config", config]) == 2
    assert "unexpected" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["rates", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("mc", {"scenario": {**MC_SCENARIO, "pair": {"left": "+x", "right": "+-"}}},
         "invalid label character 'x'"),
        ("rates", {"architecture": "fsa_uniform", "L": 9, "bath": BATH, "pairs": "all"},
         "capped at L <= 8"),
        ("rates", {"architecture": "fsa_uniform", "L": 2, "bath": {**BATH, "coupling": 10**399},
                   "pairs": "all"}, "bath.coupling is beyond the float range"),
        ("rates", None, "cannot read config"),
    ],
    ids=["label_character", "all_pairs_above_8", "integer_of_400_digits", "missing_file"],
)
def test_config_refusals_exit_2(tmp_path, capsys, command, config, message):
    path = str(tmp_path / "missing.json") if config is None else write_config(tmp_path, config)
    err = assert_one_line_exit(2, [command, "--config", path], tmp_path / "out.csv", capsys)
    assert message in err


def test_rates_worst_case_delegates(tmp_path):
    config = write_config(
        tmp_path,
        {"architecture": "fsa_uniform", "L": 4, "bath": BATH, "pairs": "worst_case"},
    )
    out = tmp_path / "wc.csv"
    assert main(["rates", "--config", config, "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1
    pair = worst_case_pair(ArchKind.FSA_UNIFORM, 4)
    bath = OhmicBath(coupling=1.0, cutoff=50.0, temperature=1.0)
    assert float(rows[0]["gamma"]) == rate_fsa_uniform(bath, pair).gamma
    assert rows[0]["left"] == str(pair.left)


def test_rates_explicit_pairs_and_json_mirror(tmp_path):
    config = write_config(
        tmp_path,
        {
            "architecture": "bus",
            "L": 2,
            "bath": BATH,
            "drive": [1.0, 1.0],
            "pairs": [{"left": "++", "right": "+-"}],
        },
    )
    out_csv = tmp_path / "bus.csv"
    out_json = tmp_path / "bus.json"
    assert main(["rates", "--config", config, "--output", str(out_csv)]) == 0
    assert main(["rates", "--config", config, "--output", str(out_json), "--format", "json"]) == 0
    _, _, rows = read_csv(out_csv)
    payload = json.loads(out_json.read_text())
    assert float(rows[0]["gamma"]) == payload["rows"][0]["gamma"] == 16.0
    assert float(rows[0]["Q"]) == payload["rows"][0]["Q"] == 4.0


def test_scan_exponent_columns(tmp_path):
    config = write_config(
        tmp_path,
        {"architecture": "fsa_uniform", "noise": "central", "L_values": [2, 4, 8, 16]},
    )
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", config, "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert rows[0]["local_exponent"] == ""
    for row in rows[1:]:
        assert float(row["local_exponent"]) == pytest.approx(4.0, abs=1e-12)


def test_scan_hypercube_relative_rates(tmp_path):
    config = write_config(
        tmp_path,
        {"architecture": "hypercube", "noise": "independent", "L_values": [2, 4, 8]},
    )
    out = tmp_path / "cube.json"
    assert main(["scan", "--config", config, "--output", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["relative_rate"] for r in rows] == [1.0, 4.0, 12.0]


def test_couplings_chain_and_enhancement(tmp_path):
    config = write_config(
        tmp_path,
        {
            "bath": {"coupling": 1.0, "cutoff": 1.0, "velocity": 1.0},
            "positions": {"count": 4, "spacing": 1.0},
        },
    )
    out = tmp_path / "couplings.json"
    assert main(["couplings", "--config", config, "--output", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    nn = [r for r in payload["rows"] if r["k"] - r["j"] == 1]
    assert all(abs(r["mu_sc"]) < 1e-14 for r in nn)  # zero crossing at x = 1
    assert any(abs(r["mu_sc"]) > 1e-3 for r in payload["rows"] if r["k"] - r["j"] > 1)
    assert payload["meta"]["drive_enhancement"] == pytest.approx(
        1.0 + 4.0 / (4.0 * math.pi), rel=1e-12
    )
    assert len(payload["meta"]["mu_sc_matrix"]) == 4


def test_couplings_single_qubit(tmp_path):
    config = write_config(
        tmp_path,
        {"bath": {"coupling": 1.0, "cutoff": 1.0}, "positions": [0.0]},
    )
    out = tmp_path / "single.csv"
    assert main(["couplings", "--config", config, "--output", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert rows == []  # no off-diagonal map for one qubit
    enh = [l for l in header if l.startswith("# drive_enhancement")]
    assert enh and float(enh[0].split(":")[1]) == pytest.approx(
        1.0 + 1.0 / (4.0 * math.pi), rel=1e-12
    )



def reference_coupling_rows(bath, positions):
    """The couplings table pair by pair, with the closed forms written out."""
    rows = []
    mu_sc = coupling_matrix(bath, positions, CouplingKind.SPURIOUS).values
    mu_tr = coupling_matrix(bath, positions, CouplingKind.TRANSIENT).values
    scale = 2.0 * bath.coupling * bath.cutoff / math.pi
    for j in range(len(positions)):
        for k in range(j + 1, len(positions)):
            r = abs(positions[k] - positions[j])
            x = bath.cutoff * r / bath.velocity
            tr_1d = scale * kernel_h(x, Geometry.ONE_D)
            tr_3d = scale * kernel_h(x, Geometry.THREE_D)
            rows.append({
                "j": j, "k": k, "r_jk": r, "x": x,
                "mu_sc": float(mu_sc[j, k]), "mu_tr": float(mu_tr[j, k]),
                "mu_tr_1d": tr_1d, "mu_tr_3d": tr_3d, "tr_3d_dominates": bool(tr_3d >= tr_1d),
            })
    return rows


@pytest.mark.parametrize("geometry", ["1d", "3d"])
@pytest.mark.parametrize(
    "positions",
    [{"count": 64, "spacing": 0.37}, [0.0, 1.3, -0.4, 2.2, 5.0], [0.0]],
    ids=["grid64", "listed", "single"],
)
def test_couplings_table_matches_pairwise_reference(tmp_path, geometry, positions):
    bath_cfg = {"coupling": 0.05, "cutoff": 2.0, "geometry": geometry, "velocity": 0.7}
    config = write_config(tmp_path, {"bath": bath_cfg, "positions": positions})
    out = tmp_path / "couplings.json"
    assert main(["couplings", "--config", config, "--output", str(out), "--format", "json"]) == 0
    bath = OhmicBath(coupling=0.05, cutoff=2.0, geometry=Geometry(geometry), velocity=0.7)
    if isinstance(positions, dict):
        positions = [j * positions["spacing"] for j in range(positions["count"])]
    expected = reference_coupling_rows(bath, positions)
    assert json.dumps(json.loads(out.read_text())["rows"]) == json.dumps(expected)


@pytest.mark.parametrize("geometry", ["1d", "3d"])
def test_couplings_builds_the_transient_matrix_once_per_geometry(tmp_path, monkeypatch, geometry):
    # the bath's own transient matrix is its geometry's column: the command
    # builds three coupling matrices, not four, and writes the same table
    calls, build = [], cli.coupling_matrix

    def counting(bath, positions, kind):
        calls.append((bath.geometry.value, kind))
        return build(bath, positions, kind)

    monkeypatch.setattr(cli, "coupling_matrix", counting)
    bath_cfg = {"coupling": 0.05, "cutoff": 2.0, "geometry": geometry, "velocity": 0.7}
    positions = [0.0, 1.3, -0.4, 2.2, 5.0]
    config = write_config(tmp_path, {"bath": bath_cfg, "positions": positions})
    out = tmp_path / "couplings.json"
    assert main(["couplings", "--config", config, "--output", str(out), "--format", "json"]) == 0
    assert sorted(calls, key=str) == sorted(
        [(geometry, CouplingKind.SPURIOUS), ("1d", CouplingKind.TRANSIENT),
         ("3d", CouplingKind.TRANSIENT)], key=str,
    )
    bath = OhmicBath(coupling=0.05, cutoff=2.0, geometry=Geometry(geometry), velocity=0.7)
    mu_tr = build(bath, positions, CouplingKind.TRANSIENT).values
    assert json.loads(out.read_text())["meta"]["mu_tr_matrix"] == mu_tr.tolist()


def test_mc_seed_flag_changes_bytes_not_physics(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": {
                "architecture": "fsa_uniform",
                "L": 2,
                "pair": {"left": "++", "right": "+-"},
                "n_trajectories": 2000,
            }
        },
    )
    outs = []
    for seed in ("101", "202"):
        out = tmp_path / f"mc_{seed}.json"
        code = main(["mc", "--config", config, "--seed", seed, "--output", str(out), "--format", "json"])
        assert code == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["rows"] != outs[1]["rows"]
    g1, g2 = outs[0]["meta"]["gamma_hat"], outs[1]["meta"]["gamma_hat"]
    s1, s2 = outs[0]["meta"]["stderr_gamma"], outs[1]["meta"]["stderr_gamma"]
    assert abs(g1 - g2) < 4.0 * math.hypot(s1, s2)



def test_mc_bus_worst_case_takes_the_default_drive(tmp_path):
    scenario = {"architecture": "bus", "L": 4, "pair": "worst_case", "n_trajectories": 600}
    rows = []
    for tag, extra in (("default", {}), ("explicit", {"drive": [1, 1, 0, 0]})):
        config = write_config(tmp_path, {"scenario": {**scenario, **extra}}, f"{tag}.json")
        out = tmp_path / f"{tag}.csv"
        assert main(["mc", "--config", config, "--output", str(out)]) == 0
        rows.append([line for line in out.read_bytes().splitlines() if not line.startswith(b"#")])
    assert len(rows[0]) == 258  # column names and 257 report points
    assert rows[0] == rows[1]

def test_mc_trace_output_columns(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": {
                "architecture": "fsa_uniform",
                "L": 2,
                "pair": {"left": "++", "right": "+-"},
                "n_trajectories": 500,
            }
        },
    )
    out = tmp_path / "trace.csv"
    assert main(["mc", "--config", config, "--output", str(out)]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["t", "abs_C", "arg_C", "stderr"]
    assert float(rows[0]["abs_C"]) == 1.0


@pytest.mark.parametrize(
    "scenario",
    [MC_SCENARIO, {"architecture": "bus", "L": 3, "pair": "worst_case",
                   "drive": [1.0, 1.0, 0.0], "n_trajectories": 500}],
    ids=["fsa_uniform", "bus"],
)
def test_mc_reports_the_fit_of_the_validate_verdict(tmp_path, scenario):
    # one path simulates and fits both: mc's header carries the validate row's fit
    seed = ["--seed", "11", "--format", "json"]
    mc_out, validate_out = tmp_path / "mc.json", tmp_path / "validate.json"
    mc_config = write_config(tmp_path, {"scenario": scenario}, "mc.json")
    validate_config = write_config(tmp_path, {"scenarios": [scenario]}, "validate.json")
    assert main(["mc", "--config", mc_config, "--output", str(mc_out), *seed]) == 0
    assert main(["validate", "--config", validate_config, "--output", str(validate_out),
                 *seed]) in (0, 1)
    meta = json.loads(mc_out.read_text())["meta"]
    row = json.loads(validate_out.read_text())["rows"][0]
    assert (meta["gamma_hat"], meta["stderr_gamma"], meta["r_squared"]) == (
        row["gamma_hat"], row["stderr"], row["r_squared"])
    assert (meta["scenario"], meta["gamma_analytic"]) == (row["scenario"], row["gamma_analytic"])


def test_validate_single_scenario_pass(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenarios": [
                {
                    "architecture": "fsa_uniform",
                    "L": 3,
                    "pair": {"left": "+++", "right": "++-"},
                    "n_trajectories": 20000,
                }
            ]
        },
    )
    out = tmp_path / "validate.json"
    assert main(["validate", "--config", config, "--output", str(out), "--format", "json", "--jobs", "4"]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["all_pass"] is True
    assert payload["rows"][0]["pass"] is True


def test_failing_verdict_exits_1_from_validate_only(tmp_path, monkeypatch):
    # every verdict fails: validate still writes its table and exits 1, while
    # mc, which reports the trace whatever the verdict, exits 0
    real = cli.validate_against_analytic
    monkeypatch.setattr(
        cli, "validate_against_analytic",
        lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), passed=False),
    )
    validate_config = write_config(tmp_path, {"scenarios": [MC_SCENARIO]}, "validate.json")
    out = tmp_path / "validate.csv"
    assert main(["validate", "--config", validate_config, "--output", str(out)]) == 1
    header, _, rows = read_csv(out)
    assert "# all_pass: false" in header
    assert [row["pass"] for row in rows] == ["false"]
    mc_config = write_config(tmp_path, {"scenario": MC_SCENARIO}, "mc.json")
    out = tmp_path / "mc.csv"
    assert main(["mc", "--config", mc_config, "--output", str(out)]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["t", "abs_C", "arg_C", "stderr"] and len(rows) > 1


@pytest.mark.parametrize("command", ["mc", "validate"])
def test_validate_white_noise_guard_exit_3(tmp_path, capsys, command):
    # both Monte-Carlo commands reach the verdict's flat-spectrum guard
    scenario = {
        "architecture": "fsa_uniform",
        "L": 2,
        "pair": {"left": "++", "right": "+-"},
        "cutoff_ratio": 1.0,  # cutoff == analytic rate
        "n_trajectories": 500,
    }
    payload = {"scenario": scenario} if command == "mc" else {"scenarios": [scenario]}
    config = write_config(tmp_path, payload)
    assert main([command, "--config", config]) == 3
    assert "flat-spectrum" in capsys.readouterr().err


def test_byte_identical_across_jobs_and_reruns(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": {
                "architecture": "fsa_independent",
                "L": 4,
                "pair": {"left": "++++", "right": "--++"},
                "n_trajectories": 1200,
            },
            "seed": 777,
        },
    )
    blobs = []
    for tag, jobs in [("a", "1"), ("b", "3"), ("c", "1")]:
        out = tmp_path / f"run_{tag}.csv"
        assert main(["mc", "--config", config, "--output", str(out), "--jobs", jobs]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_csv_and_json_numeric_equality(tmp_path):
    config = write_config(
        tmp_path,
        {"architecture": "fsa_independent", "L": 3, "bath": BATH, "pairs": "all"},
    )
    out_csv = tmp_path / "r.csv"
    out_json = tmp_path / "r.json"
    assert main(["rates", "--config", config, "--output", str(out_csv)]) == 0
    assert main(["rates", "--config", config, "--output", str(out_json), "--format", "json"]) == 0
    _, _, rows = read_csv(out_csv)
    json_rows = json.loads(out_json.read_text())["rows"]
    assert len(rows) == len(json_rows)
    for csv_row, json_row in zip(rows, json_rows):
        assert float(csv_row["gamma"]) == json_row["gamma"]
        assert int(csv_row["Nd"]) == json_row["Nd"]


def test_units_block_converts_and_reports(tmp_path):
    config = write_config(
        tmp_path,
        {
            "architecture": "fsa_uniform",
            "L": 2,
            "bath": {"coupling": 1.0, "cutoff": 5.0, "temperature": 0.02},
            "pairs": "worst_case",
            "units": {"frequency": "ghz", "temperature": "kelvin"},
        },
    )
    out = tmp_path / "units.json"
    assert main(["rates", "--config", config, "--output", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    factors = payload["meta"]["unit_conversion"]
    assert factors["frequency_to_natural"] == pytest.approx(2.0 * math.pi)
    # gamma scales linearly with temperature: converted kelvin value applies
    assert payload["rows"][0]["gamma"] == pytest.approx(
        (0.02 * factors["temperature_to_natural"]) * 4.0, rel=1e-12
    )


# sha256 of the default `validate --format json` output.
DEFAULT_VALIDATE_SHA256 = "8015ea0d41e1f698c4c598fa96ba458bc0762f447ec8c4c6a13ad763873484ad"


def test_validate_default_suite_all_pass(tmp_path):
    # `validate` without a config runs the bundled suite; it must exit 0
    out = tmp_path / "suite.json"
    assert main(["validate", "--output", str(out), "--format", "json", "--jobs", "4"]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["all_pass"] is True
    assert len(payload["rows"]) == 14
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_VALIDATE_SHA256


def test_commands_require_config_except_validate():
    assert main(["scan"]) == 2
    assert main(["rates"]) == 2
    assert main(["couplings"]) == 2
    assert main(["mc"]) == 2



@pytest.mark.parametrize("flag", [["--seed", "7"], ["--jobs", "2"]], ids=["seed", "jobs"])
@pytest.mark.parametrize("command", ["rates", "scan", "couplings"])
def test_flags_of_the_monte_carlo_commands_are_refused_elsewhere(tmp_path, command, flag):
    # rates, scan and couplings draw no noise and run no threads
    config = write_config(tmp_path, {"bath": BATH, "positions": [0.0, 1.0]})
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", config, *flag])
    assert exit_info.value.code == 2

@pytest.mark.parametrize(
    "scenario",
    [{"fit_window": [0.5, 1e4]}, {"fit_window": [0.5, 1e6]}, {"cutoff_ratio": 1e6}],
    ids=["fit_window_1e4", "fit_window_1e6", "cutoff_ratio_1e6"],
)
@pytest.mark.parametrize("command", ["mc", "validate"])
def test_oversized_grid_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, scenario):
    calls = []
    monkeypatch.setattr(cli, "make_validation_scenario", lambda *a, **k: calls.append(1))
    scenario = {**MC_SCENARIO, **scenario}
    config = {"scenario": scenario} if command == "mc" else {"scenarios": [scenario]}
    path = write_config(tmp_path, config)
    err = assert_one_line_exit(2, [command, "--config", path], tmp_path / "out.csv", capsys)
    assert f"more than {2**20} steps" in err
    assert calls == []


@pytest.mark.parametrize("cutoff_ratio", [20.0, 128.0, 1000.0])
@pytest.mark.parametrize("t_max", [1.0, 2.0, 7.5, 300.0])
@pytest.mark.parametrize("gamma", [0.013, 1.0, 37.0])
def test_grid_bound_reads_the_grid_the_scenario_builds(cutoff_ratio, t_max, gamma):
    from gatenoise.mcsim import _grid_for_rate, grid_points

    _, n_steps = _grid_for_rate(gamma, cutoff_ratio * gamma, (0.5, t_max))
    assert n_steps == 1 << max(4, math.ceil(math.log2(grid_points(cutoff_ratio, (0.5, t_max)))))


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("mc", {"scenario": {**MC_SCENARIO, "architecture": "hypercube", "L": 3,
                             "pair": "worst_case"}}, "Monte-Carlo scenarios exist for"),
        ("mc", {"scenario": {**MC_SCENARIO, "architecture": "processor_core", "L": 4,
                             "pair": "worst_case"}}, "Monte-Carlo scenarios exist for"),
        ("validate", {"scenarios": [{**MC_SCENARIO, "architecture": "hypercube", "L": 4,
                                     "pair": "worst_case"}]}, "Monte-Carlo scenarios exist for"),
        ("scan", {"architecture": "bus", "noise": "independent", "L_values": [2, 4]},
         "no scaling law in scope for bus with independent noise"),
        ("scan", {"architecture": "fsa_uniform", "noise": "independent", "L_values": [2]},
         "no scaling law in scope"),
    ],
    ids=["mc_hypercube_L3", "mc_processor_core", "validate_hypercube", "scan_bus_independent",
         "scan_fsa_uniform_independent"],
)
def test_unsupported_architecture_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, config, message
):
    calls = []
    for name in ("worst_case_pair", "scaling_scan", "make_validation_scenario",
                 "default_validation_suite", "validate_against_analytic"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
    path = write_config(tmp_path, config)
    err = assert_one_line_exit(2, [command, "--config", path], tmp_path / "out.csv", capsys)
    assert "config error" in err and message in err
    assert calls == []


@pytest.mark.parametrize(
    "config",
    [
        {"architecture": "fsa_uniform", "L": 2, "bath": {**BATH, "coupling": 1e308}},
        {"architecture": "fsa_uniform", "L": 2, "bath": {**BATH, "temperature": 1e308}},
        {"architecture": "bus", "L": 2, "bath": BATH, "drive": [1e308, 1]},
        {"architecture": "fsa_independent", "L": 2,
         "bath": {**BATH, "coupling": 1e308, "temperature": 10.0}},
    ],
    ids=["fsa_uniform_coupling", "fsa_uniform_temperature", "bus_drive", "fsa_independent"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_beyond_the_float_range_exits_3(tmp_path, capsys, config):
    err = assert_one_line_exit(3, ["rates", "--config", write_config(tmp_path, config)],
                               tmp_path / "r.csv", capsys)
    assert "overflows" in err


@pytest.mark.parametrize(
    "positions, where",
    [([0.0, math.nan, 1.0], "positions[1]"), ([0.0, math.inf], "positions[1]"),
     ({"count": 3, "spacing": 1e308}, "positions.spacing"),
     ({"count": 2, "spacing": math.nan}, "positions.spacing")],
    ids=["nan", "inf", "grid_overflow", "grid_nan"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_positions_exit_2_naming_the_slot(tmp_path, capsys, positions, where):
    config = write_config(tmp_path, {"bath": BATH, "positions": positions})
    err = assert_one_line_exit(2, ["couplings", "--config", config], tmp_path / "c.csv", capsys)
    assert where in err


@pytest.mark.parametrize("geometry", ["1d", "3d"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_apart_positions_give_finite_couplings_or_exit_3(tmp_path, capsys, geometry):
    bath = {"coupling": 0.05, "cutoff": 2.0, "geometry": geometry}
    config = write_config(tmp_path, {"bath": bath, "positions": [0.0, 1e200, -1e200]})
    out = tmp_path / "far.json"
    code = main(["couplings", "--config", config, "--output", str(out), "--format", "json"])
    err = capsys.readouterr().err
    assert "symmetric" not in err
    if code == 0:
        rows = json.loads(out.read_text())["rows"]
        assert all(math.isfinite(v) for row in rows for v in row.values())
    else:
        assert code == 3 and "overflows" in err and not out.exists()


@pytest.mark.parametrize("geometry", ["1d", "3d"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_apart_positions_give_finite_couplings(tmp_path, capsys, geometry):
    bath = {"coupling": 0.05, "cutoff": 2.0, "geometry": geometry}
    config = write_config(tmp_path, {"bath": bath, "positions": [0.0, 1e200, -1e200]})
    out = tmp_path / "far.json"
    assert main(["couplings", "--config", config, "--output", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 3
    assert all(math.isfinite(v) for row in rows for v in row.values())


def test_json_writer_matches_an_indented_dump(tmp_path):
    # non-ASCII and escaped text, a '%' in a column name, nested meta, no rows
    meta = {"tool": "t\u00e9st", "config": {"a": [1, {"b": None}], "c": {}}, "e": []}
    table = {
        "100%": ["caf\u00e9", "tab\there", "%s", "\u2603"],
        "x": [1.5, -0.0, float("nan"), None],
        "coded": cli._Coded([True, "q\"uote"], np.array([0, 1, 1, 0])),
    }
    rows = [{"100%": a, "x": b, "coded": [True, 'q"uote'][i]}
            for a, b, i in zip(table["100%"], table["x"], [0, 1, 1, 0])]
    empty = {"j": [], "k": cli._Coded([], np.array([], dtype=np.intp))}
    for columns, expected in ((table, rows), (empty, [])):
        out = tmp_path / "t.json"
        cli._write_output(str(out), "json", meta, columns)
        payload = {"meta": meta, "rows": expected}
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def test_writer_row_blocks_change_no_byte(tmp_path, capsys, monkeypatch):
    # blocks of 1 and 7 rows, and one block for the whole table, give the bytes
    # of the default block height, to a file and to stdout
    table = {
        "k": list(range(40)),
        "x": [0.1 * k if k % 3 else None for k in range(40)],
        "coded": cli._Coded(["a,b", 'q"uote', True], np.arange(40) % 3),
    }
    meta = {"tool": "t", "config": {"a": [1]}}
    expected = {}
    for rows in (cli._BLOCK_ROWS, 1, 7, 40):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        for fmt in ("csv", "json"):
            out = tmp_path / f"t.{fmt}"
            cli._write_output(str(out), fmt, meta, table)
            cli._write_output(None, fmt, meta, table)
            text = out.read_bytes().decode()
            assert capsys.readouterr().out == text, (rows, fmt)
            assert expected.setdefault(fmt, text) == text, (rows, fmt)
    assert json.loads(expected["json"])["rows"][4] == {"k": 4, "x": 0.4, "coded": 'q"uote'}


class _HashingSink:
    """A stdout that keeps only a hash of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rates_writer_holds_one_row_block(tmp_path, monkeypatch, fmt):
    # L = 8, all 32896 pairs.  Built whole, the table's cells and text peaked
    # at 13.4 MiB (CSV) and 31 MiB (JSON) under tracemalloc; written in
    # 2048-row blocks the whole command peaks at 3.3 / 3.9 MiB, of which the
    # rate table itself is about 2.4 MiB.
    config = write_config(tmp_path, {"architecture": "fsa_uniform", "L": 8, "bath": BATH,
                                     "pairs": "all"})
    out = tmp_path / f"rates.{fmt}"
    argv = ["rates", "--config", config, "--format", fmt]
    assert main(argv + ["--output", str(out)]) == 0  # first-call imports and caches
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    peaks = []
    for target in (["--output", str(out)], []):
        tracemalloc.start()
        try:
            assert main(argv + target) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert sink.digest.hexdigest() == hashlib.sha256(out.read_bytes()).hexdigest()
    assert max(peaks) < 6.0, peaks


@pytest.mark.parametrize(
    "command, config, flags, code",
    [
        ("rates", {"architecture": "fsa_uniform", "L": 0, "bath": BATH}, [], 2),
        ("scan", {"architecture": "fsa_uniform", "noise": "central", "L_values": [0, 2]}, [], 2),
        ("scan", {"architecture": "fsa_uniform", "noise": "central", "L_values": []}, [], 2),
        ("rates", {"architecture": "fsa_uniform", "L": 2, "bath": BATH, "pairs": []}, [], 2),
        ("mc", {"scenario": {**MC_SCENARIO, "n_trajectories": 99}}, [], 2),
        ("validate", {"n_trajectories": 0}, [], 2),
        ("validate", {"scenarios": []}, [], 2),
        ("validate", {"suite": "other", "scenarios": [MC_SCENARIO]}, [], 2),
        ("mc", {"scenario": MC_SCENARIO, "seed": -1}, [], 2),
        ("mc", {"scenario": MC_SCENARIO, "seed": 2**70}, [], 2),
        ("mc", {"scenario": MC_SCENARIO}, ["--seed", str(2**64)], 2),
        ("mc", {"scenario": MC_SCENARIO}, ["--jobs", "65"], 2),
        ("mc", {"scenario": MC_SCENARIO}, ["--jobs", "0"], 2),
        ("mc", {"scenario": MC_SCENARIO, "units": {"frequency": "ghz"}}, [], 2),
        ("scan", {"architecture": "fsa_uniform", "noise": "central", "L_values": [2],
                  "units": {}}, [], 2),
        ("rates", {"architecture": "fsa_uniform", "L": 2, "bath": BATH, "drive": None,
                   "pairs": None, "units": None}, [], 0),
        ("rates", {"architecture": "fsa_uniform", "L": 2,
                   "bath": {**BATH, "coupling": None}}, [], 3),
        ("couplings", {"bath": {**BATH, "geometry": None}, "positions": [0.0, 1.0]}, [], 0),
    ],
    ids=["rates_L_0", "scan_L_0", "scan_no_lengths", "rates_no_pairs", "mc_99_trajectories",
         "validate_0_trajectories", "validate_no_scenarios", "validate_suite_with_scenarios",
         "negative_seed", "seed_2_70", "seed_flag_2_64", "jobs_65", "jobs_0", "mc_units",
         "scan_units", "rates_nulls_are_absent", "null_coupling_is_missing",
         "null_geometry_is_absent"],
)
def test_each_slot_kind_has_one_rule(tmp_path, capsys, monkeypatch, command, config, flags,
                                     code):
    # bad values exit before any Monte-Carlo work; legal ones would run it
    monkeypatch.setattr(cli, "validate_against_analytic", None)
    out = tmp_path / "out.csv"
    argv = [command, "--config", write_config(tmp_path, config), "--output", str(out), *flags]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == (code != 0) and "Traceback" not in err
    assert out.exists() == (code == 0)


# --- config fuzzing: every slot of every command's table ----------------------

FUZZ_BASES = {
    "rates": [
        {"architecture": "fsa_uniform", "L": 2, "pairs": "all",
         "bath": {**BATH, "geometry": "1d", "velocity": 1.0},
         "units": {"frequency": "natural", "temperature": "natural"}},
        {"architecture": "bus", "L": 2, "bath": BATH, "drive": [1.0, 1.0],
         "pairs": [{"left": "++", "right": "+-"}]},
        {"architecture": "fsa_independent", "L": 4, "bath": {**BATH, "temperature": 10.0},
         "pairs": "worst_case"},
    ],
    "scan": [{"architecture": "fsa_uniform", "noise": "central", "L_values": [2, 4]}],
    "couplings": [
        {"bath": {"coupling": 0.05, "cutoff": 2.0, "temperature": 0.5, "geometry": "1d",
                  "velocity": 0.7},
         "positions": [0.0, 1.3, -0.4], "units": {"frequency": "ghz"}},
        {"bath": {"coupling": 1.0, "cutoff": 1.0, "geometry": "3d"},
         "positions": {"count": 4, "spacing": 1.0}},
    ],
    "mc": [{"scenario": {"name": "s", "architecture": "bus", "L": 2, "pair": "worst_case",
                         "drive": [1.0, 1.0], "coupling": 1.0, "temperature": 1.0,
                         "cutoff_ratio": 128.0, "reference_rate": 1.0,
                         "n_trajectories": 500, "fit_window": [0.5, 2.0]},
            "seed": 5}],
    "validate": [{"scenarios": [MC_SCENARIO], "n_trajectories": 1000, "seed": 3}],
}


def table_slots(table, base, path=()):
    """Paths of every slot of ``table`` and of the nested tables ``base`` fills."""
    for key, (reader, _) in table.items():
        yield path + (key,)
        if key in base:
            yield from nested_slots(reader, base[key], path + (key,))


def nested_slots(reader, value, path):
    reader = getattr(reader, "by_type", {}).get(type(value), reader)
    if isinstance(reader, cli._Table):
        yield from table_slots(reader, value, path)
    elif hasattr(reader, "item") and isinstance(value, list):
        for i, entry in enumerate(value):
            yield from nested_slots(reader.item, entry, path + (i,))


FUZZ_SLOTS = [
    (command, i, path)
    for command, (_, table, _) in cli._COMMANDS.items()
    for i, base in enumerate(FUZZ_BASES[command])
    for path in table_slots(table, base)
]

DELETE = object()
WORDS = st.sampled_from(["", "all", "worst_case", "default", "++", "+-", "1d", "3d", "ghz",
                         "kelvin", "central", "fsa_uniform", "bus", "hypercube", "a\nb"])
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2**63, 2**64, 2**70, -(2**64), 10**400, 1e308, -1e308, 1e200]),
    st.floats(), st.text(max_size=6), WORDS,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(WORDS | st.sampled_from(["left", "right", "count", "spacing"]),
                      inner, max_size=3),
    max_leaves=6,
)
NON_FINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


class ReachedTheEngine(BaseException):
    """Raised by the stubbed Monte-Carlo entry points: the config was legal."""


def reached(*args, **kwargs):
    raise ReachedTheEngine


@settings(max_examples=600, derandomize=True, deadline=None)
@given(slot=st.sampled_from(FUZZ_SLOTS), value=st.just(DELETE) | JSON_VALUES)
@example(slot=("rates", 0, ("bath", "coupling")), value=1e308)
@example(slot=("rates", 1, ("drive",)), value=[1e308, 1.0])
@example(slot=("rates", 2, ("bath", "coupling")), value=1e308)
@example(slot=("couplings", 0, ("positions",)), value=[0.0, math.nan, 1.0])
@example(slot=("couplings", 0, ("positions",)), value=[0.0, 1e200, -1e200])
@example(slot=("couplings", 1, ("positions", "spacing")), value=1e308)
def test_config_fuzz_never_crashes_or_writes_non_finite(slot, value):
    command, i, path = slot
    config = copy.deepcopy(FUZZ_BASES[command][i])
    node = config
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(cli, "validate_against_analytic", reached), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error", RuntimeWarning)
        path_in, path_out = os.path.join(tmp, "c.json"), os.path.join(tmp, "out.csv")
        with open(path_in, "w") as fh:
            json.dump(config, fh)
        try:
            code = main([command, "--config", path_in, "--output", path_out])
        except ReachedTheEngine:
            return
        written = None
        if os.path.exists(path_out):
            with open(path_out) as fh:
                written = fh.read()
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), err.getvalue()
    assert len(lines) == (code != 0) and "Traceback" not in err.getvalue()
    if code == 0:
        assert not NON_FINITE_TOKEN.search(written)
    else:
        assert written is None
