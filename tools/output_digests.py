"""Print the sha256 of a fixed set of ``gatenoise`` outputs.

Usage: PYTHONPATH=src python tools/output_digests.py

Runs 9 command configurations through ``gatenoise.cli.main`` in this
process, each in CSV and JSON, writing into a temporary directory, and
prints one line ``<sha256>  <name>.<format> exit <code>`` per output.  The
cases are ``rates`` on a driven bus and on fsa_uniform with a units block,
``scan``, ``couplings`` on a grid and on a list of positions, ``mc`` on a
driven bus at ``--jobs 2``, on a decoherence-free pair in one chunk and on
that pair at 1234 trajectories and ``--jobs 2`` (three chunks and blocks of
24 and 25 trajectories, so the exact noise-free trace is pinned across
chunk and block edges), and a two-scenario ``validate`` whose 500
trajectories are too few for either verdict to pass, so the listing holds
the failing exit code as well.  Takes no options.  A change meant to keep
every byte runs it once against each tree (``PYTHONPATH=<tree>/src``) and
diffs the two listings.

The Monte-Carlo digests also depend on the host: the engine forms exp(i
phase) with numpy's float32 cos/sin, whose loops numpy picks for the CPU,
and its matmul runs in BLAS.  So the tool first writes the host's dispatch
fingerprint to stderr: numpy's SIMD baseline, the dispatch targets it found
on this CPU, and the core name of each OpenBLAS the process has loaded
(where ``/proc/self/maps`` lists it).  Two listings taken with ``2>&1``
then show a host change as such; stdout holds the digests alone.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from gatenoise import cli
from gatenoise.noise import _openblas_libraries

_BATH = {"coupling": 1.0, "cutoff": 50.0, "temperature": 1.0}

# name -> (command, config, extra arguments)
CASES = {
    "rates_bus": ("rates", {
        "architecture": "bus", "L": 3, "bath": _BATH, "drive": [1.0, 1.0, 0.0], "pairs": "all",
    }, []),
    "rates_units": ("rates", {
        "architecture": "fsa_uniform", "L": 2, "pairs": "worst_case",
        "bath": {"coupling": 1.0, "cutoff": 5.0, "temperature": 0.02},
        "units": {"frequency": "ghz", "temperature": "kelvin"},
    }, []),
    "scan": ("scan", {"architecture": "fsa_uniform", "noise": "central", "L_values": [1, 2, 4, 8]}, []),
    "couplings_grid": ("couplings", {
        "bath": {"coupling": 1.0, "cutoff": 1.0, "velocity": 1.0},
        "positions": {"count": 4, "spacing": 1.0},
    }, []),
    "couplings_list": ("couplings", {
        "bath": {"coupling": 0.5, "cutoff": 2.0, "temperature": 0.1, "geometry": "3d"},
        "positions": [0.0, 0.5, 2.0],
    }, []),
    "mc_bus": ("mc", {
        "scenario": {"architecture": "bus", "L": 3, "pair": "worst_case",
                     "drive": [1.0, 1.0, 0.0], "n_trajectories": 600},
        "seed": 7,
    }, ["--jobs", "2"]),
    "mc_decoherence_free": ("mc", {
        "scenario": {"architecture": "fsa_uniform", "L": 2, "pair": {"left": "+-", "right": "-+"},
                     "reference_rate": 1.0, "n_trajectories": 200},
    }, []),
    "mc_decoherence_free_chunks": ("mc", {
        "scenario": {"architecture": "fsa_uniform", "L": 2, "pair": {"left": "+-", "right": "-+"},
                     "reference_rate": 1.0, "n_trajectories": 1234},
    }, ["--jobs", "2"]),
    "validate_two": ("validate", {
        "scenarios": [
            {"architecture": "fsa_uniform", "L": 2, "pair": {"left": "++", "right": "+-"}},
            {"architecture": "fsa_independent", "L": 3, "pair": "worst_case"},
        ],
        "n_trajectories": 500,
    }, []),
}


def digests(directory: Path) -> list[str]:
    """The listing line of every case and format, written under ``directory``."""
    lines = []
    for name, (command, config, extra) in CASES.items():
        config_path = directory / f"{name}.config.json"
        config_path.write_text(json.dumps(config))
        for fmt in ("csv", "json"):
            out = directory / f"{name}.{fmt}"
            code = cli.main([command, "--config", str(config_path), "--output", str(out),
                             "--format", fmt, *extra])
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-" * 64
            lines.append(f"{digest}  {name}.{fmt} exit {code}")
    return lines


def fingerprint() -> list[str]:
    """The host's dispatch fingerprint, one line per numpy and per OpenBLAS."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    lines = [f"numpy {np.__version__} simd baseline: {' '.join(simd['baseline'])}; "
             f"dispatch found: {' '.join(simd['found'])}"]
    for lib in _openblas_libraries():
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, symbol):
                corename = getattr(lib, symbol)
                corename.restype = ctypes.c_char_p
                lines.append(f"openblas core: {corename().decode()}")
                break
    return lines


def main() -> int:
    print("\n".join(fingerprint()), file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digests(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
