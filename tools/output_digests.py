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
the failing exit code as well.  Three library lines follow, ``<sha256>
<name>.repr``, each a sha256 over the ``repr`` of the values the library
gives: ``couplings`` (both closed forms and both quadratures over a fixed
grid of distances, in both geometries), ``synthesizer``
(``synthesize_trajectories`` on uniform, independent, separated and
co-located spatial topologies) and ``bruteforce``
(``rate_fsa_independent_bruteforce`` over every L = 5 pair).  Takes no
options.  A change meant to keep every byte runs it once against each tree
(``PYTHONPATH=<tree>/src``) and diffs the two listings.

The Monte-Carlo digests also depend on the host: the engine forms exp(i
phase) with numpy's float32 cos/sin, whose loops numpy picks for the CPU,
and its matmul runs in BLAS.  So do the ``couplings`` and ``synthesizer``
lines, through numpy's SIMD ``exp`` and ``cos``.  So the tool first writes the host's dispatch
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
from gatenoise.couplings import (
    spurious_coupling,
    spurious_coupling_quadrature,
    transient_coupling,
    transient_coupling_quadrature,
)
from gatenoise.noise import Geometry, NoiseTopology, OhmicBath, _openblas_libraries, synthesize_trajectories
from gatenoise.rates import rate_fsa_independent_bruteforce
from gatenoise.register import iter_coherence_pairs

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


# distances at cutoff = velocity = 1, so r is the oscillation scale x, up to
# the quadratures' largest one
_DISTANCES = (0.0, 1e-6, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 500.0, 2000.0)
_SYNTH_BATH = OhmicBath(coupling=0.5, cutoff=4.0, temperature=1.0, velocity=2.0)


def _couplings() -> list[float]:
    functions = (spurious_coupling, spurious_coupling_quadrature,
                 transient_coupling, transient_coupling_quadrature)
    return [fn(OhmicBath(coupling=0.7, cutoff=1.0, geometry=geometry), r)
            for geometry in Geometry for fn in functions for r in _DISTANCES]


def _synthesizer() -> list[list]:
    topologies = (NoiseTopology.uniform(), NoiseTopology.independent(),
                  NoiseTopology.spatial([0.0, 0.3, 1.1]), NoiseTopology.spatial([0.5, 0.5, 0.5]))
    return [synthesize_trajectories(_SYNTH_BATH, topology, 3, 0.125, 256, 11).tolist()
            for topology in topologies]


def _bruteforce() -> list:
    bath = OhmicBath(coupling=0.8, cutoff=1.0, temperature=2.5)
    return [rate_fsa_independent_bruteforce(bath, pair) for pair in iter_coherence_pairs(5)]


# name -> the library values hashed by their repr
LIBRARY = {"couplings": _couplings, "synthesizer": _synthesizer, "bruteforce": _bruteforce}


def digests(directory: Path) -> list[str]:
    """The listing line of every case and format, written under ``directory``,
    then one line per library case."""
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
    for name, values in LIBRARY.items():
        lines.append(f"{hashlib.sha256(repr(values()).encode()).hexdigest()}  {name}.repr")
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
