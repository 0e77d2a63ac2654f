"""gatenoise benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uniform_quartic [--seed 20260810]
        [--seconds 20] [--trace 0|1]

Workloads (see ``workloads.py``):
  uniform_quartic  six central-noise scenarios, 20k trajectories each, jobs=1
  hamming_sweep    the L=6 Hamming sweep through ``gatenoise validate --jobs 2``
  bus_coupler      bus gate on uniform and co-located spatial noise, quadratic scan
  analytic_tables  rate tables, coupling map, scan, quadrature and brute-force oracles

Load is one closed-loop client in one process: a pass starts when the
previous one has finished.  ``--trace 0`` reports the end-to-end metrics:

  wall_s            median wall time of one pass (time to a validated verdict)
  throughput_per_s  work per second over all passes: MC trajectories on the MC
                    workloads, operations on analytic_tables
  peak_rss_mb       peak RSS of the fresh process that ran the passes
  setup_s           median over three fresh processes of the time to import
                    gatenoise and build the workload's inputs

``--trace 1`` runs one untraced and one traced pass in a fresh process and
reports ``<span>.calls`` and ``<span>.self_s`` per layer function (see
``tracing.py``), the computed counts, the engines' tracemalloc peaks and the
tracing overhead.  Every pass checks its outputs; failed operations over
attempted ones is ``fail_frac``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, goes to ``perfbench/out/``.  Exit status: 0 when every
check passed, 1 when one failed, 2 when a benchmark process broke (then no
result is printed).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 20260810  # gatenoise.mcsim.DEFAULT_MASTER_SEED
WORKLOADS = ("uniform_quartic", "hamming_sweep", "bus_coupler", "analytic_tables")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A benchmark process failed; no result can be reported."""


def _child(mode: str, args: argparse.Namespace) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--trajectory-scale", str(args.trajectory_scale), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "n": n, "tail": tail}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _end_to_end(args: argparse.Namespace) -> tuple[dict, dict]:
    setups = [_child("setup", args) for _ in range(SETUP_SAMPLES - 1)]
    run = _child("measure", args)
    setup_s = [s["setup_s"] for s in setups] + [run["setup_s"]]
    passes = run["pass_s"]
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "throughput_per_s": (run["items"] * len(passes) / sum(passes), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    detail = {"wall_s": summarize(passes), "setup_s": summarize(setup_s),
              "op_s": summarize(run["op_s"]),
              "throughput_item": run["item_unit"], "items_per_pass": run["items"]}
    return run, {"metrics": metrics, "detail": detail}


def _traced(args: argparse.Namespace) -> tuple[dict, dict]:
    run = _child("trace", args)
    untraced, traced = run["pass_s"][0], run["traced_pass_s"]
    metrics = {}
    for name, value in run["layers"].items():
        unit = ("count" if name.endswith((".calls", ".values")) else
                "B" if name.endswith(".bytes_out") else
                "MB" if name.endswith(".peak_alloc_mb") else "s")
        metrics[name] = (value, unit)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    detail = {"computed_counts": [
        "noise.SpectralSynthesizer.draw_spectrum.values (rows x bins returned)",
        "numpy.fft.irfft.values (real samples returned)",
        "cli.main.bytes_out (size of the --output file written)",
    ], "spans_file": run["spans_file"]}
    return run, {"metrics": metrics, "detail": detail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trajectory-scale", type=float, default=1.0,
                        help="multiply MC trajectory counts (smoke checks only)")
    args = parser.parse_args(argv)

    try:
        run, report = (_traced if args.trace else _end_to_end)(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = run["attempted"]
    failed = len(run["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "trajectory_scale": args.trajectory_scale,
        "git_commit": _git_commit(), "env": run["env"], "inputs": run["inputs"],
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": run["failures"][:50], "pass_s": run["pass_s"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
        **report["detail"],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  commit {record['git_commit']}")
    print(f"env {json.dumps(run['env'])}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:56s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':56s} {record['fail_frac']:14.6g} ratio "
          f"({failed} of {attempted} operations)")
    for name in ("wall_s", "setup_s", "op_s"):
        if name in report["detail"]:
            s = report["detail"][name]
            tail = (f"p{s['tail']['percentile']} {s['tail']['value']:.6g}" if s["tail"]
                    else "no tail percentile (needs >= 11 samples)")
            print(f"  {name}: median {s['median']:.6g} s over n={s['n']}; {tail}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure['name']}: {failure['detail']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
