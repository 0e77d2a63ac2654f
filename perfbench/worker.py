"""One fresh benchmark process; started by ``run.py``, not by hand.

Modes:
  setup    import gatenoise and build the workload, then exit;
  measure  set up, then run untraced passes for ``--seconds``;
  trace    set up, run one untraced pass, one traced pass and, when the
           workload calls the MC engines, one pass that takes their
           tracemalloc peaks.

Prints one JSON object on its last stdout line.  Exits non-zero, printing no
result, if gatenoise cannot be imported from ``<checkout>/src``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_gatenoise() -> float:
    start = time.perf_counter()
    try:
        import gatenoise
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gatenoise from {ROOT / 'src'}: {exc}")
    elapsed = time.perf_counter() - start
    if Path(gatenoise.__file__).resolve().parent != ROOT / "src" / "gatenoise":
        sys.exit(f"perfbench: gatenoise imported from {gatenoise.__file__}, not {ROOT / 'src'}")
    return elapsed


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _timed_pass(workload) -> tuple[float, list]:
    start = time.perf_counter()
    checks = workload.run()
    return time.perf_counter() - start, checks


def _traced_pass(workload, tracer, index: int) -> tuple[float, list]:
    tracer.pass_index = index
    tracer.install()
    try:
        return _timed_pass(workload)
    finally:
        tracer.uninstall()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--trajectory-scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import_s = _import_gatenoise()
    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        run(args, import_s, Path(workdir))


def run(args: argparse.Namespace, import_s: float, workdir: Path) -> None:
    start = time.perf_counter()
    import workloads

    workload = workloads.build(args.workload, args.seed, args.trajectory_scale, workdir)
    build_s = time.perf_counter() - start
    result: dict = {"setup_s": import_s + build_s, "import_s": import_s, "build_s": build_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    result.update(items=workload.items, item_unit=workload.item_unit,
                  inputs=workload.inputs, env=_environment())
    passes: list[float] = []
    checks: list = []
    if args.mode == "measure":
        first = time.perf_counter()
        while True:
            elapsed, pass_checks = _timed_pass(workload)
            passes.append(elapsed)
            checks += pass_checks
            median = sorted(passes)[len(passes) // 2]
            if time.perf_counter() - first + median > args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracing import ALLOC_SPANS, Tracer

        elapsed, pass_checks = _timed_pass(workload)
        passes.append(elapsed)
        checks += pass_checks
        tracer = Tracer(args.workload)
        result["traced_pass_s"], pass_checks = _traced_pass(workload, tracer, 1)
        checks += pass_checks
        layers = tracer.layer_metrics()
        alloc = Tracer(args.workload, measure_alloc=True)
        if any(layers[f"{name}.calls"] for name in ALLOC_SPANS):
            checks += _traced_pass(workload, alloc, 2)[1]
        result["layers"] = {**layers, **alloc.peak_metrics()}
        spans = args.out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result["pass_s"] = passes
    result["op_s"] = [c.seconds for c in checks if c.seconds is not None]
    result["attempted"] = len(checks)
    result["failures"] = [{"name": c.name, "detail": c.detail} for c in checks if not c.ok]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
