"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: :meth:`Tracer.install` replaces
the public functions of each ``gatenoise`` layer (and the numpy/scipy calls
the MC engine makes by attribute) with wrappers that time every call.
Nothing in ``src/`` is edited; :meth:`Tracer.uninstall` puts the originals
back.

Each span records name, start, end, parent span, thread id and pass index
(the workload name is stored once per run).  Stacks are thread-local.  A span
that opens on a worker thread with an empty stack is parented to the span
open on the main thread at that moment, which is the call that submitted the
work (``mcsim`` fans trajectory chunks out to a thread pool from there), so
self times on pool threads add up across threads.  Spans stay in memory and
are written out when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gatenoise import cli, couplings, mcsim, noise, rates, register

# Computed counts attached to a span: derived from a call's arguments or
# result, not measured.


def _rows_times_bins(result, args, kwargs) -> float:
    return float(result.shape[0] * result.shape[1])


def _samples_out(result, args, kwargs) -> float:
    return float(result.size)


def _cli_bytes_out(result, args, kwargs) -> float:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            return float(os.path.getsize(path))
    return 0.0


# (span name, owner, attribute, computed count or None, track peak allocation)
TARGETS: list[tuple[str, Any, str, Callable | None, bool]] = [
    ("noise.trajectory_seed_sequence", noise, "trajectory_seed_sequence", None, False),
    ("numpy.random.PCG64", np.random, "PCG64", None, False),
    ("noise.SpectralSynthesizer.init", noise.SpectralSynthesizer, "__init__", None, False),
    ("noise.SpectralSynthesizer.draw_spectrum", noise.SpectralSynthesizer,
     "draw_spectrum", _rows_times_bins, False),
    ("numpy.fft.irfft", np.fft, "irfft", _samples_out, False),
    ("mcsim.cumulative_trapezoid", mcsim, "cumulative_trapezoid", None, False),
    ("mcsim.simulate_dephasing", mcsim, "simulate_dephasing", None, True),
    ("mcsim.simulate_bus_full", mcsim, "simulate_bus_full", None, True),
    ("mcsim.validate_against_analytic", mcsim, "validate_against_analytic", None, False),
    ("mcsim.make_validation_scenario", mcsim, "make_validation_scenario", None, False),
    ("mcsim.fit_rate", mcsim, "fit_rate", None, False),
    ("mcsim.mc_bus_scaling", mcsim, "mc_bus_scaling", None, False),
    ("rates.rate_fsa_uniform", rates, "rate_fsa_uniform", None, False),
    ("rates.rate_fsa_independent", rates, "rate_fsa_independent", None, False),
    ("rates.rate_bus", rates, "rate_bus", None, False),
    ("rates.rate_fsa_independent_bruteforce", rates, "rate_fsa_independent_bruteforce",
     None, False),
    ("rates.scaling_scan", rates, "scaling_scan", None, False),
    ("rates.worst_case_pair", rates, "worst_case_pair", None, False),
    ("register.pointer_fsa_uniform", register, "pointer_fsa_uniform", None, False),
    ("register.pointer_fsa_pair", register, "pointer_fsa_pair", None, False),
    ("register.pointer_bus", register, "pointer_bus", None, False),
    ("register.total_spin", register, "total_spin", None, False),
    ("register.hamming_distance", register, "hamming_distance", None, False),
    ("couplings.spurious_coupling_quadrature", couplings, "spurious_coupling_quadrature",
     None, False),
    ("couplings.transient_coupling_quadrature", couplings, "transient_coupling_quadrature",
     None, False),
    ("couplings.coupling_matrix", couplings, "coupling_matrix", None, False),
    ("cli.main", cli, "main", _cli_bytes_out, False),
]

SPAN_NAMES = [name for name, *_ in TARGETS]
SPAN_FIELDS = ["id", "name", "start", "end", "parent", "thread", "pass", "count",
               "peak_alloc_mb"]
COUNT_METRICS = {
    "noise.SpectralSynthesizer.draw_spectrum": "values",
    "numpy.fft.irfft": "values",
    "cli.main": "bytes_out",
}
ALLOC_SPANS = [name for name, _, _, _, alloc in TARGETS if alloc]


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self, workload: str, measure_alloc: bool = False) -> None:
        self.workload = workload
        # tracemalloc triples the cost of the MC engine's per-trajectory Python
        # code, so peak allocations are taken in a pass of their own, which
        # wraps only the engine entry points.
        self.measure_alloc = measure_alloc
        self.pass_index = -1
        # One tuple per span, laid out as SPAN_FIELDS.
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, count: Callable | None, alloc: bool) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else -1
            span_id = next(self._ids)
            stack.append(span_id)
            own_alloc = alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                peak = None
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            value = count(result, args, kwargs) if count else None
            spans.append(
                (span_id, name, start, end, parent, threading.get_ident(),
                 self.pass_index, value, peak)
            )
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, in its own module and wherever it was imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gatenoise" or n.startswith("gatenoise.")]
        for name, owner, attr, count, alloc in TARGETS:
            if self.measure_alloc and not alloc:
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, count, self.measure_alloc)
            holders = [owner] if isinstance(owner, type) else [owner, *modules]
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._patched.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans gzipped: a header object, then one JSON array per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"workload": self.workload, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every target, plus counts.

        Self time is a span's duration minus the union of the intervals its
        child spans cover (children on two pool threads may overlap).
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _, _, value, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            calls[name] += 1
            self_s[name] += (end - start) - covered
            if value is not None:
                counts[name] += value
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = float(calls[name])
            metrics[f"{name}.self_s"] = self_s[name]
        for name, suffix in COUNT_METRICS.items():
            metrics[f"{name}.{suffix}"] = counts[name]
        return metrics

    def peak_metrics(self) -> dict[str, float]:
        """``<span>.peak_alloc_mb``: the largest tracemalloc peak over its calls."""
        peaks = dict.fromkeys(ALLOC_SPANS, 0.0)
        for _, name, *_, peak in self.spans:
            if peak is not None:
                peaks[name] = max(peaks[name], peak)
        return {f"{name}.peak_alloc_mb": peak for name, peak in peaks.items()}
