#!/usr/bin/env python3
"""The Monte-Carlo dephasing oracle against the analytic rate laws.

For each noise realization the accumulated phase difference between the two
labels of a coherence pair is a Gaussian variable under this linear coupling:
the engine (``simulate_dephasing``) draws it at the report points from its
exact covariance, with no time series and no integration.  (The quadratic bus
coupler, ``simulate_bus_full``, instead synthesizes noise trajectories and
integrates its phase rate along them.)  Averaging exp(i phase) gives the
coherence decay.  In the white-noise regime (cutoff >> rate) the fitted decay
rate must land on the closed-form value; the verdict refuses a cutoff under
20 times the rate, while the engines simulate any cutoff.
"""
import numpy as np

from gatenoise import (
    ArchKind,
    CoherencePair,
    fit_rate,
    label_with_total_spin,
    make_validation_scenario,
    simulate_dephasing,
    validate_against_analytic,
)

# central-noise register, L = 3, total spins 3 and 1: analytic rate 16
pair = CoherencePair(label_with_total_spin(3, 3), label_with_total_spin(3, 1))
scenario = make_validation_scenario(
    ArchKind.FSA_UNIFORM, pair, n_trajectories=8000, master_seed=42
)
print(f"scenario {scenario.name}")
print(f"  analytic rate {scenario.gamma_analytic}, cutoff {scenario.bath.cutoff:.0f} "
      f"(= {scenario.bath.cutoff / scenario.gamma_analytic:.0f} x rate)")
print(f"  grid: dt {scenario.cfg.dt:.2e}, {scenario.cfg.n_steps} steps, "
      f"{scenario.cfg.n_trajectories} trajectories")

# one run: the verdict carries the trace it was fitted to
report = validate_against_analytic(scenario, jobs=4)
trace = report.trace
print("\n  t * rate    |C|      stderr")
for frac in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
    idx = int(np.argmin(np.abs(trace.times * scenario.gamma_analytic - frac)))
    print(f"   {trace.times[idx] * scenario.gamma_analytic:5.2f}    "
          f"{trace.abs_coherence[idx]:.4f}   {trace.stderr[idx]:.4f}")

window = (0.5 / scenario.gamma_analytic, 2.0 / scenario.gamma_analytic)
estimate = fit_rate(trace, window)
print(f"\n  fitted rate {estimate.gamma_hat:.3f} +- {estimate.stderr_gamma:.3f} "
      f"(r^2 = {estimate.r_squared:.5f})")
print(f"  validation: rel err {report.rel_err:+.2%}, z = {report.z_score:+.2f}, "
      f"pass = {report.passed}")

# a decoherence-free pair: mirrored total spins never dephase
free = make_validation_scenario(
    ArchKind.FSA_UNIFORM,
    CoherencePair(label_with_total_spin(3, 3), label_with_total_spin(3, -3)),
    n_trajectories=2000,
    master_seed=42,
    reference_rate=scenario.gamma_analytic,
)
free_trace = simulate_dephasing(free.arch, free.pair, free.bath, free.topology, free.cfg)
print(f"\nmirrored pair {free.pair.left}|{free.pair.right}: min |C| over the run = "
      f"{free_trace.abs_coherence.min():.6f} (exactly coherent)")
