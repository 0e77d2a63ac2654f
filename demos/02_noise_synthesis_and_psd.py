#!/usr/bin/env python3
"""Synthesizing correlated control noise with a prescribed spectrum.

The control circuit acts as an ohmic reservoir; in the classical limit the
noise power spectrum is S(w) = 2 T coupling exp(-w / cutoff).  Trajectories
are generated spectrally, so their statistics match the target exactly on the
grid; this script verifies that with averaged periodograms and writes a PSD
comparison table.
"""
import numpy as np

from gatenoise import (
    NoiseTopology,
    OhmicBath,
    SpectralSynthesizer,
    classical_psd,
    estimate_psd,
    propagation_kernel_f,
    synthesize_trajectories,
    trajectory_seed_sequence,
    write_psd_csv,
)

bath = OhmicBath(coupling=1.0, cutoff=8.0, temperature=1.0)
dt, n_steps = 0.5 / bath.cutoff, 512

# one bundle: three qubits fed by a single central source share one trajectory
bundle = synthesize_trajectories(bath, NoiseTopology.uniform(), 3, dt, n_steps, seed=1)
print("uniform topology: rows identical?", np.array_equal(bundle[0], bundle[2]))

# ensemble of independent trajectories -> averaged periodogram vs target
synth = SpectralSynthesizer(bath, NoiseTopology.independent(), 1, dt, n_steps)
rows = []
for i in range(1000):
    rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(7, i)))
    rows.append(synth.draw(rng)[0])
est = estimate_psd(np.asarray(rows), dt)
target = classical_psd(bath, est.omega)

band = (est.omega >= bath.cutoff / 10) & (est.omega <= bath.cutoff)
print(f"estimated vs target over [cutoff/10, cutoff] ({band.sum()} bins):")
print(f"  max relative deviation: {np.max(np.abs(est.psd[band]/target[band] - 1)):.2%}")
print(f"  S(0) estimate {est.psd[0]:.3f} vs 2 T coupling = {target[0]:.3f}")

write_psd_csv("psd_check.csv", est, target, header_lines=["ohmic classical spectrum check"])
print("wrote psd_check.csv with columns (omega, S_target, S_estimated, stderr)")

# spatially separated sites: cross-spectrum picks up the propagation kernel
r = 0.3
synth2 = SpectralSynthesizer(bath, NoiseTopology.spatial([0.0, r]), 2, dt, n_steps)
cross = np.zeros(n_steps // 2 + 1)
for i in range(800):
    rng = np.random.Generator(np.random.PCG64(trajectory_seed_sequence(8, i)))
    spec = np.fft.rfft(synth2.draw(rng), axis=-1)
    cross += (dt / n_steps) * np.real(spec[0] * np.conj(spec[1]))
cross /= 800
expected = propagation_kernel_f(est.omega * r / bath.velocity, bath.geometry) * target
print(f"cross-spectrum between sites {r} apart (estimate vs kernel x target):")
for frac in (0.25, 0.5, 1.0):
    k = int(np.argmin(np.abs(est.omega - frac * bath.cutoff)))
    print(f"  w = {est.omega[k]:5.2f}:  {cross[k]:+.3f}  vs  {expected[k]:+.3f}")
