#!/usr/bin/env python3
"""How the worst-case dephasing rate grows with register length.

Gate control noise breaks the fixed-error-rate-per-gate assumption: for most
architectures the worst-case rate grows faster than linearly in L
(superdecoherence).  The scan below uses unit per-gate rate constants; the
shared-line (bus) law is additionally confirmed by a full Monte-Carlo run of
the quadratic coupler.
"""
import numpy as np

from gatenoise import ArchKind, NoiseKind, mc_bus_scaling, scaling_scan

CASES = [
    (ArchKind.FSA_UNIFORM, NoiseKind.CENTRAL, [2, 4, 8, 16], "L^4"),
    (ArchKind.FSA_INDEPENDENT, NoiseKind.INDEPENDENT, [2, 4, 8, 16], "L^2/4"),
    (ArchKind.BUS, NoiseKind.CENTRAL, [2, 4, 8, 16], "L^2"),
    (ArchKind.HYPERCUBE, NoiseKind.INDEPENDENT, [2, 4, 8, 16], "(L/2) log2 L"),
    (ArchKind.PROCESSOR_CORE, NoiseKind.INDEPENDENT, [2, 4, 8, 16], "L"),
    (ArchKind.PROCESSOR_CORE, NoiseKind.CENTRAL, [2, 4, 8, 16], "L^2"),
]

print(f"{'architecture':18s} {'noise':12s} {'relative rate at L=2,4,8,16':32s} law")
for kind, noise, l_values, law in CASES:
    points = scaling_scan(kind, noise, l_values)
    rates = ", ".join(f"{p.relative_rate:g}" for p in points)
    print(f"{kind.value:18s} {noise.value:12s} {rates:32s} {law}")

print()
print("fitted log-log exponents:")
for kind, noise, l_values, _ in CASES:
    points = scaling_scan(kind, noise, l_values)
    slope = np.polyfit(
        np.log([p.n_qubits for p in points]), np.log([p.relative_rate for p in points]), 1
    )[0]
    print(f"  {kind.value} / {noise.value}: {slope:.2f}")

print()
print("Monte-Carlo check of the bus law with the full quadratic coupler")
print("(worst-case pairs, one active gate, exponent expected 2.0 +- 0.2):")
exponent, fitted = mc_bus_scaling(n_trajectories=2000, master_seed=3, jobs=4)
for n, gamma in fitted:
    print(f"  L={n}: fitted rate {gamma:.4f}")
print(f"  exponent {exponent:.3f}")
print()
print("only the hypercube (independent noise) and the processor core stay")
print("near-linear; a central noise source is quadratic or worse everywhere.")
