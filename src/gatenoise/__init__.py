"""Gate-control-noise dephasing in quantum registers.

Noise on the classical control signals of two-qubit gates dephases a quantum
register collectively, with worst-case rates that grow faster than linearly
in the register length.  This package provides:

* :mod:`gatenoise.register` - basis labels, coherence pairs and the pointer
  variables whose differences set dephasing rates;
* :mod:`gatenoise.noise` - ohmic reservoir spectra and synthesis of
  correlated Gaussian noise trajectories;
* :mod:`gatenoise.rates` - closed-form dephasing rates per architecture,
  a brute-force pair-sum oracle, and scaling laws;
* :mod:`gatenoise.couplings` - noise-induced permanent and transient
  inter-qubit couplings, with quadrature oracles;
* :mod:`gatenoise.mcsim` - a Monte-Carlo stochastic-dephasing oracle that
  validates the analytic rates;
* :mod:`gatenoise.cli` - a config-driven command line frontend.

Natural units (hbar = k_B = 1) everywhere; unit conversion happens only at
the CLI boundary.
"""
from .register import (
    RegisterLabel,
    CoherencePair,
    GateDrive,
    total_spin,
    hamming_distance,
    pointer_fsa_uniform,
    pointer_fsa_pair,
    pointer_bus,
    enumerate_labels,
    iter_coherence_pairs,
    label_with_total_spin,
)
from .noise import (
    Geometry,
    OhmicBath,
    TopologyKind,
    NoiseTopology,
    PsdEstimate,
    spectral_density,
    propagation_kernel_f,
    cross_spectral_density,
    classical_psd,
    synthesize_trajectories,
    estimate_psd,
)
from .rates import (
    ArchKind,
    NoiseKind,
    ArchitectureModel,
    RateResult,
    dephasing_rate,
    rate_fsa_uniform,
    rate_fsa_independent,
    rate_fsa_independent_bruteforce,
    rate_bus,
    gate_count,
    scaling_scan,
    worst_case_pair,
)
from .couplings import (
    CouplingKind,
    CouplingMatrix,
    kernel_g,
    kernel_h,
    spurious_coupling,
    spurious_coupling_quadrature,
    transient_coupling,
    transient_coupling_quadrature,
    coupling_matrix,
    transient_energy_shift,
    drive_enhancement,
)
from .mcsim import (
    McConfig,
    CoherenceTrace,
    RateEstimate,
    ValidationScenario,
    ValidationReport,
    simulate_dephasing,
    simulate_bus_full,
    fit_rate,
    validate_against_analytic,
    make_validation_scenario,
    default_validation_suite,
)

__version__ = "0.1.0"
