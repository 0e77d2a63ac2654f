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

Every module's public names (its ``__all__``) are importable from the
package itself.
"""
from .register import *
from .noise import *
from .rates import *
from .couplings import *
from .mcsim import *
from . import couplings, mcsim, noise, rates, register  # loaded above

__all__ = [*register.__all__, *noise.__all__, *rates.__all__, *couplings.__all__, *mcsim.__all__]

__version__ = "0.1.0"
