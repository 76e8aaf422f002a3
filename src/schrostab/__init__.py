"""Stability certification toolkit for semi-discretized boundary-damped
Schrodinger dynamics: exact discrete identities, spectra, resolvent sweeps
and energy-decay simulation.

Names are imported from the submodules (``schrostab.grid``,
``schrostab.systems``, ...); the package namespace holds only
``__version__`` and the submodules themselves.
"""

__version__ = "0.1.0"

# Importing the package loads every submodule, so code that looks them up in
# sys.modules (perfbench's tracer wraps functions in each of them) finds them
# whichever submodule an entry point imports first.
from . import continuous, dynamics, errors, grid, identities, secular, spectral, systems
