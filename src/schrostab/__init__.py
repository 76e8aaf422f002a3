"""Stability certification toolkit for semi-discretized boundary-damped
Schrodinger dynamics: exact discrete identities, spectra, resolvent sweeps
and energy-decay simulation."""

__version__ = "0.1.0"

from .continuous import (
    SampledFunction,
    apply_continuous_inverse,
    characteristic_roots,
    continuous_energy,
)
from .dynamics import EnergyTrace, fit_decay_rate, initial_state, simulate
from .errors import NumericalError
from .grid import (
    Mesh,
    SchemeMatrices,
    average,
    build_scheme_matrices,
    difference,
    shadow_element,
    triple_sum_identity_gap,
    yh_inner,
    yh_norm,
)
from .identities import (
    MultiplierReport,
    boundary_multiplier_gap_y,
    boundary_multiplier_gap_z,
    claim_functionals_gap,
    cross_term_gap,
    run_identity_suite,
)
from .spectral import (
    ResolventSweepReport,
    SpectrumReport,
    resolvent_norm,
    resolvent_sweep,
    spectral_abscissa,
)
from .systems import (
    CLASSICAL,
    ORDER_REDUCTION,
    SemiDiscreteSystem,
    assemble_generator,
    discrete_energy,
    dissipation_gap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
