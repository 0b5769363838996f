"""Exact-arithmetic toolkit for rank-2 Dieudonne modules with real
multiplication: truncated Witt rings with a ramified top, the three module
invariants (Lie type, a-type, Newton polygon), the explicit families, the
a-type stratification combinatorics, and brute-force verification probes.

The Hecke probe (`dieumod.hecke`) is the one numpy user; it loads on first
use of its names (PEP 562), so the rest of the package never imports numpy.
"""

import importlib

from .wittring import (
    CoeffTower, WittElem, RamElem, PrecisionError, DomainError, INF,
)
from .modules import DModule
from .invariants import (
    NewtonPoint, LieType, AType, admissible_indices,
    lie_type, a_type, a_index, newton_point, classify,
    a_type_bounds, dual_invariants, invariant_report,
)
from .strata import (
    admissible_slopes, newton_stratum_codim, is_spaced, spaced_bound,
    spaced_bound_exhaustive, atype_poset, ATypePoset, StratumRecord,
    dp_stratum_dim, deformation_dims, polarization_degree_exponent,
    superspecial_types, verify_det_identity,
)
from .families import (
    slope_family, normal_form, ordinary_module, superspecial,
    deform_specialize, nonrapoport_module, sample_deform,
)

_HECKE_NAMES = frozenset({
    "SmallField", "HeckeSetting", "StablePlane",
    "enumerate_stable_planes", "compare_variety", "probe_report",
})

__version__ = "0.1.0"


def __getattr__(name):
    # import_module, not `from . import hecke`: the from-import asks this
    # package for the attribute first, which would call this hook again
    if name == "hecke" or name in _HECKE_NAMES:
        hecke = importlib.import_module(".hecke", __name__)
        return hecke if name == "hecke" else getattr(hecke, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
