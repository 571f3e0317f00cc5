"""Exact computation of multigraded Poincare series denominators for
monomial quotient rings, with the supporting lattice, complex and
resolution machinery."""

from .core import (
    InputError,
    InternalInconsistencyError,
    MonomialIdeal,
    Polarization,
    connected_components_lJ,
    in_lcm_lattice,
    is_generic,
    lcm_of_subset,
    load_ideal,
    minimalize,
    polarize,
)
from .complexes import (
    FreeComplex,
    homology,
    is_taylor_minimal,
    koszul_complex,
    minimize,
    scarf_complex,
    scarf_faces,
    taylor_complex,
)
from .lattice import (
    LatticeMap,
    LcmLattice,
    build_lcm_lattice,
    find_lattice_isomorphisms,
    polarization_lattice_map,
    transport_denominator,
)
from .resolution import (
    ResidueFieldResolution,
    eagon_resolution,
    golod_denominator,
    is_golod_generic,
    is_golod_truncated,
    resolve_residue_field,
)
from .series import (
    BigradedSeries,
    candidate_terms,
    denominator,
    deviations,
    poincare_from_denominator,
    series_div,
    series_from_deviations,
    series_from_terms,
    series_inverse,
    series_mul,
    series_one,
    verify_lcm_coefficients,
)

__version__ = "0.1.0"
