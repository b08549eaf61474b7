"""Exact workbench for truncated unstable algebras over the odd-primary
Steenrod algebra, the decomposable-correction condition, and the
combinatorics of associahedra and permuto-associahedra."""

__version__ = "0.1.0"

from .fp import ChainRep, FpMatrix, Subspace, chain_interval_form, solve
from .steenrod import (
    SteenrodElement,
    SteenrodMonomial,
    adem_rewrite,
    basis_of_degree,
    multiply,
    parse_element,
    render_element,
)
from .truncated import (
    AlgebraElement,
    AlgebraPresentation,
    filtration,
    indecomposables,
    induced_q_map,
    validate_action,
)
from .dn import DnInstance, DnReport, DnSearchConfig, DnVerdict, check_dn, check_instance, max_dn
from .theorems import (
    NormalizedPresentation,
    ReducedAlgebra,
    check_prop_a,
    check_thm_a,
    derive_actions,
    normalize_generators,
    reduce_frobenius,
    thmc_bound,
)
from .polytopes import (
    GammaFacet,
    GammaVertex,
    OrderedPartition,
    boundary_census,
    degeneracy,
    enumerate_facets,
    enumerate_vertices,
)
