"""Exact arithmetic pipeline classifying the genus-2 curves that map to a
fixed elliptic curve in every degree, plus constructive universality checks
for the four quaternary degree forms that arise."""

from .invariants import InvariantViolation
from .quadfield import Disc, KElem, mobius
from .bqf import BQF, cm_points_F1, in_F1, in_F2, reduce_to_F1, reduced_forms
from .cmhom import (
    CMLattice,
    degree_profile,
    disc59_check,
    hom_lattice,
    morphism_degree,
    p_neighbors,
    primitive_norm_discriminants,
    screen_all,
    screen_pair,
)
from .periodlattice import (
    DegreeForm,
    PeriodLattice,
    degree_gram,
    is_candidate,
    maps_module,
    polarization_gram,
    represented_small_values,
)
from .qforms import Q1, Q2, Q3, Q4, QForm4, equivalent, evaluate
from .universal import (
    Representation,
    TernaryKind,
    represent,
    represented_by_enumeration,
    solve_ternary,
    verify_universal,
)
from .pipeline import (
    ClassificationRow,
    GoldenFixtureError,
    ReproductionMismatch,
    RunReport,
    run_lemma_lists,
    run_screen,
    run_search,
)

__all__ = [name for name in dir() if not name.startswith("_")]
