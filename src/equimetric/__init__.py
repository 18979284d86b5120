"""Invariant metrics on sampled symmetric spaces.

Given a finite sample of a space with a (possibly partial) finite group
action, the library builds a metric on the orbit space, a family of slices,
an invariant orbital metric along orbits, and lifts the quotient metric back
to an invariant metric on the sample — then verifies every property of the
construction exhaustively.
"""

from .errors import ValidationError
from .gspace import (
    FiniteGroup,
    SampledGSpace,
    SampledSpace,
    bind_action,
    build_group,
    build_space,
    graph_components,
    group_from_permutations,
)
from .lift import (
    AllowabilityGraph,
    LiftedMetric,
    build_allowability_graph,
    cover_small_sets,
    lift_metric,
)
from .orbital import (
    GroupMetric,
    OrbitalMetric,
    build_orbital_metric,
    group_metric,
    verify_orbital_properties,
)
from .quotient import Quotient, compute_orbits, quotient_metric
from .report import ADVISORY, FAIL, PASS, Check, Report, fmt9
from .scenarios import generate_scenario, scenario_names
from .slices import SliceFamily, build_slice_family, verify_slice_family
from .verify import quotient_consistency, verify_ball_inclusions, verify_lifted_metric

__version__ = "0.1.0"

# The shortest-path kernel is numpy only; the name stays for callers that
# record it.
BACKEND = "python"

__all__ = [
    "ADVISORY",
    "AllowabilityGraph",
    "BACKEND",
    "Check",
    "FAIL",
    "FiniteGroup",
    "GroupMetric",
    "LiftedMetric",
    "OrbitalMetric",
    "PASS",
    "Quotient",
    "Report",
    "SampledGSpace",
    "SampledSpace",
    "SliceFamily",
    "ValidationError",
    "bind_action",
    "build_allowability_graph",
    "build_group",
    "build_orbital_metric",
    "build_slice_family",
    "build_space",
    "compute_orbits",
    "cover_small_sets",
    "fmt9",
    "generate_scenario",
    "graph_components",
    "group_from_permutations",
    "group_metric",
    "lift_metric",
    "quotient_consistency",
    "quotient_metric",
    "scenario_names",
    "verify_ball_inclusions",
    "verify_lifted_metric",
    "verify_orbital_properties",
    "verify_slice_family",
]
