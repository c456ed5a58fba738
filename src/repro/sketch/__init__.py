"""Linear-sketching substrate: 1-sparse cells up to k-skeleton sketches."""

from .bank import SamplerGrid
from .incidence import IncidenceScheme
from .l0 import L0Sampler, default_levels
from .onesparse import OneSparseCell
from .skeleton import SkeletonSketch
from .spanning_forest import SpanningForestSketch, default_rounds
from .serialization import (
    dump_grid,
    dump_member_state,
    dump_sketch,
    iter_grids,
    load_grid,
    load_member_state,
    load_sketch,
    message_bytes,
)
from .sparse_recovery import SparseRecoveryStructure

__all__ = [
    "OneSparseCell",
    "SparseRecoveryStructure",
    "L0Sampler",
    "default_levels",
    "SamplerGrid",
    "IncidenceScheme",
    "SpanningForestSketch",
    "default_rounds",
    "SkeletonSketch",
    "dump_grid",
    "load_grid",
    "dump_member_state",
    "load_member_state",
    "dump_sketch",
    "load_sketch",
    "iter_grids",
    "message_bytes",
]
