"""Linear-sketching substrate: ℓ0 sampler grids up to k-skeleton sketches."""

from .bank import SamplerGrid, default_levels
from .incidence import IncidenceScheme
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

__all__ = [
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
