"""The paper's contributions: vertex connectivity, reconstruction,
hypergraph sparsification."""

from .connectivity_estimate import (
    KVertexConnectivityTester,
    VertexConnectivityEstimator,
)
from .connectivity_query import VertexConnectivityQuerySketch
from .degraded import DegradedResult, decode_with_degradation
from .edge_connectivity_sketch import EdgeConnectivitySketch
from .light_edges import LightEdgeRecoverySketch, reconstruct_cut_degenerate
from .params import DEFAULT_PARAMS, Params
from .sparsifier import HypergraphSparsifierSketch, max_cut_error

__all__ = [
    "VertexConnectivityQuerySketch",
    "EdgeConnectivitySketch",
    "KVertexConnectivityTester",
    "VertexConnectivityEstimator",
    "LightEdgeRecoverySketch",
    "reconstruct_cut_degenerate",
    "HypergraphSparsifierSketch",
    "max_cut_error",
    "Params",
    "DEFAULT_PARAMS",
    "DegradedResult",
    "decode_with_degradation",
]
