"""repro — Vertex and Hyperedge Connectivity in Dynamic Graph Streams.

A complete implementation of Guha, McGregor and Tench (PODS 2015):
linear sketches for vertex-connectivity queries and testing,
cut-degenerate (hyper)graph reconstruction, and the first dynamic
hypergraph cut sparsifier — together with every substrate they stand
on (L0 samplers, AGM spanning-forest sketches, k-skeletons, exact
cut/flow algorithms) and the baselines they are compared against.

Quickstart::

    from repro import VertexConnectivityQuerySketch
    sketch = VertexConnectivityQuerySketch(n=32, k=2, seed=7)
    sketch.insert((0, 1)); sketch.insert((1, 2)); ...
    sketch.delete((0, 1))
    sketch.disconnects({5, 11})   # after the stream

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
theorem-by-theorem validation results.
"""

from ._version import __version__
from .audit import (
    AuditReport,
    CertifiedResult,
    audit_sketch,
    certify_connectivity,
    certify_edge_connectivity,
    certify_skeleton,
    certify_spanning_forest,
    verified_merge,
)
from .core import (
    DEFAULT_PARAMS,
    DegradedResult,
    EdgeConnectivitySketch,
    HypergraphSparsifierSketch,
    KVertexConnectivityTester,
    LightEdgeRecoverySketch,
    Params,
    VertexConnectivityEstimator,
    VertexConnectivityQuerySketch,
    max_cut_error,
    reconstruct_cut_degenerate,
)
from .engine import (
    CheckpointManager,
    IngestMetrics,
    QueryMetrics,
    ShardedIngestEngine,
)
from .comm import SpanningForestProtocol
from .errors import (
    CheckpointError,
    CommError,
    DomainError,
    EngineError,
    IncompatibleSketchError,
    IntegrityError,
    NotOneSparseError,
    PayloadCorruptionError,
    RankError,
    ReproError,
    SamplerEmptyError,
    SamplerFailedError,
    SamplerZeroError,
    SketchDecodeError,
    StreamError,
    WorkerCrashError,
)
from .graph import Graph, Hypergraph, WeightedHypergraph
from .sketch import SkeletonSketch, SpanningForestSketch
from .stream import BadUpdate, EdgeUpdate, Quarantine
from .util.retry import RetryPolicy

__all__ = [
    "__version__",
    # core
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
    # structures & sketches
    "Graph",
    "Hypergraph",
    "WeightedHypergraph",
    "SpanningForestSketch",
    "SkeletonSketch",
    "EdgeUpdate",
    # robustness
    "DegradedResult",
    "Quarantine",
    "BadUpdate",
    "RetryPolicy",
    # integrity & certification
    "AuditReport",
    "audit_sketch",
    "verified_merge",
    "CertifiedResult",
    "certify_spanning_forest",
    "certify_connectivity",
    "certify_skeleton",
    "certify_edge_connectivity",
    # ingestion engine
    "ShardedIngestEngine",
    "CheckpointManager",
    "IngestMetrics",
    # decode/query engine
    "QueryMetrics",
    # distributed referee
    "SpanningForestProtocol",
    # errors
    "ReproError",
    "DomainError",
    "RankError",
    "SketchDecodeError",
    "NotOneSparseError",
    "SamplerEmptyError",
    "SamplerZeroError",
    "SamplerFailedError",
    "IncompatibleSketchError",
    "StreamError",
    "EngineError",
    "CheckpointError",
    "WorkerCrashError",
    "IntegrityError",
    "PayloadCorruptionError",
    "CommError",
]
