"""Sketch integrity auditing and result certification.

Three robustness layers over the linear-sketch machinery:

* :mod:`~repro.audit.integrity` — detect and *localize* out-of-band
  corruption of counter banks from their own redundancy: every hash
  row of a grid holds the same bucket totals, so :func:`audit_sketch`
  needs no baseline and nothing is maintained at ingest.
  :func:`verified_merge` asserts the linearity invariant of the
  computed :mod:`~repro.audit.digest` on a merge.
* :mod:`~repro.audit.certify` — query answers that carry witness edges
  re-verified independently of the decode path.
* :mod:`~repro.audit.repair` — digest *diff* between replicas of one
  sketch (per grid/(group, row) and per member column), localizing
  exactly the state a replica repair must ship.
"""

from .certify import (
    CertifiedResult,
    certify_connectivity,
    certify_edge_connectivity,
    certify_skeleton,
    certify_spanning_forest,
)
from .digest import GridDigest
from .repair import (
    diff_digest_tables,
    divergent_members,
    grid_digest_table,
    member_digest_table,
    sketch_digest_table,
    table_fingerprint,
)
from .integrity import (
    AuditReport,
    Corruption,
    GridRef,
    audit_sketch,
    named_grids,
    verified_merge,
)

__all__ = [
    "AuditReport",
    "CertifiedResult",
    "Corruption",
    "GridDigest",
    "GridRef",
    "audit_sketch",
    "certify_connectivity",
    "certify_edge_connectivity",
    "certify_skeleton",
    "certify_spanning_forest",
    "diff_digest_tables",
    "divergent_members",
    "grid_digest_table",
    "member_digest_table",
    "named_grids",
    "sketch_digest_table",
    "table_fingerprint",
    "verified_merge",
]
