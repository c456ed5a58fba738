"""Sketch integrity auditing and result certification.

Two robustness layers over the linear-sketch machinery:

* :mod:`~repro.audit.integrity` — detect and *localize* out-of-band
  corruption of counter banks from their own redundancy: every hash
  row of a grid holds the same bucket totals, so :func:`audit_sketch`
  needs no baseline and nothing is maintained at ingest.
  :func:`verified_merge` asserts the linearity invariant of the
  computed :mod:`~repro.audit.digest` on a merge.
* :mod:`~repro.audit.certify` — query answers that carry witness edges
  re-verified independently of the decode path.
"""

from .certify import (
    CertifiedResult,
    certify_connectivity,
    certify_edge_connectivity,
    certify_skeleton,
    certify_spanning_forest,
)
from .digest import GridDigest
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
    "named_grids",
    "verified_merge",
]
