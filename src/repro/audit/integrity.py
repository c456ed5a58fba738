"""Bank auditing: detect, localize, and report out-of-band corruption.

The question this module answers is not "did the decode fail?" (the
paper's allowed probabilistic mode) but "is the sketch *state* still
what the stream produced?".  Every composite sketch in the library
bottoms out in :class:`~repro.sketch.bank.SamplerGrid` counter banks;
:func:`named_grids` walks the composition conventions and names each
bank with the instance it belongs to (a union's sampled instance, a
skeleton's layer, a forest's Borůvka round), so that
:meth:`SketchAuditor.audit` can report corruption as a
``(sketch, instance, group, row)`` finding — precise enough for the
degraded-decode layer to *exclude that instance* instead of trusting
or discarding the whole structure.

Verified merges close the other gap: shard merge and checkpoint
restore mutate banks wholesale, outside the update path.
:func:`verified_merge` asserts the linearity invariant
``digest(a + b) = digest(a) + digest(b)`` against a fresh recompute of
the merged arrays, so a mis-merge or a corrupted operand raises
:class:`~repro.errors.IntegrityError` with localized findings instead
of poisoning the accumulator silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Set, Tuple

from ..errors import IncompatibleSketchError, IntegrityError
from ..sketch.bank import SamplerGrid
from .digest import GridDigest, attach_digest


@dataclass(frozen=True)
class GridRef:
    """One named counter bank inside a (possibly composite) sketch.

    ``instance`` is the enclosing repetition id when the bank belongs
    to one (a :class:`~repro.core._sampled.SampledForestUnion` instance
    id or a :class:`~repro.sketch.skeleton.SkeletonSketch` layer
    index); ``None`` for a bare grid, whose *groups* are the instances.
    """

    label: str
    instance: Optional[int]
    grid: SamplerGrid


def named_grids(sketch: Any, label: str = "sketch",
                instance: Optional[int] = None) -> Iterator[GridRef]:
    """Yield every counter bank of ``sketch`` with a stable name.

    Extends :func:`repro.sketch.serialization.iter_grids`'s composition
    conventions (grid / ``.grid`` / ``.layers``) with the query-layer
    structures (``.sketches`` instance maps, ``._union`` /
    ``._skeleton`` / ``._sketch`` delegation), so the auditor covers
    the full surface the CLI exposes.
    """
    if isinstance(sketch, SamplerGrid):
        yield GridRef(label, instance, sketch)
    elif hasattr(sketch, "grid"):
        yield GridRef(label, instance, sketch.grid)
    elif hasattr(sketch, "layers"):
        for i, layer in enumerate(sketch.layers):
            yield from named_grids(
                layer, f"{label}.layer[{i}]",
                i if instance is None else instance,
            )
    elif hasattr(sketch, "sketches") and hasattr(sketch.sketches, "items"):
        for key in sorted(sketch.sketches):
            yield from named_grids(
                sketch.sketches[key], f"{label}.instance[{key}]",
                key if instance is None else instance,
            )
    elif hasattr(sketch, "_union"):
        yield from named_grids(sketch._union, label, instance)
    elif hasattr(sketch, "_skeleton"):
        yield from named_grids(sketch._skeleton, label, instance)
    elif hasattr(sketch, "_sketch"):
        yield from named_grids(sketch._sketch, label, instance)
    else:
        raise IncompatibleSketchError(
            f"cannot audit {type(sketch).__name__}: expected a SamplerGrid "
            "or a sketch composed of grids/layers/instances"
        )


@dataclass(frozen=True)
class Corruption:
    """One localized integrity finding.

    ``instance`` identifies the independent repetition the damaged bank
    serves (union instance id, skeleton layer, or — for a single-grid
    sketch — the Borůvka round/group), which is the unit the degraded
    decoders can exclude.  ``kind`` says which digest disagreed
    (``"w"``, ``"s/f"``, or both).
    """

    sketch: str
    instance: Optional[int]
    group: int
    row: int
    kind: str

    def describe(self) -> str:
        return (
            f"{self.sketch}: instance={self.instance} group={self.group} "
            f"row={self.row} counters={self.kind}"
        )


@dataclass(frozen=True)
class AuditReport:
    """The outcome of one :meth:`SketchAuditor.audit` pass."""

    grids_audited: int
    findings: Tuple[Corruption, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def corrupted_instances(self) -> Set[int]:
        """Instance ids implicated by at least one finding."""
        return {
            f.instance for f in self.findings if f.instance is not None
        }

    def raise_if_corrupt(self) -> "AuditReport":
        if self.findings:
            raise IntegrityError(
                f"sketch integrity audit failed: {len(self.findings)} "
                f"corrupted (sketch, instance, row) locations: "
                + "; ".join(f.describe() for f in self.findings[:8])
                + ("; ..." if len(self.findings) > 8 else ""),
                findings=self.findings,
            )
        return self


def _audit_refs(refs: List[GridRef]) -> List[Corruption]:
    findings: List[Corruption] = []
    for ref in refs:
        if ref.grid._digest is None:
            continue  # never baselined; nothing to compare against
        actual = GridDigest.compute(ref.grid)
        for group, row, kind in ref.grid._digest.mismatches(actual):
            findings.append(
                Corruption(
                    sketch=ref.label,
                    instance=ref.instance if ref.instance is not None else group,
                    group=group,
                    row=row,
                    kind=kind,
                )
            )
    return findings


class SketchAuditor:
    """Maintains digests over one sketch's banks and audits on demand.

    Construction attaches a :class:`~repro.audit.digest.GridDigest` to
    every bank (accepting the *current* counters as the trusted
    baseline); from then on the sketch's own update/merge paths keep
    the digests synchronized, and :meth:`audit` compares a fresh
    recompute against them — divergence means the arrays were mutated
    outside the update path.
    """

    def __init__(self, sketch: Any, label: str = "sketch"):
        self.sketch = sketch
        self.label = label
        self.refs = list(named_grids(sketch, label))
        for ref in self.refs:
            attach_digest(ref.grid)

    def audit(self, metrics=None) -> AuditReport:
        """One full integrity pass; O(bank) work, read-only.

        ``metrics`` (an :class:`~repro.engine.metrics.IngestMetrics` or
        compatible) gets ``audits`` incremented per pass and
        ``corruption_detected`` per finding.
        """
        findings = _audit_refs(self.refs)
        if metrics is not None:
            metrics.audits += 1
            metrics.corruption_detected += len(findings)
        return AuditReport(grids_audited=len(self.refs),
                           findings=tuple(findings))

    def rebase(self) -> None:
        """Accept the current counters as the new trusted baseline."""
        for ref in self.refs:
            attach_digest(ref.grid, force=True)


def audit_sketch(sketch: Any, label: str = "sketch", metrics=None) -> AuditReport:
    """Convenience one-shot: attach-if-needed and audit immediately.

    Note the first call on a never-baselined sketch trivially passes
    (its current state *is* the baseline); corruption is detectable
    only after a baseline exists.
    """
    return SketchAuditor(sketch, label).audit(metrics=metrics)


def verified_merge(dst: Any, src: Any, label: str = "merge", metrics=None):
    """``dst += src`` with the linearity invariant asserted.

    Digests are attached to both operands (computed from their current
    arrays if absent), the merge runs through the sketches' own
    ``__iadd__`` (which combines digests algebraically), and the merged
    banks are then re-digested from scratch: any disagreement between
    ``digest(a) + digest(b)`` and ``digest(merged arrays)`` — a
    corrupted operand or a botched merge — raises
    :class:`~repro.errors.IntegrityError` with localized findings.
    Returns the merged ``dst``.
    """
    dst_refs = list(named_grids(dst, label))
    src_refs = list(named_grids(src, label))
    if len(dst_refs) != len(src_refs):
        raise IncompatibleSketchError(
            f"verified merge over mismatched structures "
            f"({len(dst_refs)} vs {len(src_refs)} grids)"
        )
    for ref in dst_refs:
        attach_digest(ref.grid)
    for ref in src_refs:
        attach_digest(ref.grid)
    dst += src
    findings = _audit_refs(dst_refs)
    if metrics is not None:
        metrics.audits += 1
        metrics.corruption_detected += len(findings)
    if findings:
        raise IntegrityError(
            f"verified merge failed: linearity invariant violated at "
            + "; ".join(f.describe() for f in findings[:8])
            + ("; ..." if len(findings) > 8 else ""),
            findings=findings,
        )
    return dst


def verified_restore(sketch: Any, blob: bytes, accumulate: bool = False,
                     label: str = "restore", metrics=None):
    """Checkpoint-restore with integrity verification end to end.

    The blob's CRC is verified first (storage/transit damage).  With
    ``accumulate=True`` the blob is deserialized into a zero clone and
    folded in through :func:`verified_merge`, so the restore also
    asserts the linearity invariant; otherwise the restored counters
    replace the sketch's state and become the new digest baseline.
    """
    from ..sketch.serialization import iter_grids, load_sketch, verify_sketch_blob

    verify_sketch_blob(blob)
    if accumulate:
        clone = sketch.copy()
        for grid in iter_grids(clone):
            grid.reset()
        load_sketch(clone, blob)
        return verified_merge(sketch, clone, label=label, metrics=metrics)
    load_sketch(sketch, blob)
    for ref in named_grids(sketch, label):
        attach_digest(ref.grid)
    if metrics is not None:
        metrics.audits += 1
    return sketch
