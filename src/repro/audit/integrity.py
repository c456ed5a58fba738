"""Bank auditing: detect, localize, and report out-of-band corruption.

The question this module answers is not "did the decode fail?" (the
paper's allowed probabilistic mode) but "is the sketch *state* still
what the stream produced?".  Every composite sketch in the library
bottoms out in :class:`~repro.sketch.bank.SamplerGrid` counter banks;
:func:`named_grids` walks the composition conventions and names each
bank with the instance it belongs to (a union's sampled instance, a
skeleton's layer, a forest's Borůvka round), so that
:func:`audit_sketch` can report corruption as a
``(sketch, instance, group, member, level)`` finding — precise enough
for the degraded-decode layer to *exclude that instance* instead of
trusting or discarding the whole structure.

The audit keeps no state: it reads the sketch's own redundancy.  An
update to coordinate ``i`` lands at every subsampling level
``0..depth(g, i)`` of its group and, at each of those levels, in
exactly one bucket of *every* hash row.  So at a fixed
``(group, member, level)`` each row's bucket total — of ``w`` exactly
(mod 2^64), of ``s`` and ``f`` mod p — is the same linear function of
the member's vector, whatever the history: scalar or batched updates,
merges, restores, member-state repair, phantom deletes.  A single
flipped bit moves one row's total by ``±2^b``, which is nonzero mod
2^64 and mod p, so the first audit that reads it sees the rows
disagree.  Blind spot: damage that moves every row's total equally,
or that permutes cells within one row.  A one-row grid has no
redundancy, and the audit refuses it.

Verified merges close the other gap: a merge that adds the right
counters into the wrong cells keeps every row consistent.
:func:`verified_merge` asserts the linearity invariant
``digest(a + b) = digest(a) + digest(b)`` on digests computed before
and after the merge, so a mis-merge or a corrupted operand raises
:class:`~repro.errors.IntegrityError` with localized findings instead
of poisoning the accumulator silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import IncompatibleSketchError, IntegrityError
from ..sketch.bank import SamplerGrid
from .digest import GridDigest, _fold_mod_rows


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
    ``._skeleton`` delegation), so the auditor covers the full surface
    the CLI exposes.  On the streaming sketches it yields their grids
    in ``iter_grids`` order, so a finding's grid and anti-entropy's
    ``grid=`` index agree.
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
    decoders can exclude.  An audit names the ``member`` and ``level``
    whose hash rows disagree and, in ``kind``, the counters that do
    (``"w"``, ``"s"``, ``"f"``, joined by ``+``).  A verified merge
    names the group only (``member`` and ``level`` are ``None``) and
    the digest that disagreed (``"w"``, ``"s/f"``).
    """

    sketch: str
    instance: Optional[int]
    group: int
    member: Optional[int]
    level: Optional[int]
    kind: str

    def describe(self) -> str:
        where = f"instance={self.instance} group={self.group}"
        if self.member is not None:
            where += f" member={self.member} level={self.level}"
        return f"{self.sketch}: {where} counters={self.kind}"


@dataclass(frozen=True)
class AuditReport:
    """The outcome of one :func:`audit_sketch` pass."""

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


def _rows_disagree(plane: np.ndarray, modular: bool) -> np.ndarray:
    """``(members, levels)`` mask of one group's counter plane: where
    the hash rows' bucket totals differ (mod p when ``modular``, else
    mod 2^64)."""
    if modular:
        totals = _fold_mod_rows(plane, "...b->...")
    else:
        totals = np.einsum("...b->...", plane)  # wraps: exact mod 2^64
    return (totals[..., 1:] != totals[..., :1]).any(axis=-1)


def _row_findings(refs: List[GridRef]) -> List[Corruption]:
    """Every (grid, group, member, level) whose hash rows disagree;
    O(bank) reads, no writes.  ``kind`` names the counters that do."""
    findings: List[Corruption] = []
    for ref in refs:
        grid = ref.grid
        for g in range(grid.groups):
            masks = [
                _rows_disagree(plane[g], modular=name != "w")
                for name, plane in zip("wsf", (grid._w, grid._s, grid._f))
            ]
            for m, lvl in zip(*np.nonzero(masks[0] | masks[1] | masks[2])):
                findings.append(Corruption(
                    sketch=ref.label,
                    instance=ref.instance if ref.instance is not None else g,
                    group=g,
                    member=int(m),
                    level=int(lvl),
                    kind="+".join(
                        name for name, mask in zip("wsf", masks)
                        if mask[m, lvl]
                    ),
                ))
    return findings


def audit_sketch(sketch: Any, label: str = "sketch", metrics=None) -> AuditReport:
    """One full integrity pass over every bank of ``sketch``.

    Read-only and stateless: the first call already convicts damage
    done before it.  Raises
    :class:`~repro.errors.IncompatibleSketchError` for a sketch with a
    one-row grid, which has no redundancy to check.  ``metrics`` (an
    :class:`~repro.engine.metrics.IngestMetrics` or compatible) gets
    ``audits`` incremented per pass and ``corruption_detected`` per
    finding.
    """
    refs = list(named_grids(sketch, label))
    for ref in refs:
        if ref.grid.rows < 2:
            raise IncompatibleSketchError(
                f"cannot audit {ref.label}: a one-row grid has no "
                "redundant row to check against"
            )
    findings = _row_findings(refs)
    if metrics is not None:
        metrics.audits += 1
        metrics.corruption_detected += len(findings)
    return AuditReport(grids_audited=len(refs), findings=tuple(findings))


def verified_merge(dst: Any, src: Any, label: str = "merge", metrics=None):
    """``dst += src`` with both operands audited and the linearity
    invariant asserted.

    First the operands' rows are checked as :func:`audit_sketch` does
    (one-row grids have nothing to check), so a corrupted operand
    raises :class:`~repro.errors.IntegrityError` before anything is
    folded.  Then both are digested, the merge runs through the
    sketches' own ``__iadd__``, and the merged banks are digested
    again: any disagreement between ``digest(dst) + digest(src)`` and
    ``digest(merged)`` — a botched merge — raises too, with findings
    localized to (instance, group).  Returns the merged ``dst``.
    """
    dst_refs = list(named_grids(dst, label))
    src_refs = list(named_grids(src, label))
    if len(dst_refs) != len(src_refs):
        raise IncompatibleSketchError(
            f"verified merge over mismatched structures "
            f"({len(dst_refs)} vs {len(src_refs)} grids)"
        )
    findings = _row_findings(
        [ref for ref in dst_refs + src_refs if ref.grid.rows > 1]
    )
    what = "operand rows disagree"
    if not findings:
        expected = []
        for ours, theirs in zip(dst_refs, src_refs):
            digest = GridDigest.compute(ours.grid)
            digest.absorb(GridDigest.compute(theirs.grid))
            expected.append(digest)
        dst += src
        # One finding per (grid, group, kind), whichever rows disagree.
        findings = list(dict.fromkeys(
            Corruption(
                sketch=ref.label,
                instance=ref.instance if ref.instance is not None else group,
                group=group,
                member=None,
                level=None,
                kind=kind,
            )
            for ref, want in zip(dst_refs, expected)
            for group, _row, kind in want.mismatches(
                GridDigest.compute(ref.grid)
            )
        ))
        what = "linearity invariant violated"
    if metrics is not None:
        metrics.audits += 1
        metrics.corruption_detected += len(findings)
    if findings:
        raise IntegrityError(
            f"verified merge failed: {what} at "
            + "; ".join(f.describe() for f in findings[:8])
            + ("; ..." if len(findings) > 8 else ""),
            findings=findings,
        )
    return dst
