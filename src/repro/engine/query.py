"""The vectorised decode/query engine.

The ingestion engine makes *writing* sketches fast; this module is
its read-side counterpart.  The heavy lifting lives in the batched
decode kernels of :mod:`repro.sketch.bank`
(:meth:`~repro.sketch.bank.SamplerGrid.summed_many` /
:class:`~repro.sketch.bank.SummedBatch`); this module provides the
observability around them: :class:`QueryMetrics` — component decodes,
cells verified, kernel time — installed process-wide with
:func:`collect_query_metrics` and exported by the CLI
``--metrics-json`` flags.

There is one decode path.  The scalar reference decoder that the
property suite and the E23 benchmark compare it against lives in
:mod:`repro.sketch.reference`, which the library never imports.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterator, Optional

from ..sketch import bank as _bank

# -- observability --------------------------------------------------------


@dataclass
class QueryMetrics:
    """Decode-path observability for one query session.

    Counts component decodes (``batch_queries``: components sampled
    by the :class:`~repro.sketch.bank.SummedBatch` kernels), counter
    cells the component gather read (``cells_gathered``: every
    component's copy of its first member plus every member of a
    multi-member component, over the levels read — a large round reads
    its levels in windows, see ``docs/query.md``), candidate cells
    pushed through the verification kernel (``cells_decoded``), and
    kernel wall time.
    The decode also says *why* it answered: Borůvka rounds run
    (``decode_rounds``), the outcome of every component sample
    (``sample_ok`` / ``sample_zero`` / ``sample_failed``), how many
    components no certified level resolved and the single-cell
    fallback scan had to take (``fallback_scans``), and verification
    sweeps of the joint peel (``peel_sweeps``).  A union decode
    (:class:`~repro.core._sampled.SampledForestUnion`) runs its dirty
    instances through one loop, so there ``decode_rounds`` and
    ``peel_sweeps`` count kernel passes — fewer than the per-instance
    sum, while the per-component counters add up exactly as they would
    per instance (so do the cell counters, while the stack and the
    instances sit on the same side of the window gate) — and
    ``instances_decoded`` says how many of the R
    instances the fresh answers had to re-decode.
    ``degraded_queries`` counts the answers
    :func:`repro.core.degraded.decode_with_degradation` degraded.
    ``cache_hits`` / ``cache_misses`` always read 0; they stay only
    because the benchmark's metric schema reads them.
    """

    batch_queries: int = 0
    cells_gathered: int = 0
    cells_decoded: int = 0
    decode_rounds: int = 0
    sample_ok: int = 0
    sample_zero: int = 0
    sample_failed: int = 0
    fallback_scans: int = 0
    peel_sweeps: int = 0
    instances_decoded: int = 0
    kernel_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    degraded_queries: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of summed-sketch requests served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def merge(self, other: "QueryMetrics") -> None:
        """Fold another session's counters in."""
        for field in fields(self):
            setattr(
                self, field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )

    def to_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["cache_hit_rate"] = self.cache_hit_rate
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """A compact human-readable summary."""
        lines = [
            f"decodes: {self.batch_queries} components, "
            f"{self.cells_decoded} cells verified",
            f"time: kernel={self.kernel_seconds:.4f}s",
        ]
        if self.cells_gathered:
            lines.append(f"gather: {self.cells_gathered} counter cells read")
        if self.decode_rounds:
            lines.append(f"rounds: {self.decode_rounds} Borůvka")
        if self.instances_decoded:
            lines.append(
                f"union: {self.instances_decoded} sampled instances "
                "re-decoded"
            )
        if self.batch_queries:
            lines.append(
                f"samples: {self.sample_ok} ok / {self.sample_zero} zero / "
                f"{self.sample_failed} failed "
                f"({self.fallback_scans} via fallback scan), "
                f"{self.peel_sweeps} peel sweeps"
            )
        if self.degraded_queries:
            lines.append(f"degraded queries: {self.degraded_queries}")
        return "\n".join(lines)


@contextmanager
def collect_query_metrics(
    metrics: Optional[QueryMetrics] = None,
) -> Iterator[QueryMetrics]:
    """Install a :class:`QueryMetrics` sink for the enclosed decodes.

    Every decode on every grid inside the ``with`` block records into
    the yielded object; the previous sink (usually None) is restored on
    exit.
    """
    sink = metrics if metrics is not None else QueryMetrics()
    previous = _bank.set_query_metrics(sink)
    try:
        yield sink
    finally:
        _bank.set_query_metrics(previous)
