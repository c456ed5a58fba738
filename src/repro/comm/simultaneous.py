"""The simultaneous communication model of Becker et al. (Section 2).

``n + 1`` players: ``P_1 ... P_n`` and a referee ``Q``.  Player
``P_v``'s input is the set of hyperedges incident to vertex ``v``; all
players share public random bits (here: the sketch seed).  Each player
simultaneously sends one message; the referee must answer a question
about the whole graph from the ``n`` messages.

The paper's observation: any *vertex-based* sketch (Definition 1)
yields such a protocol — each linear measurement is local to some
vertex, so exactly one player can evaluate it.  This module makes that
concrete for the spanning-graph sketch (and hence connectivity,
Theorem 13): player ``v``'s message is its member column of the
:class:`~repro.sketch.bank.SamplerGrid`, serialized as a
:func:`~repro.sketch.serialization.dump_member_state` blob; the
referee adds the columns into an empty grid and decodes as usual.  The
quantity the model minimises — the maximum message length — is
measured in counter words and bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import CommError
from ..graph.hypergraph import Hypergraph
from ..sketch.serialization import dump_member_state, read_member_state
from ..sketch.spanning_forest import SpanningForestSketch
from ..util.rng import normalize_seed
from ..core.params import DEFAULT_PARAMS, Params


@dataclass
class ProtocolResult:
    """Outcome of one simultaneous-protocol run.

    ``missing_players`` is empty on a complete exchange; when the
    referee decoded from a partial message set, it lists the player
    ids whose columns never arrived — the verdict then describes the
    surviving columns only and must not be read as a statement about
    the whole graph.  ``sketch`` is the referee's folded sketch, so a
    caller can certify the answer or compare it bit for bit.
    """

    spanning_graph: Hypergraph
    components: List[List[int]]
    is_connected: bool
    message_words: int       # counters per player message (all equal)
    message_bits: int        # 64-bit words -> bits
    total_bits: int          # every message received, duplicates included
    players: int
    missing_players: Tuple[int, ...] = field(default=())
    sketch: Optional[SpanningForestSketch] = None

    @property
    def complete(self) -> bool:
        """True iff every player's column reached the referee."""
        return not self.missing_players


class SpanningForestProtocol:
    """One-round referee protocol for spanning graphs / connectivity.

    Parameters
    ----------
    n, r:
        Ambient graph shape.
    seed:
        The public random bits.
    params:
        Sketch geometry.
    """

    def __init__(
        self,
        n: int,
        r: int = 2,
        seed: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
    ):
        self.n = n
        self.r = r
        self.seed = normalize_seed(seed)
        self.params = params

    def _fresh_sketch(self) -> SpanningForestSketch:
        return SpanningForestSketch(
            self.n,
            r=self.r,
            seed=self.seed,
            rows=self.params.rows,
            buckets=self.params.buckets,
        )

    def player_message(self, vertex: int, incident_edges: Sequence[Sequence[int]]) -> bytes:
        """Compute player ``vertex``'s message from its local input.

        The player evaluates only measurements local to itself — its
        own coefficient of each incident edge — and sends its column
        as wire bytes.
        """
        sketch = self._fresh_sketch()
        for e in incident_edges:
            sketch.update_local(vertex, e, 1)
        return dump_member_state(sketch.grid, vertex)

    def referee_decode(self, blobs: Sequence[bytes]) -> ProtocolResult:
        """Add the received columns and answer connectivity.

        Every blob is CRC- and header-verified; a corrupt, foreign-seed
        or out-of-range one raises before anything is folded from it.
        A player's column is folded exactly **once**: the columns
        combine linearly, so a duplicated blob added twice would
        silently double its contribution.  Duplicates still count
        toward ``total_bits`` — they did cross the wire.  A partial
        set is decoded from the columns that did arrive, and
        ``missing_players`` lists every absent player id, so a short
        read cannot masquerade as a disconnected-graph verdict.  No
        blobs at all raises :class:`~repro.errors.CommError`.
        """
        if not blobs:
            raise CommError(
                "referee received no messages: nothing to decode "
                f"(expected {self.n} players)"
            )
        sketch = self._fresh_sketch()
        members = set()
        for blob in blobs:
            member, state = read_member_state(sketch.grid, blob)
            if member not in members:
                sketch.grid.add_member_state(member, state)
                members.add(member)
        spanning = sketch.decode()
        components = sketch.components_of_decode()
        words = sketch.grid.space_counters() // sketch.grid.members
        return ProtocolResult(
            spanning_graph=spanning,
            components=components,
            is_connected=len(components) == 1,
            message_words=words,
            message_bits=64 * words,
            total_bits=64 * words * len(blobs),
            players=len(members),
            missing_players=tuple(v for v in range(self.n) if v not in members),
            sketch=sketch,
        )

    def run(self, hypergraph: Hypergraph) -> ProtocolResult:
        """Simulate the full protocol on a concrete hypergraph."""
        return self.referee_decode([
            self.player_message(v, sorted(hypergraph.incident_edges(v)))
            for v in range(hypergraph.n)
        ])
