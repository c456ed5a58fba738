"""The paper's one-round referee protocol (Becker et al., Section 2).

:mod:`~repro.comm.simultaneous`: every player sends its vertex-based
sketch column once, as a CRC-checked member-state blob, and the
referee folds each player's column once and decodes.
"""

from .simultaneous import ProtocolResult, SpanningForestProtocol

__all__ = ["ProtocolResult", "SpanningForestProtocol"]
