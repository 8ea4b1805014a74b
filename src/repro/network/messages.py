"""Protocol messages and their accounting identity.

The evaluation's primary metric is the *number of exchanged messages*; this
module enumerates every message type the protocols use (Sections 4 and 5 of
the paper) so the metrics layer can attribute traffic precisely.

Messages are plain data: nothing here knows about clocks or schedulers.
Delivery timing and ordering belong to the transport and the simulator.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class MessageType(enum.Enum):
    """Every message kind exchanged by the protocols."""

    # -- summary construction (Section 4.1)
    SUMPEER = "sumpeer"            # superpeer advertisement broadcast (TTL-bounded)
    LOCALSUM = "localsum"          # a peer ships its local summary to the superpeer
    DROP = "drop"                  # a peer drops its old partnership
    FIND = "find"                  # selective walk looking for a summary peer

    # -- summary maintenance (Section 4.2)
    PUSH = "push"                  # freshness-bit update from a partner
    RECONCILIATION = "reconciliation"  # ring message rebuilding the global summary

    # -- peer dynamicity (Section 4.3)
    RELEASE = "release"            # a leaving superpeer releases its partners

    # -- query processing (Section 5)
    QUERY = "query"                # query sent to the summary peer or to a relevant peer
    QUERY_RESPONSE = "query_response"  # answer returned to the originator
    FLOOD_REQUEST = "flood_request"    # inter-domain flooding request
    FLOOD_QUERY = "flood_query"        # TTL-bounded flooded query (also the baseline)


_message_counter = itertools.count()


@dataclass
class Message:
    """One message in flight.

    ``size_bytes`` only matters for traffic-volume style reporting; the paper
    counts messages, so the default of one "unit" is usually enough.
    """

    type: MessageType
    source: str
    destination: str
    payload: Dict[str, Any] = field(default_factory=dict)
    ttl: Optional[int] = None
    size_bytes: int = 1
    message_id: int = field(default_factory=lambda: next(_message_counter))

    def expired(self) -> bool:
        """True when a TTL-bounded message may no longer be forwarded."""
        return self.ttl is not None and self.ttl <= 0

    def forwarded(self, new_destination: str, new_source: Optional[str] = None) -> "Message":
        """A copy of the message forwarded one hop further (TTL decremented)."""
        return Message(
            type=self.type,
            source=new_source if new_source is not None else self.destination,
            destination=new_destination,
            payload=dict(self.payload),
            ttl=None if self.ttl is None else self.ttl - 1,
            size_bytes=self.size_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        ttl = f", ttl={self.ttl}" if self.ttl is not None else ""
        return (
            f"Message({self.type.value}, {self.source} -> {self.destination}{ttl})"
        )
