"""Per-AS gateway/mapping-server behaviour in the simulation.

Each AS runs DMap "at a separate compute layer at the gateway router"
(§IV-B): it stores the mapping replicas hashed to its announced space and
answers INSERT / LOOKUP / MIGRATE messages.  Requests are served the
moment they arrive: the paper argues queueing and processing are
negligible next to the network round trip.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.guid import GUID
from ..core.mapping import MappingEntry, MappingStore
from ..core.resolver import OUTCOME_HIT, OUTCOME_TIMEOUT
from ..errors import SimulationError
from .failures import FailureModel
from .network import Message, MessageKind, Network

#: Approximate on-the-wire size of protocol messages, for traffic
#: accounting (§IV-A): a request carries the 160-bit GUID plus headers; a
#: response or insert carries a full 352-bit mapping entry plus headers.
REQUEST_SIZE_BITS = 160 + 64
ENTRY_SIZE_BITS = 352 + 64


class ASNode:
    """One AS's DMap server.

    Responses are routed back through the network to the *requesting* AS,
    whose node forwards them to the gateway-operation layer via
    ``response_sink`` (set by the simulation).
    """

    def __init__(
        self,
        asn: int,
        network: Network,
        failure_model: FailureModel,
    ) -> None:
        self.asn = asn
        self.network = network
        self.failure_model = failure_model
        self.store = MappingStore(owner_asn=asn)
        self.response_sink: Optional[Callable[[Message], None]] = None
        #: Called with (asn, guid) after a genuine miss — lets the
        #: simulation run the §III-D.1 lazy-migration protocol.
        self.miss_hook: Optional[Callable[[int, GUID], None]] = None
        network.register(asn, self.handle)

    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        """Entry point for every message delivered to this AS."""
        kind = message.kind
        if kind in (
            MessageKind.INSERT_ACK,
            MessageKind.LOOKUP_HIT,
            MessageKind.LOOKUP_MISS,
        ):
            if self.response_sink is None:
                raise SimulationError(f"AS {self.asn} received a response with no sink")
            self.response_sink(message)
            return
        if self.failure_model.is_down(self.asn):
            return  # dead router: requests vanish, requester times out
        if message.kind is MessageKind.INSERT:
            self._serve_insert(message)
        elif message.kind is MessageKind.LOOKUP:
            self._serve_lookup(message)
        elif message.kind is MessageKind.MIGRATE:
            self._serve_migrate(message)
        elif message.kind is MessageKind.RETIRE:
            self._serve_retire(message)
        else:
            raise SimulationError(f"AS {self.asn}: unexpected message {message.kind}")

    def _serve_insert(self, message: Message) -> None:
        entry: MappingEntry = message.payload
        self.store.insert(entry)
        self.network.send(
            MessageKind.INSERT_ACK,
            self.asn,
            message.src_asn,
            message.request_id,
            payload=entry.guid,
            size_bits=REQUEST_SIZE_BITS,
        )

    def _serve_lookup(self, message: Message) -> None:
        guid: GUID = message.payload["guid"]
        is_local: bool = message.payload["is_local"]
        outcome = OUTCOME_HIT
        if not is_local:
            # Local queries share the requester's BGP view, so churn
            # staleness only applies to the global branch.
            outcome = self.failure_model.lookup_outcome(self.asn, guid)
        if outcome == OUTCOME_TIMEOUT:
            return  # no answer; the requester's timer expires
        entry = self.store.get(guid) if outcome == OUTCOME_HIT else None
        if entry is not None:
            self.network.send(
                MessageKind.LOOKUP_HIT,
                self.asn,
                message.src_asn,
                message.request_id,
                payload=entry,
                size_bits=ENTRY_SIZE_BITS,
            )
        else:
            self.network.send(
                MessageKind.LOOKUP_MISS,
                self.asn,
                message.src_asn,
                message.request_id,
                payload=guid,
                size_bits=REQUEST_SIZE_BITS,
            )
            if self.miss_hook is not None and outcome == OUTCOME_HIT:
                # §III-D.1: a genuinely-missing mapping at an AS that
                # should host it triggers a one-time GUID migration pull.
                self.miss_hook(self.asn, guid)

    def _serve_migrate(self, message: Message) -> None:
        entry: MappingEntry = message.payload
        self.store.insert(entry)

    def _serve_retire(self, message: Message) -> None:
        """Drop a local copy superseded by an Update at a newer AS.

        The version guard keeps the retire safe when this AS also hosts a
        global replica: the INSERT racing ahead of the RETIRE refreshes
        the stored version, so only genuinely stale copies are removed.
        """
        entry: MappingEntry = message.payload
        stored = self.store.get(entry.guid)
        if stored is not None and stored.version < entry.version:
            self.store.delete(entry.guid)
