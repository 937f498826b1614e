"""A simulated CDN that serves per-round mailboxes to clients.

The paper's prototype offloads mailbox distribution to a commercial CDN
(§7); the mailbox contents are public state, so the CDN needs no trust.
This in-process stand-in stores the serialized mailboxes per
``(protocol, round, mailbox id)``; what each client downloaded is measured on
the wire (``Transport.stats``).
"""

from __future__ import annotations

from repro.errors import UnknownRoundError
from repro.mixnet.mailbox import MailboxSet


class Cdn:
    """Stores and serves mailboxes; retains a bounded number of old rounds."""

    def __init__(self, retained_rounds: int = 32) -> None:
        self.retained_rounds = retained_rounds
        # (protocol, round) -> {mailbox_id: serialized mailbox}
        self._store: dict[tuple[str, int], dict[int, bytes]] = {}

    # -- publication (called by the entry server after a round) -----------
    def publish(self, mailboxes: MailboxSet) -> None:
        self.store_round(mailboxes.protocol, mailboxes.round_number, mailboxes.blobs())

    def store_round(self, protocol: str, round_number: int, blobs: dict[int, bytes]) -> None:
        """Store one round's serialized mailboxes as received (no re-encoding)."""
        self._store[(protocol, round_number)] = blobs
        self._evict_old(protocol)

    def _evict_old(self, protocol: str) -> None:
        rounds = sorted(r for (p, r) in self._store if p == protocol)
        while len(rounds) > self.retained_rounds:
            oldest = rounds.pop(0)
            self._store.pop((protocol, oldest), None)

    # -- queries (made by clients) ------------------------------------------
    def download_blob(self, protocol: str, round_number: int, mailbox_id: int, client: str = "anonymous") -> bytes | None:
        """Fetch one mailbox's serialized bytes; ``None`` if it is empty.

        An *empty mailbox in a known round* is the only case that returns
        ``None``; a round this server never published (or already evicted)
        raises :class:`UnknownRoundError` instead, so a misrouted download
        -- the classic shard-routing bug -- surfaces as an explicit error
        rather than reading as silent no-mail.
        """
        key = (protocol, round_number)
        if key not in self._store:
            raise UnknownRoundError(f"no published {protocol} mailboxes for round {round_number}")
        return self._store[key].get(mailbox_id)

    # -- transport dispatch --------------------------------------------------
    def handle_rpc(self, request):
        """Serve one framed RPC (see ``repro/net/rpc.py`` for the layouts)."""
        from repro.errors import NetworkError
        from repro.net import rpc
        from repro.net.transport import RpcResult

        if request.method == "publish":
            *round_ref, mailbox_count, mailboxes = rpc.PUBLISH_REQUEST.decode(request.payload)
            self.store_round(*round_ref, rpc.mailbox_blobs(mailboxes, mailbox_count))
            return RpcResult()
        if request.method == "download":
            protocol, round_number, mailbox_id, client = rpc.DOWNLOAD_REQUEST.decode(request.payload)
            blob = self.download_blob(protocol, round_number, mailbox_id, client)
            return RpcResult(payload=rpc.DOWNLOAD_RESPONSE.encode(blob))
        raise NetworkError(f"CDN has no RPC method {request.method!r}")
