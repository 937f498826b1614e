"""Client-side RPC stubs and the payload layouts both sides share.

Each stub presents the same Python surface as the server object it fronts
(:class:`~repro.entry.server.EntryServer`, :class:`~repro.pkg.server.PkgServer`,
:class:`~repro.mixnet.server.MixServer`, :class:`~repro.cdn.cdn.Cdn`), so the
deployment can hand a stub anywhere a direct reference used to go.  The stub
encodes arguments into a framed payload, issues one :meth:`Transport.call`,
and decodes the response; the server's ``handle_rpc`` does the inverse.  An
RPC that only ever goes out as one wave across many callers or endpoints
(``extract``, the registration legs, ``submit``, ``download``) has a
:class:`BatchCall` builder or a ``*_many`` method instead of a single call.

Every payload is a :class:`~repro.utils.serialization.Message` declared
below -- one description the codec, ``docs/wire.md`` (``python -m
repro.net.wiredoc``) and the fuzzer are all derived from -- and
:data:`METHODS` says which method carries which.  Both directions call
``MSG.encode(...)`` / ``MSG.decode(payload)``; every reply a stub decodes goes
through :func:`decode_reply`, so a reply that cannot be decoded is that call's
:class:`~repro.errors.NetworkError` -- the same rule the real transports apply
to an undecodable frame: one bad reply fails one caller (a client in a wave,
or the round the control call belongs to), never something else.
"""

from __future__ import annotations

from dataclasses import astuple

from repro.errors import CryptoError, NetworkError, SerializationError
from repro.mixnet.chain import RoundCounts
from repro.mixnet.mailbox import decode_mailbox
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.server import MixServerStats
from repro.net.frames import ENVELOPE_BATCH
from repro.net.transport import BatchCall, BatchCallOutcome, Transport
from repro.obs.distributed import PING_REPLY
from repro.utils.serialization import F64, U8, U32, U64, Bytes, Flag, List, Message, Opt, Str


def decode_reply(decode, payload: bytes, *args):
    """Decode one reply; malformed bytes become that call's ``NetworkError``."""
    try:
        return decode(payload, *args)
    except (SerializationError, CryptoError) as exc:
        raise NetworkError(f"undecodable reply: {exc}") from exc


# --------------------------------------------------------------------------- #
# Payload layouts
# --------------------------------------------------------------------------- #
ROUND_REF = Message("round_ref", Str("protocol"), U64("round"))
#: A PKG numbers add-friend rounds only.
PKG_ROUND_REF = Message("pkg_round_ref", U64("round"))
COUNT_REPLY = Message("count_reply", U32("count"))
FLAG_REPLY = Message("flag_reply", Flag("value"))
ROUND_KEY_REPLY = Message("round_key_reply", Bytes("key"), note="a mix server's X25519 round key (32)")

#: Who owns which mailbox range this round
#: (:class:`~repro.cluster.directory.ShardDirectory`); a shard's index is its
#: position.  Self-describing, so a shard can validate routing without any
#: other per-round state.  Declared here, not beside the class:
#: ``repro.cluster`` imports this module.
SHARD_DIRECTORY = Message(
    "shard_directory",
    Str("protocol"), U64("round"), U32("mailbox_count"),
    List("ranges", U32("lo"), U32("hi"), Str("entry"), Str("ingress"), Str("cdn")),
)

ANNOUNCE_REQUEST = Message(
    "announce_request", *ROUND_REF.fields, U32("mailbox_count"), U32("body_length")
)
ANNOUNCE_RESPONSE = Message(
    "announce_response",
    U32("mailbox_count"), U32("body_length"), List("mix_keys", Bytes("key")),
    Opt(SHARD_DIRECTORY), List("pkg_keys", Bytes("key")),
    note="mix keys are 32 bytes each; pkg keys are the PKGs' encoded round master "
    "public keys (128 each; none for dialing)",
)

_SUBMISSION = (Str("client"), Bytes("envelope"), Opt(Bytes("rate_token")))
SUBMIT_REQUEST = Message("submit_request", *ROUND_REF.fields, *_SUBMISSION)
#: Many clients' envelopes under one frame overhead (ingress proxy -> shard).
SUBMIT_BATCH_REQUEST = Message(
    "submit_batch_request", *ROUND_REF.fields, List("entries", *_SUBMISSION)
)
SUBMIT_BATCH_RESPONSE = Message(
    "submit_batch_response", List("statuses", U8("status")),
    note="one `SUBMIT_*` status per envelope, in order",
)
#: The round-open broadcast from the entry server to one entry shard.
OPEN_SHARD_ROUND = Message("open_shard_round", U32("body_length"), SHARD_DIRECTORY)
#: An ingress proxy's flush response.
REJECTS = Message("rejects", List("rejects", Str("client"), Str("reason")))

#: A round's ``MailboxSet`` on the wire; :func:`mailbox_blobs` checks the ids.
PUBLISH_REQUEST = Message(
    "publish_request",
    *ROUND_REF.fields, U32("mailbox_count"), List("mailboxes", U32("mailbox_id"), Bytes("mailbox")),
)
#: One CDN shard's slice of a publish: its ``[lo, hi)`` range first.
SHARD_PUBLISH_REQUEST = Message(
    "shard_publish_request", U32("lo"), U32("hi"), *PUBLISH_REQUEST.fields
)
DOWNLOAD_REQUEST = Message(
    "download_request", *ROUND_REF.fields, U32("mailbox_id"), Str("client")
)
DOWNLOAD_RESPONSE = Message(
    "download_response", Opt(Bytes("mailbox")),
    note="a mailbox's stored bytes; flag 0 is the empty-mailbox marker",
)

#: The ``close_round`` reply (:class:`~repro.mixnet.chain.RoundCounts`):
#: round statistics, never the mailboxes.
ROUND_COUNTS = Message(
    "round_counts",
    U32("submitted"), U32("delivered_real"), U32("dropped"), U32("noise_added"),
    U32("cover_dropped"), List("per_server_noise", U32("noise")),
    List("mailbox_counts", U32("messages")),
)
PROCESS_BATCH_REQUEST = Message(
    "process_batch_request",
    U64("round"), Str("protocol"), U32("mailbox_count"), U32("noise_body_length"),
    F64("addfriend_mu"), F64("addfriend_b"), F64("dialing_mu"), F64("dialing_b"),
    List("downstream_keys", Bytes("key")), List("envelopes", Bytes("envelope")),
)
PROCESS_BATCH_RESPONSE = Message(
    "process_batch_response",
    U32("received"), U32("dropped"), U32("noise_added"), List("envelopes", Bytes("envelope")),
)

REGISTRATION_REQUEST = Message(
    "registration_request", Str("email"), Bytes("blob"),
    note="blob is the signing key, the confirmation token or the deregistration signature",
)
EXTRACT_REQUEST = Message("extract_request", Str("email"), U64("round"), Bytes("signature"))
#: An :class:`~repro.pkg.server.ExtractionResponse`, both shares in their
#: scheme encodings (64 bytes each).
EXTRACTION_RESPONSE = Message(
    "extraction_response",
    Str("pkg"), U64("round"), Bytes("identity_key_share"), Bytes("attestation_share"),
)


#: The method table -- ``(endpoint kinds, methods, request, response)`` -- that
#: ``docs/wire.md`` prints and the fail-closed tests iterate.  A layout is a
#: :class:`Message`, ``None`` for an empty payload, or a string naming a value
#: that is sent raw.
METHODS = (
    (("entry",), ("announce_round",), ANNOUNCE_REQUEST, ANNOUNCE_RESPONSE),
    (("entry", "ingress"), ("submit",), SUBMIT_REQUEST, None),
    (("entry", "entry shard"), ("submissions",), ROUND_REF, COUNT_REPLY),
    (("entry",), ("close_round",), ROUND_REF, ROUND_COUNTS),
    (("mix",), ("open_round", "round_public_key"), ROUND_REF, ROUND_KEY_REPLY),
    (("mix",), ("close_round",), ROUND_REF, None),
    (("mix",), ("process_batch",), PROCESS_BATCH_REQUEST, PROCESS_BATCH_RESPONSE),
    (("pkg",), ("begin_registration", "confirm_registration", "deregister"),
     REGISTRATION_REQUEST, None),
    (("pkg",), ("extract",), EXTRACT_REQUEST, EXTRACTION_RESPONSE),
    (("pkg",), ("open_round",), PKG_ROUND_REF, "master public key"),
    (("pkg",), ("close_round",), PKG_ROUND_REF, None),
    (("pkg",), ("has_master_secret",), PKG_ROUND_REF, FLAG_REPLY),
    (("cdn",), ("publish",), PUBLISH_REQUEST, None),
    (("cdn", "cdn shard"), ("download",), DOWNLOAD_REQUEST, DOWNLOAD_RESPONSE),
    (("cdn shard",), ("publish",), SHARD_PUBLISH_REQUEST, None),
    (("entry shard",), ("open_round",), OPEN_SHARD_ROUND, None),
    (("entry shard",), ("submit_batch",), SUBMIT_BATCH_REQUEST, SUBMIT_BATCH_RESPONSE),
    (("entry shard",), ("close_round",), ROUND_REF, ENVELOPE_BATCH),
    (("entry shard", "ingress"), ("abort_round",), ROUND_REF, None),
    (("ingress",), ("flush",), ROUND_REF, REJECTS),
    (("worker",), ("__runtime_ping__",), None, PING_REPLY),
    (("worker",), ("__runtime_telemetry__",), None, "`WorkerTelemetry.to_payload()` as UTF-8 JSON"),
    (("worker",), ("__runtime_shutdown__",), None, None),
)

# -- sharded entry tier (repro.cluster) ------------------------------------ #
#: Per-envelope acceptance statuses an entry shard reports for a batch.
SUBMIT_ACCEPTED = 0
SUBMIT_DUPLICATE = 1  # dropped silently: the client's first envelope stands
SUBMIT_RATE_LIMITED = 2
SUBMIT_WRONG_SHARD = 3
SUBMIT_ROUND_NOT_OPEN = 4

SUBMIT_STATUS_REASONS = {
    SUBMIT_RATE_LIMITED: "rate token rejected",
    SUBMIT_WRONG_SHARD: "mailbox outside the shard's range",
    SUBMIT_ROUND_NOT_OPEN: "round not open on the shard",
}


def mailbox_blobs(mailboxes: list[tuple[int, bytes]], mailbox_count: int) -> dict[int, bytes]:
    """A decoded publish list as the ``{mailbox id: bytes}`` a CDN stores."""
    blobs: dict[int, bytes] = {}
    for mailbox_id, blob in mailboxes:
        if mailbox_id in blobs or mailbox_id >= mailbox_count:
            raise SerializationError(f"duplicate or out-of-range mailbox id {mailbox_id}")
        blobs[mailbox_id] = blob
    return blobs


def mailbox_reply(payload: bytes, protocol: str, mailbox_id: int):
    """A ``download`` reply as the mailbox object (an empty one for the marker)."""
    (blob,) = DOWNLOAD_RESPONSE.decode(payload)
    return decode_mailbox(protocol, mailbox_id, blob)


def download_wave(
    transport: Transport, protocol: str, round_number: int, items: list[tuple[int, str]], endpoint_for
) -> list[tuple[object, Exception | None]]:
    """One download wave: ``(mailbox_id, client)`` per item, each sent to
    ``endpoint_for(mailbox_id)``.

    Returns ``(mailbox, None)`` or ``(None, error)`` per item, in order; the
    scan stage fetches every participant's mailbox this way before running
    the (simulated-time-free) scan crypto.
    """
    calls = [
        BatchCall(
            src=client,
            dst=endpoint_for(mailbox_id),
            method="download",
            payload=DOWNLOAD_REQUEST.encode(protocol, round_number, mailbox_id, client),
        )
        for mailbox_id, client in items
    ]
    results: list[tuple[object, Exception | None]] = []
    for (mailbox_id, _client), outcome in zip(items, transport.call_batch(calls)):
        if outcome.error is not None:
            results.append((None, outcome.error))
            continue
        try:
            payload = outcome.result.payload
            results.append((decode_reply(mailbox_reply, payload, protocol, mailbox_id), None))
        except NetworkError as exc:
            results.append((None, exc))
    return results


# --------------------------------------------------------------------------- #
# Stubs
# --------------------------------------------------------------------------- #
class EntryStub:
    """Fronts the entry server for the round coordinator and for clients."""

    def __init__(
        self, transport: Transport, endpoint: str = "entry", src: str = "coordinator", ibe=None
    ) -> None:
        self.transport = transport
        self.endpoint = endpoint
        self.src = src
        #: Decodes an add-friend announcement's PKG master public keys.
        self.ibe = ibe

    def announce_round(
        self,
        protocol: str,
        round_number: int,
        mailbox_count: int,
        request_body_length: int,
    ):
        from repro.cluster.directory import ShardDirectory
        from repro.entry.server import RoundAnnouncement

        request = ANNOUNCE_REQUEST.encode(protocol, round_number, mailbox_count, request_body_length)
        result = self.transport.call(self.src, self.endpoint, "announce_round", request)
        final_mailbox_count, body_length, mix_publics, directory, pkg_publics = decode_reply(
            ANNOUNCE_RESPONSE.decode, result.payload
        )
        return RoundAnnouncement(
            protocol=protocol,
            round_number=round_number,
            mix_public_keys=mix_publics,
            pkg_public_keys=[
                decode_reply(self.ibe.master_public_from_bytes, key) for key in pkg_publics
            ],
            mailbox_count=final_mailbox_count,
            request_body_length=body_length,
            shard_directory=directory and ShardDirectory.from_fields(directory),
        )

    def submit_many(
        self,
        protocol: str,
        round_number: int,
        entries: list[tuple[str, bytes, float | None]],
    ) -> list[BatchCallOutcome]:
        """One submit wave: ``(client_id, envelope, start_time)`` per entry.

        Each entry's ``start_time`` is when that client logically begins
        (e.g. when its key extraction finished).  No §9 rate token rides
        along: the ``rate_token`` field of :data:`SUBMIT_REQUEST` is sent
        empty.
        """
        calls = [
            BatchCall(
                src=client_id,
                dst=self.endpoint,
                method="submit",
                payload=SUBMIT_REQUEST.encode(protocol, round_number, client_id, envelope, None),
                start=start,
            )
            for client_id, envelope, start in entries
        ]
        return self.transport.call_batch(calls)

    def flush_submissions(self, protocol: str, round_number: int) -> list[tuple[str, str]]:
        """The end-of-stage drain: ``(client_id, reason)`` per late reject.

        The entry server's in-process front answers every submission itself,
        so there is nothing buffered and no RPC; with a sharded front,
        :meth:`~repro.entry.server.EntryServer.flush_submissions` drains the
        ingress proxies here.
        """
        return []

    def submissions(self, protocol: str, round_number: int) -> int:
        result = self.transport.call(
            self.src, self.endpoint, "submissions", ROUND_REF.encode(protocol, round_number)
        )
        return decode_reply(COUNT_REPLY.decode, result.payload)[0]

    def close_round(self, protocol: str, round_number: int) -> RoundCounts:
        """Mix the round; the entry server publishes the mailboxes itself."""
        result = self.transport.call(
            self.src, self.endpoint, "close_round", ROUND_REF.encode(protocol, round_number)
        )
        return RoundCounts(*decode_reply(ROUND_COUNTS.decode, result.payload))


class MixStub:
    """Fronts one mix server for the chain driver (the entry server)."""

    def __init__(self, transport: Transport, name: str, src: str = "entry") -> None:
        self.transport = transport
        self.name = name
        self.src = src

    def _round_call(self, method: str, protocol: str, round_number: int) -> bytes:
        return self.transport.call(
            self.src, self.name, method, ROUND_REF.encode(protocol, round_number)
        ).payload

    def _round_key(self, method: str, protocol: str, round_number: int) -> bytes:
        reply = self._round_call(method, protocol, round_number)
        return decode_reply(ROUND_KEY_REPLY.decode, reply)[0]

    def open_round(self, protocol: str, round_number: int) -> bytes:
        return self._round_key("open_round", protocol, round_number)

    def round_public_key(self, protocol: str, round_number: int) -> bytes:
        return self._round_key("round_public_key", protocol, round_number)

    def close_round(self, protocol: str, round_number: int) -> None:
        self._round_call("close_round", protocol, round_number)

    def process_batch(
        self,
        round_number: int,
        protocol: str,
        envelopes: list[bytes],
        downstream_publics: list[bytes],
        mailbox_count: int,
        noise_config: NoiseConfig,
        noise_body_length: int,
    ) -> tuple[list[bytes], MixServerStats]:
        request = PROCESS_BATCH_REQUEST.encode(
            round_number, protocol, mailbox_count, noise_body_length,
            *astuple(noise_config), downstream_publics, envelopes,
        )
        result = self.transport.call(self.src, self.name, "process_batch", request)
        *stats, batch = decode_reply(PROCESS_BATCH_RESPONSE.decode, result.payload)
        return batch, MixServerStats(*stats)


class PkgStub:
    """Fronts one PKG server for clients and for the PKG coordinator.

    Registration and extraction calls originate from the client whose email
    appears in the request; round-lifecycle calls originate from
    ``control_src`` -- the entry server, which runs the commit-reveal
    coordinator: ``entry`` by default, the coordinator process when the
    entry server runs there over a sharded front.  The ``ibe`` backend reference, the
    ``attestation`` scheme and the long-term ``bls_public_key`` mirror what a
    real client ships with in its configuration.
    """

    def __init__(
        self,
        transport: Transport,
        name: str,
        ibe,
        attestation,
        bls_public_key,
        control_src: str = "entry",
    ) -> None:
        self.transport = transport
        self.name = name
        self.ibe = ibe
        self.attestation = attestation
        self._bls_public_key = bls_public_key
        self.control_src = control_src

    @property
    def bls_public_key(self):
        return self._bls_public_key

    # -- registration (src = the registering client) -----------------------
    def registration_call(self, method: str, email: str, blob: bytes) -> BatchCall:
        """A ``begin_registration`` / ``confirm_registration`` / ``deregister``
        RPC as a :class:`BatchCall` (``blob``: the signing key, the UTF-8
        confirmation token, the deregistration signature); the client issues
        one wave per leg across all PKGs."""
        return BatchCall(
            src=email,
            dst=self.name,
            method=method,
            payload=REGISTRATION_REQUEST.encode(email, blob),
        )

    # -- extraction (src = the extracting client) --------------------------
    def extract_call(
        self, email: str, round_number: int, request_signature: bytes, start: float | None = None
    ) -> BatchCall:
        """The extraction RPC as a :class:`BatchCall`.

        The caller composes one wave per PKG across all clients and issues it
        via ``transport.call_batch``; :meth:`extraction_response` decodes each
        outcome's reply.
        """
        return BatchCall(
            src=email,
            dst=self.name,
            method="extract",
            payload=EXTRACT_REQUEST.encode(email, round_number, request_signature),
            start=start,
        )

    def extraction_response(self, payload: bytes, email: str):
        """Decode an ``extract`` reply into ``email``'s ExtractionResponse."""
        from repro.pkg.server import ExtractionResponse

        def decode(payload: bytes) -> ExtractionResponse:
            pkg_name, round_number, share, attested = EXTRACTION_RESPONSE.decode(payload)
            share = self.ibe.private_key_from_bytes(email.lower(), share)
            return ExtractionResponse(
                pkg_name, round_number, share, self.attestation.from_bytes(attested)
            )

        return decode_reply(decode, payload)

    # -- round lifecycle (src = the control plane, see ``control_src``) ----
    def _round_call(self, method: str, round_number: int) -> bytes:
        return self.transport.call(
            self.control_src, self.name, method, PKG_ROUND_REF.encode(round_number)
        ).payload

    def _master_public(self, method: str, round_number: int):
        reply = self._round_call(method, round_number)
        return decode_reply(self.ibe.master_public_from_bytes, reply)

    def open_round(self, round_number: int):
        return self._master_public("open_round", round_number)

    def close_round(self, round_number: int) -> None:
        self._round_call("close_round", round_number)

    def has_master_secret(self, round_number: int) -> bool:
        reply = self._round_call("has_master_secret", round_number)
        return decode_reply(FLAG_REPLY.decode, reply)[0]


class CdnStub:
    """Fronts the CDN for clients (downloads) and the entry server (publish)."""

    def __init__(self, transport: Transport, endpoint: str = "cdn") -> None:
        self.transport = transport
        self.endpoint = endpoint

    def publish(self, mailboxes) -> None:
        """Called by the entry server, which ran the mix chain."""
        request = PUBLISH_REQUEST.encode(
            mailboxes.protocol, mailboxes.round_number, mailboxes.mailbox_count,
            list(mailboxes.blobs().items()),
        )
        self.transport.call("entry", self.endpoint, "publish", request)

    def download_many(
        self, protocol: str, round_number: int, items: list[tuple[int, str]]
    ) -> list[tuple[object, Exception | None]]:
        """One download wave (see :func:`download_wave`), all to this CDN."""
        return download_wave(
            self.transport, protocol, round_number, items, lambda _mailbox_id: self.endpoint
        )
