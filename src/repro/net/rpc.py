"""Client-side RPC stubs and the payload codecs both sides share.

Each stub presents the same Python surface as the server object it fronts
(:class:`~repro.entry.server.EntryServer`, :class:`~repro.pkg.server.PkgServer`,
:class:`~repro.mixnet.server.MixServer`, :class:`~repro.cdn.cdn.Cdn`), so the
deployment can hand a stub anywhere a direct reference used to go.  The stub
encodes arguments into a framed payload, issues one :meth:`Transport.call`,
and decodes the response; the server's ``handle_rpc`` does the inverse.

Payload layouts live in the ``encode_*`` / ``decode_*`` helpers below so the
two directions cannot drift apart; ``docs/wire.md`` tabulates them.  A client
wave's reply (``extract``, ``download``) or a round-control reply the
coordinator cannot decode is that call's :class:`~repro.errors.NetworkError`
(:func:`decode_reply`), the same rule the real transports apply to an
undecodable frame: one bad reply fails one caller, not the wave.
"""

from __future__ import annotations

from repro.errors import CryptoError, NetworkError, SerializationError
from repro.mixnet.chain import RoundCounts
from repro.mixnet.mailbox import decode_mailbox
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.server import MixServerStats
from repro.net.frames import pack_bytes_list, unpack_bytes_list
from repro.net.transport import BatchCall, BatchCallOutcome, Transport
from repro.utils.serialization import Packer, Unpacker


def decode_reply(decode, payload: bytes, *args):
    """Decode one reply; malformed bytes become that call's ``NetworkError``."""
    try:
        return decode(payload, *args)
    except (SerializationError, CryptoError) as exc:
        raise NetworkError(f"undecodable reply: {exc}") from exc


# --------------------------------------------------------------------------- #
# Payload codecs (request direction unless suffixed _response)
# --------------------------------------------------------------------------- #
def encode_round_ref(protocol: str, round_number: int) -> bytes:
    return Packer().str(protocol).u64(round_number).pack()


def decode_round_ref(payload: bytes) -> tuple[str, int]:
    unpacker = Unpacker(payload)
    protocol, round_number = unpacker.str(), unpacker.u64()
    unpacker.done()
    return protocol, round_number


def encode_announce_request(
    protocol: str, round_number: int, mailbox_count: int, request_body_length: int
) -> bytes:
    return (
        Packer()
        .str(protocol)
        .u64(round_number)
        .u32(mailbox_count)
        .u32(request_body_length)
        .pack()
    )


def decode_announce_request(payload: bytes) -> tuple[str, int, int, int]:
    unpacker = Unpacker(payload)
    out = (unpacker.str(), unpacker.u64(), unpacker.u32(), unpacker.u32())
    unpacker.done()
    return out


def encode_announce_response(
    mix_public_keys: list[bytes],
    mailbox_count: int,
    request_body_length: int,
    shard_directory=None,
    pkg_public_keys: list[bytes] = (),
) -> bytes:
    """``pkg_public_keys`` are the PKGs' encoded round master public keys."""
    packer = Packer().u32(mailbox_count).u32(request_body_length)
    pack_bytes_list(packer, mix_public_keys)
    if shard_directory is None:
        packer.u8(0)
    else:
        shard_directory.pack_into(packer.u8(1))
    return pack_bytes_list(packer, pkg_public_keys).pack()


def decode_announce_response(payload: bytes) -> tuple[list[bytes], int, int, object, list[bytes]]:
    from repro.cluster.directory import ShardDirectory

    unpacker = Unpacker(payload)
    mailbox_count = unpacker.u32()
    request_body_length = unpacker.u32()
    mix_publics = unpack_bytes_list(unpacker)
    directory = ShardDirectory.read_from(unpacker) if unpacker.flag() else None
    pkg_publics = unpack_bytes_list(unpacker)
    unpacker.done()
    return mix_publics, mailbox_count, request_body_length, directory, pkg_publics


def encode_submit_request(
    protocol: str,
    round_number: int,
    client_id: str,
    envelope: bytes,
    rate_token_bytes: bytes | None,
) -> bytes:
    packer = Packer().str(protocol).u64(round_number).str(client_id).bytes(envelope)
    if rate_token_bytes is None:
        packer.u8(0)
    else:
        packer.u8(1).bytes(rate_token_bytes)
    return packer.pack()


def decode_submit_request(payload: bytes) -> tuple[str, int, str, bytes, bytes | None]:
    unpacker = Unpacker(payload)
    protocol = unpacker.str()
    round_number = unpacker.u64()
    client_id = unpacker.str()
    envelope = unpacker.bytes()
    token = unpacker.bytes() if unpacker.flag() else None
    unpacker.done()
    return protocol, round_number, client_id, envelope, token


# -- sharded entry tier (repro.cluster) ------------------------------------ #
#: Per-envelope acceptance statuses an entry shard reports for a batch.
SUBMIT_ACCEPTED = 0
SUBMIT_DUPLICATE = 1  # dropped silently, like the single-shard entry server
SUBMIT_RATE_LIMITED = 2
SUBMIT_WRONG_SHARD = 3
SUBMIT_ROUND_NOT_OPEN = 4

SUBMIT_STATUS_REASONS = {
    SUBMIT_RATE_LIMITED: "rate token rejected",
    SUBMIT_WRONG_SHARD: "mailbox outside the shard's range",
    SUBMIT_ROUND_NOT_OPEN: "round not open on the shard",
}


def encode_open_shard_round(request_body_length: int, directory) -> bytes:
    """Round-open broadcast from the router to one entry shard.

    The directory is self-describing (protocol, round, mailbox count,
    every shard's range), so a shard can validate routing without any
    other per-round state.
    """
    return directory.pack_into(Packer().u32(request_body_length)).pack()


def decode_open_shard_round(payload: bytes):
    from repro.cluster.directory import ShardDirectory

    unpacker = Unpacker(payload)
    request_body_length = unpacker.u32()
    directory = ShardDirectory.read_from(unpacker)
    unpacker.done()
    return request_body_length, directory


def encode_submit_batch_request(
    protocol: str,
    round_number: int,
    entries: list[tuple[str, bytes, bytes | None]],
) -> bytes:
    """One ``SubmitBatch`` frame: many clients' envelopes, one frame overhead."""
    packer = Packer().str(protocol).u64(round_number).u32(len(entries))
    for client_id, envelope, token_bytes in entries:
        packer.str(client_id).bytes(envelope)
        if token_bytes is None:
            packer.u8(0)
        else:
            packer.u8(1).bytes(token_bytes)
    return packer.pack()


def decode_submit_batch_request(
    payload: bytes,
) -> tuple[str, int, list[tuple[str, bytes, bytes | None]]]:
    unpacker = Unpacker(payload)
    protocol = unpacker.str()
    round_number = unpacker.u64()
    count = unpacker.u32()
    entries = []
    for _ in range(count):
        client_id = unpacker.str()
        envelope = unpacker.bytes()
        token = unpacker.bytes() if unpacker.flag() else None
        entries.append((client_id, envelope, token))
    unpacker.done()
    return protocol, round_number, entries


def encode_submit_batch_response(statuses: list[int]) -> bytes:
    packer = Packer().u32(len(statuses))
    for status in statuses:
        packer.u8(status)
    return packer.pack()


def decode_submit_batch_response(payload: bytes) -> list[int]:
    unpacker = Unpacker(payload)
    statuses = [unpacker.u8() for _ in range(unpacker.u32())]
    unpacker.done()
    return statuses


def encode_rejects(rejects: list[tuple[str, str]]) -> bytes:
    """An ingress proxy's flush response: (client id, reason) per reject."""
    packer = Packer().u32(len(rejects))
    for client_id, reason in rejects:
        packer.str(client_id).str(reason)
    return packer.pack()


def decode_rejects(payload: bytes) -> list[tuple[str, str]]:
    unpacker = Unpacker(payload)
    rejects = [(unpacker.str(), unpacker.str()) for _ in range(unpacker.u32())]
    unpacker.done()
    return rejects


def encode_collect_response(envelopes: list[bytes]) -> bytes:
    """An entry shard's close_round response: its collected envelopes."""
    return pack_bytes_list(Packer(), envelopes).pack()


def decode_collect_response(payload: bytes) -> list[bytes]:
    unpacker = Unpacker(payload)
    envelopes = unpack_bytes_list(unpacker)
    unpacker.done()
    return envelopes


def encode_publish_request(
    protocol: str, round_number: int, mailbox_count: int, blobs: dict[int, bytes]
) -> bytes:
    """A round's ``MailboxSet`` on the wire: round ref + ``(id, mailbox bytes)`` list."""
    packer = Packer().str(protocol).u64(round_number).u32(mailbox_count).u32(len(blobs))
    for mailbox_id, blob in blobs.items():
        packer.u32(mailbox_id).bytes(blob)
    return packer.pack()


def decode_publish_request(payload: bytes) -> tuple[str, int, int, dict[int, bytes]]:
    unpacker = Unpacker(payload)
    protocol, round_number, mailbox_count = unpacker.str(), unpacker.u64(), unpacker.u32()
    blobs: dict[int, bytes] = {}
    for _ in range(unpacker.u32()):
        mailbox_id = unpacker.u32()
        if mailbox_id in blobs or mailbox_id >= mailbox_count:
            raise SerializationError(f"duplicate or out-of-range mailbox id {mailbox_id}")
        blobs[mailbox_id] = unpacker.bytes()
    unpacker.done()
    return protocol, round_number, mailbox_count, blobs


def encode_shard_publish_request(lo: int, hi: int, *mailbox_set) -> bytes:
    """One CDN shard's slice of a publish: its ``[lo, hi)`` range, then the
    :func:`encode_publish_request` fields."""
    return Packer().u32(lo).u32(hi).pack() + encode_publish_request(*mailbox_set)


def decode_shard_publish_request(payload: bytes) -> tuple[int, int, str, int, int, dict[int, bytes]]:
    unpacker = Unpacker(payload)
    lo, hi = unpacker.u32(), unpacker.u32()
    return (lo, hi, *decode_publish_request(unpacker.fixed(unpacker.remaining())))


def encode_round_counts(counts: RoundCounts) -> bytes:
    """The ``close_round`` reply: round statistics, never the mailboxes."""
    packer = (
        Packer()
        .u32(counts.submitted)
        .u32(counts.delivered_real)
        .u32(counts.dropped)
        .u32(counts.noise_added)
        .u32(counts.cover_dropped)
    )
    for vector in (counts.per_server_noise, counts.mailbox_counts):
        packer.u32(len(vector))
        for value in vector:
            packer.u32(value)
    return packer.pack()


def decode_round_counts(payload: bytes) -> RoundCounts:
    unpacker = Unpacker(payload)
    scalars = [unpacker.u32() for _ in range(5)]
    vectors = [[unpacker.u32() for _ in range(unpacker.u32())] for _ in range(2)]
    unpacker.done()
    return RoundCounts(*scalars, *vectors)


def encode_process_batch_request(
    round_number: int,
    protocol: str,
    envelopes: list[bytes],
    downstream_publics: list[bytes],
    mailbox_count: int,
    noise_config: NoiseConfig,
    noise_body_length: int,
) -> bytes:
    packer = (
        Packer()
        .u64(round_number)
        .str(protocol)
        .u32(mailbox_count)
        .u32(noise_body_length)
        .f64(noise_config.addfriend_mu)
        .f64(noise_config.addfriend_b)
        .f64(noise_config.dialing_mu)
        .f64(noise_config.dialing_b)
    )
    pack_bytes_list(packer, downstream_publics)
    pack_bytes_list(packer, envelopes)
    return packer.pack()


def decode_process_batch_request(
    payload: bytes,
) -> tuple[int, str, list[bytes], list[bytes], int, NoiseConfig, int]:
    unpacker = Unpacker(payload)
    round_number = unpacker.u64()
    protocol = unpacker.str()
    mailbox_count = unpacker.u32()
    noise_body_length = unpacker.u32()
    noise_config = NoiseConfig(
        addfriend_mu=unpacker.f64(),
        addfriend_b=unpacker.f64(),
        dialing_mu=unpacker.f64(),
        dialing_b=unpacker.f64(),
    )
    downstream_publics = unpack_bytes_list(unpacker)
    envelopes = unpack_bytes_list(unpacker)
    unpacker.done()
    return (
        round_number,
        protocol,
        envelopes,
        downstream_publics,
        mailbox_count,
        noise_config,
        noise_body_length,
    )


def encode_process_batch_response(batch: list[bytes], stats: MixServerStats) -> bytes:
    packer = Packer().u32(stats.received).u32(stats.dropped).u32(stats.noise_added)
    return pack_bytes_list(packer, batch).pack()


def decode_process_batch_response(payload: bytes) -> tuple[list[bytes], MixServerStats]:
    unpacker = Unpacker(payload)
    stats = MixServerStats(
        received=unpacker.u32(), dropped=unpacker.u32(), noise_added=unpacker.u32()
    )
    batch = unpack_bytes_list(unpacker)
    unpacker.done()
    return batch, stats


def encode_registration_request(email: str, blob: bytes) -> bytes:
    return Packer().str(email).bytes(blob).pack()


def decode_registration_request(payload: bytes) -> tuple[str, bytes]:
    unpacker = Unpacker(payload)
    out = (unpacker.str(), unpacker.bytes())
    unpacker.done()
    return out


def encode_extract_request(email: str, round_number: int, signature: bytes) -> bytes:
    return Packer().str(email).u64(round_number).bytes(signature).pack()


def decode_extract_request(payload: bytes) -> tuple[str, int, bytes]:
    unpacker = Unpacker(payload)
    out = (unpacker.str(), unpacker.u64(), unpacker.bytes())
    unpacker.done()
    return out


def encode_extraction_response(response, ibe, attestation) -> bytes:
    """An :class:`~repro.pkg.server.ExtractionResponse`: the identity-key share
    and the attestation share in their scheme encodings (64 bytes each)."""
    return (
        Packer()
        .str(response.pkg_name)
        .u64(response.round_number)
        .bytes(ibe.private_key_to_bytes(response.private_key_share))
        .bytes(attestation.to_bytes(response.attestation))
        .pack()
    )


def decode_extraction_response(payload: bytes, identity: str, ibe, attestation):
    from repro.pkg.server import ExtractionResponse

    unpacker = Unpacker(payload)
    pkg_name, round_number = unpacker.str(), unpacker.u64()
    share = ibe.private_key_from_bytes(identity, unpacker.bytes())
    attested = attestation.from_bytes(unpacker.bytes())
    unpacker.done()
    return ExtractionResponse(
        pkg_name=pkg_name, round_number=round_number, private_key_share=share, attestation=attested
    )


def encode_download_request(protocol: str, round_number: int, mailbox_id: int, client: str) -> bytes:
    return Packer().str(protocol).u64(round_number).u32(mailbox_id).str(client).pack()


def decode_download_request(payload: bytes) -> tuple[str, int, int, str]:
    unpacker = Unpacker(payload)
    out = (unpacker.str(), unpacker.u64(), unpacker.u32(), unpacker.str())
    unpacker.done()
    return out


def encode_download_response(blob: bytes | None) -> bytes:
    """A mailbox's stored bytes, or the empty-mailbox marker."""
    if blob is None:
        return Packer().u8(0).pack()
    return Packer().u8(1).bytes(blob).pack()


def decode_download_response(payload: bytes, protocol: str, mailbox_id: int):
    unpacker = Unpacker(payload)
    blob = unpacker.bytes() if unpacker.flag() else None
    unpacker.done()
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
            payload=encode_download_request(protocol, round_number, mailbox_id, client),
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
            results.append(
                (decode_reply(decode_download_response, payload, protocol, mailbox_id), None)
            )
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
        from repro.entry.server import RoundAnnouncement

        result = self.transport.call(
            self.src,
            self.endpoint,
            "announce_round",
            encode_announce_request(protocol, round_number, mailbox_count, request_body_length),
        )
        mix_publics, final_mailbox_count, body_length, directory, pkg_publics = decode_reply(
            decode_announce_response, result.payload
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
            shard_directory=directory,
        )

    def submit(
        self,
        protocol: str,
        round_number: int,
        client_id: str,
        envelope: bytes,
        rate_token=None,
    ) -> None:
        token_bytes = rate_token.to_bytes() if rate_token is not None else None
        self.transport.call(
            client_id,
            self.endpoint,
            "submit",
            encode_submit_request(protocol, round_number, client_id, envelope, token_bytes),
        )

    def submit_many(
        self,
        protocol: str,
        round_number: int,
        entries: list[tuple[str, bytes, float | None]],
    ) -> list[BatchCallOutcome]:
        """One submit wave: ``(client_id, envelope, start_time)`` per entry.

        Each entry's ``start_time`` is when that client logically begins
        (e.g. when its key extraction finished).  :meth:`submit` is the
        single call that can also carry a §9 rate token.
        """
        calls = [
            BatchCall(
                src=client_id,
                dst=self.endpoint,
                method="submit",
                payload=encode_submit_request(protocol, round_number, client_id, envelope, None),
                start=start,
            )
            for client_id, envelope, start in entries
        ]
        return self.transport.call_batch(calls)

    def flush_submissions(self, protocol: str, round_number: int) -> list[tuple[str, str]]:
        """The end-of-stage drain: ``(client_id, reason)`` per late reject.

        The single entry server answers every submission itself, so there is
        nothing buffered and no RPC; the sharded tier's
        :meth:`~repro.cluster.router.ShardRouter.flush_submissions` drains
        its ingress proxies here.
        """
        return []

    def submissions(self, protocol: str, round_number: int) -> int:
        result = self.transport.call(
            self.src, self.endpoint, "submissions", encode_round_ref(protocol, round_number)
        )
        return Unpacker(result.payload).u32()

    def close_round(self, protocol: str, round_number: int) -> RoundCounts:
        """Mix the round; the entry server publishes the mailboxes itself."""
        result = self.transport.call(
            self.src, self.endpoint, "close_round", encode_round_ref(protocol, round_number)
        )
        return decode_reply(decode_round_counts, result.payload)


class MixStub:
    """Fronts one mix server for the chain driver (the entry server)."""

    def __init__(self, transport: Transport, name: str, src: str = "entry") -> None:
        self.transport = transport
        self.name = name
        self.src = src

    def _round_call(self, method: str, protocol: str, round_number: int) -> bytes:
        return self.transport.call(
            self.src, self.name, method, encode_round_ref(protocol, round_number)
        ).payload

    def open_round(self, protocol: str, round_number: int) -> bytes:
        return Unpacker(self._round_call("open_round", protocol, round_number)).bytes()

    def round_public_key(self, protocol: str, round_number: int) -> bytes:
        return Unpacker(self._round_call("round_public_key", protocol, round_number)).bytes()

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
        result = self.transport.call(
            self.src,
            self.name,
            "process_batch",
            encode_process_batch_request(
                round_number,
                protocol,
                envelopes,
                downstream_publics,
                mailbox_count,
                noise_config,
                noise_body_length,
            ),
        )
        return decode_process_batch_response(result.payload)


class PkgStub:
    """Fronts one PKG server for clients and for the PKG coordinator.

    Registration and extraction calls originate from the client whose email
    appears in the request; round-lifecycle calls originate from
    ``control_src`` -- the entry server by default (which runs the
    commit-reveal coordinator), or the coordinator process when a sharded
    entry tier moves round control there.  The ``ibe`` backend reference, the
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
    def begin_registration(self, email: str, signing_key: bytes, now: float) -> None:
        self.transport.call(
            email, self.name, "begin_registration", encode_registration_request(email, signing_key)
        )

    def confirm_registration(self, email: str, token: str, now: float) -> None:
        self.transport.call(
            email,
            self.name,
            "confirm_registration",
            encode_registration_request(email, token.encode("utf-8")),
        )

    def deregister(self, email: str, signature: bytes, now: float) -> None:
        self.transport.call(
            email, self.name, "deregister", encode_registration_request(email, signature)
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
            payload=encode_extract_request(email, round_number, request_signature),
            start=start,
        )

    def extraction_response(self, payload: bytes, email: str):
        """Decode an ``extract`` reply into ``email``'s ExtractionResponse."""
        return decode_reply(
            decode_extraction_response, payload, email.lower(), self.ibe, self.attestation
        )

    # -- round lifecycle (src = the control plane, see ``control_src``) ----
    def _master_public(self, method: str, round_number: int):
        result = self.transport.call(
            self.control_src, self.name, method, Packer().u64(round_number).pack()
        )
        return decode_reply(self.ibe.master_public_from_bytes, result.payload)

    def open_round(self, round_number: int):
        return self._master_public("open_round", round_number)

    def round_public_key(self, round_number: int):
        return self._master_public("round_public_key", round_number)

    def close_round(self, round_number: int) -> None:
        self.transport.call(
            self.control_src, self.name, "close_round", Packer().u64(round_number).pack()
        )

    def has_master_secret(self, round_number: int) -> bool:
        result = self.transport.call(
            self.control_src, self.name, "has_master_secret", Packer().u64(round_number).pack()
        )
        return Unpacker(result.payload).flag()


class CdnStub:
    """Fronts the CDN for clients (downloads) and the entry server (publish)."""

    def __init__(self, transport: Transport, endpoint: str = "cdn") -> None:
        self.transport = transport
        self.endpoint = endpoint

    def publish(self, mailboxes) -> None:
        """Called by the entry server, which ran the mix chain."""
        self.transport.call(
            "entry",
            self.endpoint,
            "publish",
            encode_publish_request(
                mailboxes.protocol, mailboxes.round_number, mailboxes.mailbox_count,
                mailboxes.blobs(),
            ),
        )

    def mailbox_count(self, protocol: str, round_number: int, client: str = "anonymous") -> int:
        result = self.transport.call(
            client, self.endpoint, "mailbox_count", encode_round_ref(protocol, round_number)
        )
        return Unpacker(result.payload).u32()

    def download_many(
        self, protocol: str, round_number: int, items: list[tuple[int, str]]
    ) -> list[tuple[object, Exception | None]]:
        """One download wave (see :func:`download_wave`), all to this CDN."""
        return download_wave(
            self.transport, protocol, round_number, items, lambda _mailbox_id: self.endpoint
        )
