"""The wire: message bodies, stream framing and error replies
(:mod:`repro.runtime.wire` + the stream framing helpers in
:mod:`repro.net.frames`), and every payload codec an RPC rides on
(:mod:`repro.net.rpc`, the mailbox and Bloom decoders) -- round trips on
both IBE backends and both attestation schemes, and decoder fuzzing:
arbitrary or mutated bytes decode to a canonically re-encodable value or
raise ``SerializationError``/``CryptoError``, nothing else, in bounded time."""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import repro.net.frames as frames_module
from repro.cdn.cdn import Cdn
from repro.cluster.directory import ShardDirectory
from repro.crypto import bls
from repro.crypto.attestation import ATTESTATION_SIZE, get_scheme, registered_schemes
from repro.crypto.ibe import BonehFranklinIbe, SimulatedIbe
from repro.errors import CryptoError, RemoteCallError, RoundError, SerializationError
from repro.mixnet.chain import RoundCounts
from repro.mixnet.mailbox import AddFriendMailbox, DialingMailbox, MailboxSet, decode_mailbox
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.server import MixServerStats
from repro.net import DirectTransport, Frame, LinkSpec, NetworkTopology, SimulatedNetwork, rpc
from repro.net.frames import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_WIRE_MESSAGE_BYTES,
    WIRE_LENGTH_BYTES,
    decode_wire_length,
    encode_wire_message,
)
from repro.net.transport import RpcRequest
from repro.obs.distributed import TraceContext
from repro.pkg.server import ExtractionResponse
from repro.primitives.bloom import BloomFilter
from repro.runtime import wire
from repro.utils.serialization import Packer

names = st.text(min_size=0, max_size=24)
payloads = st.binary(max_size=128)
u64s = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def wire_frames(draw):
    return Frame(
        kind=draw(st.sampled_from([KIND_REQUEST, KIND_RESPONSE, KIND_ERROR])),
        msg_id=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        src=draw(names),
        dst=draw(names),
        method=draw(names),
        payload=draw(payloads),
    )


class TestMessageCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        frame=wire_frames(),
        trace=st.none() | st.builds(
            TraceContext, trace=names, span_id=u64s, origin=names, pid=u64s
        ),
    )
    def test_roundtrip(self, frame, trace):
        body = wire.encode_message(frame, trace)
        assert wire.decode_message(body) == wire.WireMessage(frame=frame, trace=trace)

    def test_a_wire_body_is_the_frame_and_the_trace_flag(self):
        frame = Frame(KIND_REQUEST, 1, "a", "b", "m", b"payload")
        assert wire.encode_message(frame) == Packer().bytes(frame.to_bytes()).u8(0).pack()

    def test_trailing_bytes_rejected(self):
        frame = Frame(KIND_REQUEST, 1, "a", "b", "m", b"")
        body = wire.encode_message(frame)
        with pytest.raises(SerializationError):
            wire.decode_message(body + b"\x00")


class TestStreamFraming:
    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(max_size=512))
    def test_length_prefix_roundtrip(self, body):
        on_wire = encode_wire_message(body)
        assert decode_wire_length(on_wire[:WIRE_LENGTH_BYTES]) == len(body)
        assert on_wire[WIRE_LENGTH_BYTES:] == body

    def test_truncated_prefix_rejected(self):
        for truncated in (b"", b"\x00", b"\x00\x00\x00"):
            with pytest.raises(SerializationError):
                decode_wire_length(truncated)

    def test_oversized_declared_length_rejected(self):
        # A hostile peer declares > MAX without ever sending the bytes:
        # the prefix alone must be enough to refuse.
        huge = (MAX_WIRE_MESSAGE_BYTES + 1).to_bytes(WIRE_LENGTH_BYTES, "big")
        with pytest.raises(SerializationError):
            decode_wire_length(huge)
        # The ceiling itself is allowed.
        exact = MAX_WIRE_MESSAGE_BYTES.to_bytes(WIRE_LENGTH_BYTES, "big")
        assert decode_wire_length(exact) == MAX_WIRE_MESSAGE_BYTES

    def test_oversized_body_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr(frames_module, "MAX_WIRE_MESSAGE_BYTES", 64)
        with pytest.raises(SerializationError):
            frames_module.encode_wire_message(b"x" * 65)
        assert frames_module.encode_wire_message(b"x" * 64)[frames_module.WIRE_LENGTH_BYTES:] == b"x" * 64


class TestErrorReplies:
    def test_known_error_reconstructs_exactly(self):
        rebuilt = wire.decode_error(wire.encode_error(RoundError("round 3 is closed")))
        assert type(rebuilt) is RoundError
        assert str(rebuilt) == "round 3 is closed"

    def test_unknown_error_becomes_remote_call_error(self):
        rebuilt = wire.decode_error(wire.encode_error(ValueError("bad input")))
        assert type(rebuilt) is RemoteCallError
        assert "ValueError" in str(rebuilt) and "bad input" in str(rebuilt)


class TestCrossTransportByteIdentity:
    def test_request_frames_encode_identically(self):
        """The bytes a request puts on the wire must not depend on the
        runtime: sim, direct, and asyncio all frame through the same codec
        with the same msg-id sequence."""
        from repro.runtime import AsyncioTransport

        simulated = SimulatedNetwork(
            topology=NetworkTopology(default=LinkSpec(latency_s=0.0)), seed="wire-identity"
        )
        with AsyncioTransport() as real:
            transports = [DirectTransport(), simulated, real]
            calls = [
                ("entry", "mix0", "announce", b""),
                ("alice@x", "entry", "submit", b"\x01" * 40),
            ]
            for src, dst, method, payload in calls:
                bodies = {
                    wire.encode_message(t._frame(src, dst, method, payload))
                    for t in transports
                }
                assert len(bodies) == 1


# --------------------------------------------------------------------------- #
# Payload codecs: round trips and decoder fuzzing
# --------------------------------------------------------------------------- #
IDENTITY = "alice@example.org"
IBE_BACKENDS = {"simulated": SimulatedIbe(), "bn254": BonehFranklinIbe()}
ATTESTATIONS = {name: get_scheme(name) for name in registered_schemes()}


@functools.cache
def key_material(ibe_name: str, attestation_name: str, index: int):
    """``(master public, identity-key share, attestation share)`` from seed ``index``."""
    ibe, scheme = IBE_BACKENDS[ibe_name], ATTESTATIONS[attestation_name]
    seed = bytes([index + 1]) * 32
    master = ibe.generate_master_keypair(seed)
    signer = bls.generate_keypair(seed)
    attested = scheme.attest(signer.secret, signer.public, b"statement %d" % index)
    return master.public, ibe.extract(master.secret, IDENTITY), attested


def star(encode):
    """Adapt an ``encode(*fields)`` to the tuple its decoder returns."""
    return lambda fields: encode(*fields)


@dataclass(frozen=True)
class Codec:
    name: str
    decode: Callable[[bytes], object]
    #: Re-encodes a value ``decode`` returned.
    encode: Callable[[object], bytes]
    #: Valid encodings, the seeds of the mutation fuzzing.
    samples: tuple[bytes, ...]
    #: Every accepted input is the only encoding of its value.
    strict: bool = True

    def check(self, data: bytes) -> None:
        """``data`` is rejected cleanly or decodes to a canonical value."""
        try:
            value = self.decode(data)
        except (SerializationError, CryptoError):
            return
        canonical = self.encode(value)
        if self.strict:
            assert canonical == data
        assert self.encode(self.decode(canonical)) == canonical


def _bloom(tokens=(b"t" * 32, b"u" * 32)) -> BloomFilter:
    bloom = BloomFilter.for_expected_items(4)
    bloom.update(tokens)
    return bloom


def _codecs() -> list[Codec]:
    directory = ShardDirectory.build("add-friend", 3, 8, 2)
    addfriend_box = AddFriendMailbox(2, [b"c" * 40, b"d" * 40])
    dialing_box = DialingMailbox.build(1, [b"t" * 32])
    blobs = {0: addfriend_box.to_bytes(), 5: b""}
    frame = Frame(KIND_RESPONSE, 9, "entry", "coordinator", "close_round", b"\x00" * 12)
    trace = TraceContext(trace="t1", span_id=4, origin="entry", pid=77)
    codecs = [
        Codec("round_ref", rpc.decode_round_ref, star(rpc.encode_round_ref),
              (rpc.encode_round_ref("dialing", 4),)),
        Codec("announce_request", rpc.decode_announce_request, star(rpc.encode_announce_request),
              (rpc.encode_announce_request("add-friend", 2, 8, 640),)),
        Codec("announce_response", rpc.decode_announce_response, star(rpc.encode_announce_response),
              (rpc.encode_announce_response([b"m" * 32], 8, 640, None, [b"p" * 128, b"q" * 128]),
               rpc.encode_announce_response([b"m" * 32], 8, 640, directory))),
        Codec("submit_request", rpc.decode_submit_request, star(rpc.encode_submit_request),
              (rpc.encode_submit_request("dialing", 3, IDENTITY, b"e" * 60, None),
               rpc.encode_submit_request("dialing", 3, IDENTITY, b"e" * 60, b"token"))),
        Codec("open_shard_round", rpc.decode_open_shard_round, star(rpc.encode_open_shard_round),
              (rpc.encode_open_shard_round(640, directory),)),
        Codec("submit_batch_request", rpc.decode_submit_batch_request,
              star(rpc.encode_submit_batch_request),
              (rpc.encode_submit_batch_request(
                  "dialing", 3, [(IDENTITY, b"e" * 60, None), ("bob@x.org", b"f" * 60, b"tok")]),)),
        Codec("submit_batch_response", rpc.decode_submit_batch_response,
              rpc.encode_submit_batch_response, (rpc.encode_submit_batch_response([0, 2, 4]),)),
        Codec("rejects", rpc.decode_rejects, rpc.encode_rejects,
              (rpc.encode_rejects([(IDENTITY, "rate token rejected")]),)),
        Codec("collect_response", rpc.decode_collect_response, rpc.encode_collect_response,
              (rpc.encode_collect_response([b"e" * 60, b"f" * 60]),)),
        Codec("publish_request", rpc.decode_publish_request, star(rpc.encode_publish_request),
              (rpc.encode_publish_request("add-friend", 3, 8, blobs),)),
        Codec("shard_publish_request", rpc.decode_shard_publish_request,
              star(rpc.encode_shard_publish_request),
              (rpc.encode_shard_publish_request(0, 6, "add-friend", 3, 8, blobs),)),
        Codec("round_counts", rpc.decode_round_counts, rpc.encode_round_counts,
              (rpc.encode_round_counts(RoundCounts(16, 14, 1, 9, 2, [3, 6], [5, 0, 11])),)),
        Codec("process_batch_request", rpc.decode_process_batch_request,
              star(rpc.encode_process_batch_request),
              (rpc.encode_process_batch_request(
                  3, "dialing", [b"e" * 60], [b"k" * 32], 4, NoiseConfig(), 32),)),
        Codec("process_batch_response", rpc.decode_process_batch_response,
              star(rpc.encode_process_batch_response),
              (rpc.encode_process_batch_response([b"e" * 28], MixServerStats(3, 1, 2)),)),
        Codec("registration_request", rpc.decode_registration_request,
              star(rpc.encode_registration_request),
              (rpc.encode_registration_request(IDENTITY, b"k" * 32),)),
        Codec("extract_request", rpc.decode_extract_request, star(rpc.encode_extract_request),
              (rpc.encode_extract_request(IDENTITY, 7, b"s" * 64),)),
        Codec("download_request", rpc.decode_download_request, star(rpc.encode_download_request),
              (rpc.encode_download_request("dialing", 3, 1, IDENTITY),)),
        Codec("shard_directory", ShardDirectory.from_bytes, ShardDirectory.to_bytes,
              (directory.to_bytes(),)),
        Codec("addfriend_mailbox", AddFriendMailbox.from_bytes, AddFriendMailbox.to_bytes,
              (addfriend_box.to_bytes(),)),
        Codec("dialing_mailbox", DialingMailbox.from_bytes, DialingMailbox.to_bytes,
              (dialing_box.to_bytes(),)),
        Codec("bloom", BloomFilter.from_bytes, BloomFilter.to_bytes, (_bloom().to_bytes(),)),
        Codec("frame", Frame.from_bytes, Frame.to_bytes, (frame.to_bytes(),)),
        # An absent trace flag and an absent error endpoint are tolerated.
        Codec("wire_message", wire.decode_message, lambda m: wire.encode_message(m.frame, m.trace),
              (wire.encode_message(frame), wire.encode_message(frame, trace)), strict=False),
        Codec("wire_error", wire.decode_error,
              lambda exc: wire.encode_error(exc, exc.remote_endpoint),
              (wire.encode_error(RoundError("round 3 is closed"), "entry"),
               wire.encode_error(ValueError("bad input"), "mix0")), strict=False),
    ]
    for protocol, box in (("add-friend", addfriend_box), ("dialing", dialing_box)):
        codecs.append(Codec(
            f"mailbox[{protocol}]", functools.partial(decode_mailbox, protocol, box.mailbox_id),
            lambda mailbox: mailbox.to_bytes(), (box.to_bytes(),)))
        # The empty-mailbox marker decodes to an empty mailbox, which has bytes.
        codecs.append(Codec(
            f"download_response[{protocol}]",
            lambda data, protocol=protocol, box=box: rpc.decode_download_response(
                data, protocol, box.mailbox_id),
            lambda mailbox: rpc.encode_download_response(mailbox.to_bytes()),
            (rpc.encode_download_response(box.to_bytes()), rpc.encode_download_response(None)),
            strict=False))
    for ibe_name, ibe in IBE_BACKENDS.items():
        public, share, _attested = key_material(ibe_name, "simulated", 0)
        codecs.append(Codec(
            f"master_public[{ibe_name}]", ibe.master_public_from_bytes,
            ibe.master_public_to_bytes, (ibe.master_public_to_bytes(public),)))
        codecs.append(Codec(
            f"private_key[{ibe_name}]", functools.partial(ibe.private_key_from_bytes, IDENTITY),
            ibe.private_key_to_bytes, (ibe.private_key_to_bytes(share),)))
        for scheme_name, scheme in ATTESTATIONS.items():
            codecs.append(Codec(
                f"extraction_response[{ibe_name}-{scheme_name}]",
                lambda data, ibe=ibe, scheme=scheme: rpc.decode_extraction_response(
                    data, IDENTITY, ibe, scheme),
                lambda response, ibe=ibe, scheme=scheme: rpc.encode_extraction_response(
                    response, ibe, scheme),
                (rpc.encode_extraction_response(
                    ExtractionResponse("pkg0", 7, *key_material(ibe_name, scheme_name, 0)[1:]),
                    ibe, scheme),)))
    for scheme_name, scheme in ATTESTATIONS.items():
        attested = key_material("simulated", scheme_name, 0)[2]
        codecs.append(Codec(
            f"attestation[{scheme_name}]", scheme.from_bytes, scheme.to_bytes,
            (scheme.to_bytes(attested),)))
    return codecs


CODECS = _codecs()
per_codec = pytest.mark.parametrize("codec", CODECS, ids=lambda codec: codec.name)


class TestDecoderFuzzing:
    """Every decoder fails closed: a canonical value, ``SerializationError`` or
    ``CryptoError`` -- within the hypothesis deadline -- for any input."""

    def test_every_rpc_decoder_is_fuzzed(self):
        fuzzed = {codec.decode for codec in CODECS}
        unfuzzed = [
            name for name, value in vars(rpc).items()
            if name.startswith("decode_") and name != "decode_reply" and value not in fuzzed
        ]
        # The decoders that take context arguments are fuzzed through closures.
        assert unfuzzed == [
            "decode_mailbox", "decode_extraction_response", "decode_download_response"
        ]

    @per_codec
    def test_samples_are_valid(self, codec):
        for sample in codec.samples:
            codec.decode(sample)
            codec.check(sample)

    @per_codec
    @settings(max_examples=40)
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, codec, data):
        codec.check(data)

    @per_codec
    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_valid_encodings(self, codec, data):
        sample = data.draw(st.sampled_from(codec.samples))
        index = data.draw(st.integers(min_value=0, max_value=len(sample) - 1))
        if data.draw(st.booleans()):
            mutated = sample[:index]
        else:
            byte = data.draw(st.integers(min_value=0, max_value=255))
            mutated = sample[:index] + bytes([byte]) + sample[index + 1:]
        codec.check(mutated)

    def test_a_hostile_length_or_count_costs_nothing(self):
        # 2**32 - 1 declared items / bytes with none following: rejected on
        # the first missing one, not after allocating or looping for them.
        huge = b"\xff\xff\xff\xff"
        for decode, data in (
            (rpc.decode_submit_batch_response, huge),
            (rpc.decode_collect_response, huge),
            (rpc.decode_round_counts, bytes(20) + huge),
            (rpc.decode_publish_request, rpc.encode_round_ref("dialing", 1) + huge + huge),
            (AddFriendMailbox.from_bytes, bytes(4) + huge),
            (Frame.from_bytes, b"ANH1" + bytes(9) + huge),
        ):
            with pytest.raises(SerializationError):
                decode(data)


u32s = st.integers(min_value=0, max_value=2**32 - 1)
blob_maps = st.integers(min_value=1, max_value=64).flatmap(
    lambda count: st.tuples(
        st.just(count),
        st.dictionaries(st.integers(min_value=0, max_value=count - 1), payloads, max_size=8),
    )
)


class TestNewCodecRoundTrips:
    """Each value that used to ride beside the frame survives its byte layout."""

    @given(counts=st.builds(
        RoundCounts, u32s, u32s, u32s, u32s, u32s,
        st.lists(u32s, max_size=4), st.lists(u32s, max_size=16),
    ))
    def test_round_counts(self, counts):
        assert rpc.decode_round_counts(rpc.encode_round_counts(counts)) == counts

    @given(protocol=names, round_number=u64s, mailboxes=blob_maps, lo=u32s, hi=u32s)
    def test_mailbox_set(self, protocol, round_number, mailboxes, lo, hi):
        fields = (protocol, round_number, *mailboxes)
        assert rpc.decode_publish_request(rpc.encode_publish_request(*fields)) == fields
        sharded = (lo, hi, *fields)
        assert rpc.decode_shard_publish_request(
            rpc.encode_shard_publish_request(*sharded)) == sharded

    def test_mailbox_set_is_the_blobs_the_cdn_stores(self):
        mailboxes = MailboxSet(round_number=3, protocol="dialing", mailbox_count=2)
        mailboxes.dialing[1] = DialingMailbox.build(1, [b"t" * 32])
        cdn = Cdn()
        cdn.handle_rpc(RpcRequest("entry", "cdn", "publish", rpc.encode_publish_request(
            "dialing", 3, 2, mailboxes.blobs())))
        assert cdn.download_blob("dialing", 3, 1, IDENTITY) == mailboxes.dialing[1].to_bytes()
        assert cdn.download_blob("dialing", 3, 0, IDENTITY) is None
        assert cdn.mailbox_count("dialing", 3) == 2

    @given(mix=st.lists(payloads, max_size=3), count=u32s, body=u32s,
           pkg=st.lists(payloads, max_size=3))
    def test_announce_response_pkg_keys(self, mix, count, body, pkg):
        fields = (mix, count, body, None, pkg)
        assert rpc.decode_announce_response(rpc.encode_announce_response(*fields)) == fields

    @given(mailbox_id=u32s, ciphertexts=st.lists(payloads, max_size=4))
    def test_download_response_addfriend(self, mailbox_id, ciphertexts):
        box = AddFriendMailbox(mailbox_id, ciphertexts)
        reply = rpc.encode_download_response(box.to_bytes())
        assert rpc.decode_download_response(reply, "add-friend", mailbox_id) == box

    @given(mailbox_id=u32s, tokens=st.lists(st.binary(min_size=32, max_size=32), max_size=4))
    def test_download_response_dialing(self, mailbox_id, tokens):
        box = DialingMailbox.build(mailbox_id, tokens)
        reply = rpc.encode_download_response(box.to_bytes())
        decoded = rpc.decode_download_response(reply, "dialing", mailbox_id)
        assert decoded == box and all(token in decoded for token in tokens)
        empty = rpc.decode_download_response(rpc.encode_download_response(None), "dialing", mailbox_id)
        assert empty == DialingMailbox.build(mailbox_id, [])

    @pytest.mark.parametrize("attestation_name", sorted(ATTESTATIONS))
    @pytest.mark.parametrize("ibe_name", sorted(IBE_BACKENDS))
    @given(index=st.integers(min_value=0, max_value=2), pkg=names, round_number=u64s)
    def test_key_material(self, ibe_name, attestation_name, index, pkg, round_number):
        ibe, scheme = IBE_BACKENDS[ibe_name], ATTESTATIONS[attestation_name]
        public, share, attested = key_material(ibe_name, attestation_name, index)
        encoded = ibe.master_public_to_bytes(public)
        assert len(encoded) == 128 and ibe.master_public_from_bytes(encoded) == public
        encoded = ibe.private_key_to_bytes(share)
        assert len(encoded) == 64 and ibe.private_key_from_bytes(IDENTITY, encoded) == share
        encoded = scheme.to_bytes(attested)
        assert len(encoded) == ATTESTATION_SIZE and scheme.from_bytes(encoded) == attested
        response = ExtractionResponse(pkg, round_number, share, attested)
        payload = rpc.encode_extraction_response(response, ibe, scheme)
        assert rpc.decode_extraction_response(payload, IDENTITY, ibe, scheme) == response
        assert len(payload) == 4 + len(pkg.encode()) + 8 + (4 + 64) + (4 + 64)
