"""The wire: message bodies, stream framing and error replies
(:mod:`repro.runtime.wire` + the stream framing helpers in
:mod:`repro.net.frames`), and the message table every byte layout is declared
in (:mod:`repro.utils.serialization`):

* the table reproduces, both ways, the bytes the hand-written codecs it
  replaced produced at the last commit that had them (``wire_vectors.json``);
* the codec of every declared message equals the field-by-field
  ``Packer``/``Unpacker`` interpretation of the same declaration
  (:mod:`wire_oracle`), on accepted and on rejected inputs;
* decoder fuzzing over the registry -- no hand-kept list: arbitrary or mutated
  bytes decode to a canonically re-encodable value or raise
  ``SerializationError``/``CryptoError``, nothing else, in bounded time; the
  crypto value encodings and the value classes that add checks on top of a
  layout are registered by hand beside it;
* ``docs/wire.md`` is what the table generates."""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.net.frames as frames_module
from repro.cdn.cdn import Cdn
from repro.cluster.directory import ShardDirectory
from repro.core.friendrequest import FriendRequest
from repro.crypto import bls
from repro.crypto.attestation import ATTESTATION_SIZE, get_scheme, registered_schemes
from repro.crypto.ibe import BonehFranklinIbe, SimulatedIbe
from repro.errors import (
    CryptoError,
    NetworkError,
    RemoteCallError,
    RoundError,
    SerializationError,
)
from repro.mixnet.mailbox import AddFriendMailbox, DialingMailbox, MailboxSet, decode_mailbox
from repro.net import DirectTransport, Frame, LinkSpec, NetworkTopology, SimulatedNetwork, rpc
from repro.net import wiredoc
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
from repro.utils import serialization
from repro.utils.serialization import (
    F64,
    U8,
    U32,
    Bytes,
    Fixed,
    Flag,
    List,
    Message,
    Opt,
    Rest,
    Str,
    Trailing,
)
from wire_oracle import VECTORS, Packer, oracle_decode, oracle_encode, values, vector_bytes

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

    def test_a_string_utf8_cannot_encode_is_refused_by_name(self):
        # A lone surrogate (what ``surrogateescape`` decoding leaves) has no
        # UTF-8 encoding: the refusal names the field, like every other one.
        with pytest.raises(SerializationError, match="^protocol not encodable"):
            rpc.ROUND_REF.encode("\ud800", 1)
        with pytest.raises(SerializationError, match="^src not encodable"):
            wire.encode_message(Frame(KIND_REQUEST, 1, "a\ud800", "b", "c", b""))


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
# The message table: vectors, the oracle, decoder fuzzing
# --------------------------------------------------------------------------- #
REPO = Path(__file__).resolve().parents[1]
#: Every message any module of the package declares.
MESSAGES = [message for _, message in sorted(wiredoc.load_messages().items())]
per_message = pytest.mark.parametrize("message", MESSAGES, ids=lambda message: message.name)

IDENTITY = "alice@example.org"
IBE_BACKENDS = {"simulated": SimulatedIbe(), "bn254": BonehFranklinIbe()}
ATTESTATIONS = {name: get_scheme(name) for name in registered_schemes()}


def from_json(value):
    """A vector's ``values``: bytes are ``{"b": hex}``, tuples are lists."""
    if isinstance(value, dict):
        return bytes.fromhex(value["b"])
    if isinstance(value, list):
        return [from_json(item) for item in value]
    return value


def to_json(value):
    if isinstance(value, bytes):
        return {"b": value.hex()}
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    return value


class TestWireVectors:
    """Byte-identical wire: the table against the hand-written functions'
    bytes, generated at the parent commit (see the file's ``_about``)."""

    @per_message
    def test_every_layout_has_vectors(self, message):
        assert len(vector_bytes(message)) >= 2

    def test_every_vector_names_a_layout(self):
        assert {v["message"] for v in VECTORS} == {message.name for message in MESSAGES}

    #: Numbered within each layout, so dropping one layout's vectors
    #: renames no other layout's cases.
    @pytest.mark.parametrize(
        "vector", VECTORS, ids=[
            f"{v['message']}-{sum(w['message'] == v['message'] for w in VECTORS[:i])}"
            for i, v in enumerate(VECTORS)
        ]
    )
    def test_the_table_reproduces_the_bytes_both_ways(self, vector):
        message = wiredoc.MESSAGES[vector["message"]]
        encoded = bytes.fromhex(vector["hex"])
        assert message.encode(*from_json(vector["values"])) == encoded
        assert to_json(message.decode(encoded)) == vector["values"]

    def test_extraction_vectors_decode_on_their_backends(self):
        """The key material in the vectors is real: every IBE x attestation pair."""
        seen = set()
        for vector in VECTORS:
            if vector["message"] != "extraction_response":
                continue
            ibe_name, scheme_name = vector["backends"]
            stub = rpc.PkgStub(None, "pkg", IBE_BACKENDS[ibe_name], ATTESTATIONS[scheme_name], None)
            response = stub.extraction_response(bytes.fromhex(vector["hex"]), IDENTITY)
            assert response.pkg_name == vector["values"][0]
            seen.add((ibe_name, scheme_name))
        assert seen == {(i, a) for i in IBE_BACKENDS for a in ATTESTATIONS}


class TestDeclarations:
    def test_a_name_is_one_layout(self):
        again = Message("round_ref", *rpc.ROUND_REF.fields)  # what a re-imported module does
        assert again.encode("dialing", 1) == rpc.ROUND_REF.encode("dialing", 1)
        with pytest.raises(ValueError, match="already declared"):
            Message("round_ref", *rpc.ROUND_REF.fields[:1])
        assert wiredoc.MESSAGES["round_ref"] is rpc.ROUND_REF

    def test_only_the_last_field_may_be_open_ended(self):
        with pytest.raises(ValueError, match="open-ended"):
            Message("never_registered", Trailing(Str("first"), ""), Str("second"))
        assert "never_registered" not in wiredoc.MESSAGES

    def test_names_and_defaults_never_reach_the_generated_source(self):
        """Quotes, braces and backslashes in a message's and its fields' names
        (and in a default) change no code: each is a constant of the codec."""
        odd = "\\'\"{x}}{{\\n\"\"\"'''"
        message = unregistered(
            f"m{odd}", Str(f"s{odd}"), Fixed(f"f{odd}", 2), Flag(f"b{odd}"),
            List(f"l{odd}", U8(f"u{odd}"), Opt(Bytes(f"o{odd}"))), Trailing(Str(f"t{odd}"), odd),
        )
        value = (odd, b"{}", True, [(1, None), (2, b"\\")], "")
        encoded = message.encode(*value)
        assert message.decode(encoded) == value == oracle_decode(message, encoded)
        assert message.decode(encoded[:-4]) == value[:-1] + (odd,)  # the default
        for function in (message.encode, message.decode):
            assert function.__code__.co_filename == f"<codec m{odd}>"
        with pytest.raises(SerializationError) as refused:
            message.encode(odd, b"{", True, [], odd)
        assert str(refused.value) == f"f{odd} must be 2 bytes, got 1"
        flag_at = 4 + len(odd.encode()) + 2
        with pytest.raises(SerializationError) as refused:
            message.decode(encoded[:flag_at] + b"\x02" + encoded[flag_at + 1:])
        assert str(refused.value) == f"invalid flag byte 2 (b{odd})"
        with pytest.raises(SerializationError) as refused:
            message.decode(encoded + b"!")
        assert str(refused.value) == f"1 trailing bytes after m{odd}"

    def test_size_formula_is_fixed_bytes_plus_one_term_per_variable_field(self):
        """The size column of docs/wire.md, field by field."""
        assert Fixed("key", 32).size_formula() == "32"
        assert Rest("body").size_formula() == "|body|"
        assert Opt(Bytes("token")).size_formula() == "1 + [4 + |token|]"
        assert List("ids", U8("id")).size_formula() == "4 + |ids|"
        assert List("keys", Fixed("key", 32)).size_formula() == "4 + 32·|keys|"
        assert List("items", Bytes("item")).size_formula() == "4 + Σ items (4 + |item|)"


def outcome(function, *args):
    """What a codec made of its input: the value's ``repr`` (NaN-safe), or that
    it refused."""
    try:
        return repr(function(*args))
    except SerializationError:
        return SerializationError


def mutations(sample: bytes, data, kinds=("truncate", "byte", "count")) -> bytes:
    """One mutation of a valid encoding: a truncation, a replaced byte, or four
    bytes of 0xff (a hostile length or count wherever one sits)."""
    index = data.draw(st.integers(min_value=0, max_value=len(sample) - 1))
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncate":
        return sample[:index]
    if kind == "byte":
        byte = data.draw(st.integers(min_value=0, max_value=255))
        return sample[:index] + bytes([byte]) + sample[index + 1:]
    return sample[:index] + b"\xff" * 4 + sample[index + 4:]


class TestTableEqualsOracle:
    """The table's codec against an independent reading of it: same bytes, same
    values, same refusals as ``Packer``/``Unpacker`` taken field by field."""

    @per_message
    @settings(max_examples=25)
    @given(data=st.data())
    def test_encode(self, message, data):
        # Integers are drawn two past their range either side: a refusal must
        # be a refusal on both sides.
        fields = data.draw(values(message, slack=2))
        assert outcome(message.encode, *fields) == outcome(oracle_encode, message, fields)

    @per_message
    @settings(max_examples=25)
    @given(blob=st.binary(max_size=200))
    def test_decode_of_arbitrary_bytes(self, message, blob):
        assert outcome(message.decode, blob) == outcome(oracle_decode, message, blob)

    @per_message
    @settings(max_examples=40)
    @given(data=st.data())
    def test_decode_of_mutated_encodings(self, message, data):
        agrees_on_a_mutation(message, data)

    @pytest.mark.slow
    @per_message
    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_decode_of_a_thousand_mutated_encodings(self, message, data):
        agrees_on_a_mutation(message, data)


def unregistered(name: str, *fields) -> Message:
    """A layout declared outside the registry (``docs/wire.md`` and the
    vectors cover registered layouts only)."""
    registry, serialization.MESSAGES = serialization.MESSAGES, {}
    try:
        return Message(name, *fields)
    finally:
        serialization.MESSAGES = registry


_INNER = unregistered("inner", Fixed("key", 3), List("blobs", Bytes("blob")), Flag("done"))
#: Shapes no registered layout has, for the code generator's branches and
#: loops: options and flags in list items, lists of lists, nested messages in
#: and after a list, an optional fixed field before the rest, an empty group.
SHAPES = [
    unregistered(
        "options_in_items",
        List("items", Opt(Str("s")), Flag("f")), Opt(List("ids", U32("id"))), U8("tail"),
    ),
    unregistered("lists_of_lists", List("rows", List("cells", U8("cell"))), Str("label")),
    unregistered("nested", _INNER, List("inners", _INNER), Trailing(Opt(_INNER))),
    unregistered("rest_after_options", F64("x"), Opt(Fixed("f", 2)), Rest("rest")),
    unregistered("empty_group", U8("a"), unregistered("none"), Str("b")),
]
per_shape = pytest.mark.parametrize("message", SHAPES, ids=lambda message: message.name)


class TestGeneratedShapesEqualOracle:
    @per_shape
    @settings(max_examples=60)
    @given(data=st.data())
    def test_encode(self, message, data):
        fields = data.draw(values(message, slack=2))
        assert outcome(message.encode, *fields) == outcome(oracle_encode, message, fields)

    @per_shape
    @settings(max_examples=60)
    @given(blob=st.binary(max_size=64))
    def test_decode_of_arbitrary_bytes(self, message, blob):
        assert outcome(message.decode, blob) == outcome(oracle_decode, message, blob)

    @per_shape
    @settings(max_examples=100)
    @given(data=st.data())
    def test_decode_of_mutated_encodings(self, message, data):
        agrees_on_a_mutation(message, data)


def agrees_on_a_mutation(message: Message, data) -> None:
    """A valid encoding decodes to its value, and one mutation of it gets the
    same outcome from the table's codec and from the oracle."""
    fields = data.draw(values(message))
    encoded = message.encode(*fields)
    assert message.decode(encoded) == fields == oracle_decode(message, encoded)
    mutated = mutations(encoded, data)
    assert outcome(message.decode, mutated) == outcome(oracle_decode, message, mutated)


@functools.cache
def key_material(ibe_name: str, attestation_name: str, index: int):
    """``(master public, identity-key share, attestation share)`` from seed ``index``."""
    ibe, scheme = IBE_BACKENDS[ibe_name], ATTESTATIONS[attestation_name]
    seed = bytes([index + 1]) * 32
    master = ibe.generate_master_keypair(seed)
    signer = bls.generate_keypair(seed)
    attested = scheme.attest(signer.secret, signer.public, b"statement %d" % index)
    return master.public, ibe.extract(master.secret, IDENTITY), attested


def canonical(message: Message) -> bool:
    """Every accepted byte string is the only encoding of its value: no field
    is declared as one a sender may leave off."""
    return not any(isinstance(field, Trailing) for field in message.fields)


@dataclass(frozen=True)
class Codec:
    name: str
    decode: Callable[[bytes], object]
    #: Re-encodes a value ``decode`` returned.
    encode: Callable[[object], bytes]
    #: Valid encodings.
    samples: tuple[bytes, ...]
    #: Every accepted input is the only encoding of its value.
    strict: bool = True
    #: How ``decode`` refuses.
    refusals: tuple[type, ...] = (SerializationError, CryptoError)
    #: More valid encodings, the seeds of the mutation fuzzing with ``samples``.
    generated: object = st.nothing()

    @staticmethod
    def of(message: Message) -> "Codec":
        """A declared message's case: everything comes from the declaration
        (and the parent's vectors)."""
        return Codec(
            message.name, message.decode, lambda fields: message.encode(*fields),
            tuple(vector_bytes(message)), strict=canonical(message),
            generated=values(message).map(lambda fields: message.encode(*fields)),
        )

    def check(self, data: bytes) -> None:
        """``data`` is rejected cleanly or decodes to a canonical value."""
        try:
            value = self.decode(data)
        except self.refusals:
            return
        canonical = self.encode(value)
        if self.strict:
            assert canonical == data
        assert self.encode(self.decode(canonical)) == canonical


def _bloom(tokens=(b"t" * 32, b"u" * 32)) -> BloomFilter:
    bloom = BloomFilter.for_expected_items(4)
    bloom.update(tokens)
    return bloom


def _by_hand() -> list[Codec]:
    """What the registry cannot cover: the crypto value encodings (not table
    layouts), and the value classes whose ``from_bytes`` adds checks on top of
    a layout (a frame's magic and kind, a mailbox's Bloom filter, a share's
    curve point) -- the layouts themselves are in the registry."""
    directory = ShardDirectory.build("add-friend", 3, 8, 2)
    addfriend_box = AddFriendMailbox(2, [b"c" * 40, b"d" * 40])
    dialing_box = DialingMailbox.build(1, [b"t" * 32])
    frame = Frame(KIND_RESPONSE, 9, "entry", "coordinator", "close_round", b"\x00" * 12)
    trace = TraceContext(trace="t1", span_id=4, origin="entry", pid=77)
    request = FriendRequest(IDENTITY, b"k" * 32, b"s" * 64, b"p" * 64, b"d" * 32, 12, 3, True)
    codecs = [
        Codec("bloom", BloomFilter.from_bytes, BloomFilter.to_bytes, (_bloom().to_bytes(),)),
        Codec("Frame", Frame.from_bytes, Frame.to_bytes, (frame.to_bytes(),)),
        # An absent trace flag and an absent error endpoint are tolerated.
        Codec("wire.decode_message", wire.decode_message,
              lambda m: wire.encode_message(m.frame, m.trace),
              (wire.encode_message(frame), wire.encode_message(frame, trace)), strict=False),
        Codec("wire.decode_error", wire.decode_error,
              lambda exc: wire.encode_error(exc, exc.remote_endpoint),
              (wire.encode_error(RoundError("round 3 is closed"), "entry"),
               wire.encode_error(ValueError("bad input"), "mix0")), strict=False),
        Codec("ShardDirectory", lambda data: ShardDirectory.from_fields(rpc.SHARD_DIRECTORY.decode(data)),
              lambda d: rpc.SHARD_DIRECTORY.encode(*d.to_fields()),
              (rpc.SHARD_DIRECTORY.encode(*directory.to_fields()),)),
        Codec("AddFriendMailbox", AddFriendMailbox.from_bytes, AddFriendMailbox.to_bytes,
              (addfriend_box.to_bytes(),)),
        Codec("DialingMailbox", DialingMailbox.from_bytes, DialingMailbox.to_bytes,
              (dialing_box.to_bytes(),)),
        Codec("FriendRequest", FriendRequest.from_bytes, FriendRequest.to_bytes,
              (request.to_bytes(),)),
    ]
    for protocol, box in (("add-friend", addfriend_box), ("dialing", dialing_box)):
        codecs.append(Codec(
            f"decode_mailbox[{protocol}]", functools.partial(decode_mailbox, protocol, box.mailbox_id),
            lambda mailbox: mailbox.to_bytes(), (box.to_bytes(),)))
        # The empty-mailbox marker decodes to an empty mailbox, which has bytes.
        codecs.append(Codec(
            f"mailbox_reply[{protocol}]",
            lambda data, protocol=protocol, box=box: rpc.mailbox_reply(data, protocol, box.mailbox_id),
            lambda mailbox: rpc.DOWNLOAD_RESPONSE.encode(mailbox.to_bytes()),
            (rpc.DOWNLOAD_RESPONSE.encode(box.to_bytes()), rpc.DOWNLOAD_RESPONSE.encode(None)),
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
            # The stub's decode: the layout, then both shares' own decoders;
            # what it cannot decode is the caller's NetworkError.
            stub = rpc.PkgStub(None, "pkg0", ibe, scheme, None)
            codecs.append(Codec(
                f"extraction_response[{ibe_name}-{scheme_name}]",
                functools.partial(stub.extraction_response, email=IDENTITY),
                lambda response, ibe=ibe, scheme=scheme: extraction_reply(response, ibe, scheme),
                (extraction_reply(
                    ExtractionResponse("pkg0", 7, *key_material(ibe_name, scheme_name, 0)[1:]),
                    ibe, scheme),),
                refusals=(NetworkError,)))
    for scheme_name, scheme in ATTESTATIONS.items():
        attested = key_material("simulated", scheme_name, 0)[2]
        codecs.append(Codec(
            f"attestation[{scheme_name}]", scheme.from_bytes, scheme.to_bytes,
            (scheme.to_bytes(attested),)))
    return codecs


def extraction_reply(response: ExtractionResponse, ibe, scheme) -> bytes:
    """An ``extract`` reply as ``PkgServer.handle_rpc`` encodes it."""
    return rpc.EXTRACTION_RESPONSE.encode(
        response.pkg_name, response.round_number,
        ibe.private_key_to_bytes(response.private_key_share), scheme.to_bytes(response.attestation),
    )


CODECS = [Codec.of(message) for message in MESSAGES] + _by_hand()
per_codec = pytest.mark.parametrize("codec", CODECS, ids=lambda codec: codec.name)


class TestDecoderFuzzing:
    """Every decoder fails closed: a canonical value, ``SerializationError`` or
    ``CryptoError`` -- within the hypothesis deadline -- for any input.  The
    registry *is* the list of layouts; only what sits on top of one, or beside
    it (crypto encodings), is registered by hand."""

    def test_only_the_declared_short_forms_are_not_canonical(self):
        assert [m.name for m in MESSAGES if not canonical(m)] == ["error_payload", "wire_body"]

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
        sample = data.draw(st.sampled_from(codec.samples) | codec.generated)
        codec.check(mutations(sample, data, kinds=("truncate", "byte")))

    @per_codec
    @settings(max_examples=20)
    @given(data=st.data())
    def test_a_hostile_count_anywhere(self, codec, data):
        sample = data.draw(st.sampled_from(codec.samples) | codec.generated)
        codec.check(mutations(sample, data, kinds=("count",)))

    def test_a_hostile_length_or_count_costs_nothing(self):
        # 2**32 - 1 declared items / bytes with none following: rejected on
        # the first missing one, not after allocating or looping for them.
        huge = b"\xff\xff\xff\xff"
        for decode, data in (
            (rpc.SUBMIT_BATCH_RESPONSE.decode, huge),
            (frames_module.ENVELOPE_BATCH.decode, huge),
            (rpc.PROCESS_BATCH_RESPONSE.decode, bytes(12) + huge),
            (rpc.PUBLISH_REQUEST.decode, rpc.ROUND_REF.encode("dialing", 1) + huge + huge),
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


def publish(protocol, round_number, mailbox_count, blobs: dict) -> tuple:
    """A ``MailboxSet``'s publish fields, as ``CdnStub.publish`` passes them."""
    return protocol, round_number, mailbox_count, list(blobs.items())


def published(protocol, round_number, mailbox_count, mailboxes) -> tuple:
    """The decoded fields, as ``Cdn.handle_rpc`` hands them to ``store_round``."""
    return protocol, round_number, mailbox_count, rpc.mailbox_blobs(mailboxes, mailbox_count)


class TestNewCodecRoundTrips:
    """Each value that used to ride beside the frame survives its byte layout."""

    @given(protocol=names, round_number=u64s, mailboxes=blob_maps, lo=u32s, hi=u32s)
    def test_mailbox_set(self, protocol, round_number, mailboxes, lo, hi):
        fields = (protocol, round_number, *mailboxes)
        assert published(*rpc.PUBLISH_REQUEST.decode(rpc.PUBLISH_REQUEST.encode(*publish(*fields)))) == fields
        sharded = rpc.SHARD_PUBLISH_REQUEST.decode(
            rpc.SHARD_PUBLISH_REQUEST.encode(lo, hi, *publish(*fields)))
        assert (*sharded[:2], *published(*sharded[2:])) == (lo, hi, *fields)

    def test_a_duplicate_or_out_of_range_mailbox_id_is_refused(self):
        for mailboxes in ([(1, b"a"), (1, b"b")], [(2, b"a")]):
            encoded = rpc.PUBLISH_REQUEST.encode("dialing", 3, 2, mailboxes)
            with pytest.raises(SerializationError):
                published(*rpc.PUBLISH_REQUEST.decode(encoded))

    def test_mailbox_set_is_the_blobs_the_cdn_stores(self):
        mailboxes = MailboxSet(round_number=3, protocol="dialing", mailbox_count=2)
        mailboxes.dialing[1] = DialingMailbox.build(1, [b"t" * 32])
        cdn = Cdn()
        cdn.handle_rpc(RpcRequest("entry", "cdn", "publish", rpc.PUBLISH_REQUEST.encode(
            *publish("dialing", 3, 2, mailboxes.blobs()))))
        assert cdn.download_blob("dialing", 3, 1, IDENTITY) == mailboxes.dialing[1].to_bytes()
        assert cdn.download_blob("dialing", 3, 0, IDENTITY) is None

    @given(mailbox_id=u32s, ciphertexts=st.lists(payloads, max_size=4))
    def test_download_response_addfriend(self, mailbox_id, ciphertexts):
        box = AddFriendMailbox(mailbox_id, ciphertexts)
        reply = rpc.DOWNLOAD_RESPONSE.encode(box.to_bytes())
        assert rpc.mailbox_reply(reply, "add-friend", mailbox_id) == box

    @given(mailbox_id=u32s, tokens=st.lists(st.binary(min_size=32, max_size=32), max_size=4))
    def test_download_response_dialing(self, mailbox_id, tokens):
        box = DialingMailbox.build(mailbox_id, tokens)
        reply = rpc.DOWNLOAD_RESPONSE.encode(box.to_bytes())
        decoded = rpc.mailbox_reply(reply, "dialing", mailbox_id)
        assert decoded == box and all(token in decoded for token in tokens)
        empty = rpc.mailbox_reply(rpc.DOWNLOAD_RESPONSE.encode(None), "dialing", mailbox_id)
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
        payload = extraction_reply(response, ibe, scheme)
        stub = rpc.PkgStub(None, pkg, ibe, scheme, None)
        assert stub.extraction_response(payload, IDENTITY) == response
        assert len(payload) == 4 + len(pkg.encode()) + 8 + (4 + 64) + (4 + 64)


class TestWireDoc:
    def test_docs_wire_md_is_what_the_table_generates(self):
        """``python -m repro.net.wiredoc > docs/wire.md`` after changing a layout."""
        assert (REPO / "docs" / "wire.md").read_text() == wiredoc.generate()

    def test_the_constants_are_printed_not_typed(self):
        doc = wiredoc.generate()
        assert f"≤ {MAX_WIRE_MESSAGE_BYTES // 2**20} MiB" in doc
        assert f"| {frames_module.FRAME.fixed_size} + " in doc
        assert "mailbox_count`" in doc and "· `mailbox_count`" not in doc  # a field, not a method

    def test_frame_overhead_is_the_declarations_fixed_size(self):
        frame = Frame(KIND_REQUEST, 1, "a@x", "entry", "submit", b"")
        assert frames_module.frame_overhead("a@x", "entry", "submit") == len(frame.to_bytes())
