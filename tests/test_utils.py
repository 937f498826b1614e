"""Tests for repro.utils: byte helpers, serialization, deterministic RNG."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SerializationError
from repro.utils.bytes import bytes_to_int, constant_time_equal, hexlify, int_to_bytes, xor_bytes
from repro.utils.rng import DeterministicRng, random_bytes
from wire_oracle import Packer, Unpacker


class TestBytes:
    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")
        assert not constant_time_equal(b"abc", b"abcd")

    def test_int_roundtrip(self):
        assert bytes_to_int(int_to_bytes(123456, 8)) == 123456

    def test_int_to_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1, 4)

    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_xor_bytes_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")

    def test_hexlify_truncates(self):
        assert hexlify(b"\xaa" * 64).endswith("...")
        assert hexlify(b"\xaa") == "aa"

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_int_roundtrip_property(self, value):
        assert bytes_to_int(int_to_bytes(value, 8)) == value


class TestSerialization:
    def test_roundtrip_all_field_types(self):
        packed = (
            Packer()
            .u8(7)
            .u32(1234)
            .u64(2**40)
            .bytes(b"hello")
            .fixed(b"\x01" * 32, 32)
            .str("alice@example.org")
            .pack()
        )
        unpacker = Unpacker(packed)
        assert unpacker.u8() == 7
        assert unpacker.u32() == 1234
        assert unpacker.u64() == 2**40
        assert unpacker.bytes() == b"hello"
        assert unpacker.fixed(32) == b"\x01" * 32
        assert unpacker.str() == "alice@example.org"
        unpacker.done()

    def test_out_of_range_values_rejected(self):
        with pytest.raises(SerializationError):
            Packer().u8(256)
        with pytest.raises(SerializationError):
            Packer().u32(2**32)
        with pytest.raises(SerializationError):
            Packer().u64(2**64)

    def test_fixed_length_mismatch(self):
        with pytest.raises(SerializationError):
            Packer().fixed(b"abc", 4)

    def test_truncated_message(self):
        packed = Packer().bytes(b"hello").pack()
        with pytest.raises(SerializationError):
            Unpacker(packed[:-1]).bytes()

    def test_trailing_bytes_detected(self):
        with pytest.raises(SerializationError):
            Unpacker(b"\x00\x00\x00\x00extra").done()

    def test_invalid_utf8_rejected(self):
        packed = Packer().bytes(b"\xff\xfe").pack()
        with pytest.raises(SerializationError):
            Unpacker(packed).str()

    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_bytes_roundtrip_property(self, chunks):
        packer = Packer()
        for chunk in chunks:
            packer.bytes(chunk)
        unpacker = Unpacker(packer.pack())
        for chunk in chunks:
            assert unpacker.bytes() == chunk
        unpacker.done()


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(b"seed").read(128)
        b = DeterministicRng(b"seed").read(128)
        assert a == b

    def test_different_seeds_differ(self):
        assert DeterministicRng(b"one").read(32) != DeterministicRng(b"two").read(32)

    def test_fork_is_independent(self):
        parent = DeterministicRng(b"seed")
        child1 = parent.fork("a")
        child2 = parent.fork("b")
        assert child1.read(32) != child2.read(32)

    def test_randint_below_bounds(self, rng):
        for bound in (1, 2, 7, 1000, 2**40):
            for _ in range(20):
                assert 0 <= rng.randint_below(bound) < bound

    def test_randint_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            rng.randint_below(0)

    def test_uniform_in_unit_interval(self, rng):
        samples = [rng.uniform() for _ in range(200)]
        assert all(0.0 <= value < 1.0 for value in samples)
        assert 0.3 < sum(samples) / len(samples) < 0.7

    def test_shuffle_is_permutation(self, rng):
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # overwhelmingly likely

    def test_choice_from_empty_raises(self, rng):
        with pytest.raises(ValueError):
            rng.choice([])

    def test_accepts_str_and_int_seeds(self):
        assert DeterministicRng("abc").read(8) == DeterministicRng("abc").read(8)
        assert DeterministicRng(42).read(8) == DeterministicRng(42).read(8)

    def test_random_bytes_length(self):
        assert len(random_bytes(33)) == 33
