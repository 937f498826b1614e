"""Tests for the keywheel construction (Figure 4 / Figure 5 / §5.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keywheel import Keywheel
from repro.errors import ProtocolError


def make_pair(anchor_round: int = 5) -> tuple[Keywheel, Keywheel]:
    """Two wheels anchored from the same shared secret, as after add-friend."""
    shared = b"\x42" * 32
    alice, bob = Keywheel(), Keywheel()
    alice.add_friend("bob@example.org", shared, anchor_round)
    bob.add_friend("alice@example.org", shared, anchor_round)
    return alice, bob


class TestKeywheelBasics:
    def test_add_and_query_friend(self):
        wheel = Keywheel()
        wheel.add_friend("Bob@Example.org", b"\x01" * 32, 3)
        assert wheel.has_friend("bob@example.org")
        assert not wheel.has_friend("alice@example.org")
        assert wheel.entry("bob@example.org").round_number == 3

    def test_short_secret_rejected(self):
        wheel = Keywheel()
        with pytest.raises(ProtocolError):
            wheel.add_friend("bob@example.org", b"short", 0)

    def test_unknown_friend_rejected(self):
        wheel = Keywheel()
        with pytest.raises(ProtocolError):
            wheel.entry("ghost@example.org")
        with pytest.raises(ProtocolError):
            wheel.dial_token("ghost@example.org", 1, 0)

    def test_remove_friend_erases_entry(self):
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 3)
        wheel.remove_friend("bob@example.org")
        assert not wheel.has_friend("bob@example.org")


class TestSynchronisation:
    def test_same_secret_same_tokens(self):
        """Two friends derive identical dial tokens and session keys at any
        round at or after the anchor."""
        alice, bob = make_pair(anchor_round=5)
        for round_number in (5, 6, 10, 42):
            for intent in (0, 1, 2):
                assert alice.dial_token("bob@example.org", round_number, intent) == bob.dial_token(
                    "alice@example.org", round_number, intent
                )
                assert alice.session_key("bob@example.org", round_number, intent) == bob.session_key(
                    "alice@example.org", round_number, intent
                )

    def test_sync_preserved_when_one_side_advances_lazily(self):
        """One side advancing round-by-round matches the other deriving ahead."""
        alice, bob = make_pair(anchor_round=0)
        alice.advance_to(7)
        assert alice.dial_token("bob@example.org", 7, 0) == bob.dial_token("alice@example.org", 7, 0)

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_sync_property(self, extra_rounds, intent):
        alice, bob = make_pair(anchor_round=3)
        round_number = 3 + extra_rounds
        bob.advance_to(round_number)
        assert alice.dial_token("bob@example.org", round_number, intent) == bob.dial_token(
            "alice@example.org", round_number, intent
        )


class TestForwardSecrecy:
    def test_advance_erases_old_secrets(self):
        """After advancing, the wheel cannot produce tokens for past rounds --
        that state no longer exists on the client."""
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 0)
        token_before = wheel.dial_token("bob@example.org", 0, 0)
        wheel.advance_to(5)
        with pytest.raises(ProtocolError):
            wheel.dial_token("bob@example.org", 0, 0)
        # And the secret itself has changed.
        assert wheel.entry("bob@example.org").secret != token_before

    def test_advance_is_one_way(self):
        """The advanced secret does not reveal the previous secret: advancing
        twice from the same point matches, but no inverse exists (we check the
        secrets differ and evolve deterministically)."""
        a, b = Keywheel(), Keywheel()
        a.add_friend("x@example.org", b"\x05" * 32, 0)
        b.add_friend("x@example.org", b"\x05" * 32, 0)
        a.advance_to(10)
        b.advance_to(10)
        assert a.entry("x@example.org").secret == b.entry("x@example.org").secret
        b.advance_to(11)
        assert a.entry("x@example.org").secret != b.entry("x@example.org").secret

    def test_advance_never_moves_backwards(self):
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 10)
        wheel.advance_to(4)  # no-op: entry is anchored later
        assert wheel.entry("bob@example.org").round_number == 10

    def test_future_anchored_entry_untouched(self):
        """Figure 5: an entry anchored at a future round stays put while the
        rest of the table advances."""
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 25)
        wheel.add_friend("chris@example.org", b"\x02" * 32, 28)
        wheel.advance_to(26)
        assert wheel.entry("bob@example.org").round_number == 26
        assert wheel.entry("chris@example.org").round_number == 28

    def test_snapshot_is_a_copy(self):
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 0)
        snap = wheel.snapshot()
        wheel.advance_to(3)
        assert snap["bob@example.org"].round_number == 0
        assert wheel.entry("bob@example.org").round_number == 3


class TestDerivations:
    def test_token_and_session_key_differ(self):
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 0)
        assert wheel.dial_token("bob@example.org", 0, 0) != wheel.session_key("bob@example.org", 0, 0)

    def test_tokens_differ_by_intent_round_friend(self):
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 0)
        wheel.add_friend("carol@example.org", b"\x02" * 32, 0)
        tokens = {
            wheel.dial_token("bob@example.org", 0, 0),
            wheel.dial_token("bob@example.org", 0, 1),
            wheel.dial_token("bob@example.org", 1, 0),
            wheel.dial_token("carol@example.org", 0, 0),
        }
        assert len(tokens) == 4

    def test_expected_tokens_enumerates_friends_and_intents(self):
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 0)
        wheel.add_friend("carol@example.org", b"\x02" * 32, 0)
        wheel.add_friend("future@example.org", b"\x03" * 32, 99)
        expected = wheel.expected_tokens(round_number=5, num_intents=3)
        # future@example.org's wheel is not live yet, so 2 friends x 3 intents.
        assert len(expected) == 6
        assert all(value[0] in ("bob@example.org", "carol@example.org") for value in expected.values())

    def test_derivation_does_not_mutate_state(self):
        wheel = Keywheel()
        wheel.add_friend("bob@example.org", b"\x01" * 32, 0)
        before = wheel.entry("bob@example.org").secret
        wheel.dial_token("bob@example.org", 9, 2)
        assert wheel.entry("bob@example.org").secret == before
        assert wheel.entry("bob@example.org").round_number == 0
