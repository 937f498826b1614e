"""The keywheel construction (Figure 4, §5, §5.1 of the paper).

Each friend in the address book has a keywheel entry: a shared secret and
the dialing round it currently corresponds to.  Every dialing round the
secret is advanced with a one-way hash (and the old value erased), which
gives forward secrecy for dialing metadata: compromising a client reveals
only the *current* wheel position, never where it was in earlier rounds.

From the current secret a client derives:

* the *dial token* it would send to call this friend at a given round and
  intent (H2), and
* the *session key* handed to the application if a call is placed or
  received (H3).

Both friends advance their wheels in lockstep (the add-friend exchange
anchors the wheel at an agreed ``DialingRound``), so at any round they hold
the same secret and can compute the same tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import KeywheelHash, hkdf
from repro.errors import ProtocolError

SECRET_SIZE = 32
DIAL_TOKEN_SIZE = 32
SESSION_KEY_SIZE = 32


@dataclass
class KeywheelEntry:
    """One friend's wheel: the shared secret at a particular dialing round."""

    friend: str
    secret: bytes
    round_number: int

    def copy(self) -> "KeywheelEntry":
        return KeywheelEntry(self.friend, self.secret, self.round_number)


class Keywheel:
    """The keywheel table for one client (Figure 5)."""

    def __init__(self) -> None:
        self._entries: dict[str, KeywheelEntry] = {}

    # -- management -----------------------------------------------------
    def add_friend(self, friend: str, shared_secret: bytes, round_number: int) -> None:
        """Anchor a new wheel from the add-friend Diffie-Hellman output.

        The raw DH secret is stretched through HKDF so the wheel secret is a
        uniform 32-byte value independent of the curve encoding.
        """
        friend = friend.lower()
        if len(shared_secret) < 16:
            raise ProtocolError("shared secret too short to anchor a keywheel")
        secret = hkdf(shared_secret, info=b"alpenhorn/keywheel/anchor", length=SECRET_SIZE)
        self._entries[friend] = KeywheelEntry(friend=friend, secret=secret, round_number=round_number)

    def remove_friend(self, friend: str) -> None:
        """Erase a wheel entirely (the §3.2 'remove a friend' escape hatch)."""
        self._entries.pop(friend.lower(), None)

    def entry(self, friend: str) -> KeywheelEntry:
        friend = friend.lower()
        if friend not in self._entries:
            raise ProtocolError(f"no keywheel entry for {friend}")
        return self._entries[friend]

    def has_friend(self, friend: str) -> bool:
        return friend.lower() in self._entries

    # -- evolution --------------------------------------------------------
    def advance_to(self, round_number: int) -> None:
        """Advance every wheel up to ``round_number`` (never backwards).

        Entries anchored at a future round (a friend supplied a later
        ``DialingRound``) are left untouched, exactly as in Figure 5 where
        chris@hotmail.com stays at round 28 while the table moves to 26.
        """
        for entry in self._entries.values():
            while entry.round_number < round_number:
                entry.secret = KeywheelHash.advance(entry.secret, entry.round_number)
                entry.round_number += 1

    # -- derivations --------------------------------------------------------
    def _secret_at(self, friend: str, round_number: int) -> bytes:
        """The wheel secret at ``round_number`` without mutating state.

        Only forward derivation is possible; asking for a round before the
        stored position is a protocol error (that information was erased).
        """
        entry = self.entry(friend)
        if round_number < entry.round_number:
            raise ProtocolError(
                f"keywheel for {friend} is already at round {entry.round_number}; "
                f"cannot derive round {round_number}"
            )
        secret = entry.secret
        current = entry.round_number
        while current < round_number:
            secret = KeywheelHash.advance(secret, current)
            current += 1
        return secret

    def dial_token(self, friend: str, round_number: int, intent: int) -> bytes:
        """The token this client would send to call ``friend`` this round."""
        secret = self._secret_at(friend, round_number)
        return KeywheelHash.dial_token(secret, round_number, intent)

    def session_key(self, friend: str, round_number: int, intent: int) -> bytes:
        """The session key both sides derive for a call placed this round."""
        secret = self._secret_at(friend, round_number)
        return KeywheelHash.session_key(secret, round_number, intent)

    def expected_tokens(self, round_number: int, num_intents: int) -> dict[bytes, tuple[str, int]]:
        """All dial tokens any friend could have sent this round.

        This is what a client scans the dialing mailbox with: one token per
        (friend, intent) pair.  Hashing is cheap, so even 1,000 friends x 10
        intents is a sub-second scan (§8.2).
        """
        expected: dict[bytes, tuple[str, int]] = {}
        for friend, entry in self._entries.items():
            if entry.round_number > round_number:
                continue  # wheel anchored in the future; no tokens yet
            for intent in range(num_intents):
                token = self.dial_token(friend, round_number, intent)
                expected[token] = (friend, intent)
        return expected

    # -- persistence for compromise experiments -------------------------------
    def snapshot(self) -> dict[str, KeywheelEntry]:
        """A copy of the current state (what an adversary who compromises the
        client at this moment would learn)."""
        return {friend: entry.copy() for friend, entry in self._entries.items()}
