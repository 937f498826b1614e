"""Wire-format size accounting (§8.2 and §8.6 of the paper).

The paper's numbers: an add-friend request is 244 bytes of signed fields
plus a 64-byte (compressed BN-256) IBE ciphertext component, 308 bytes in
total; a dial token is 256 bits; a Bloom-filter entry costs 48 bits.  The
bandwidth figures are reproduced from these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mixnet.onion import LAYER_OVERHEAD


@dataclass(frozen=True)
class WireSizes:
    """Sizes (bytes) of the protocol's wire objects."""

    friend_request_fields: int      # signed request body before IBE
    ibe_ciphertext_overhead: int    # bytes the IBE layer adds
    dial_token: int = 32
    bloom_bits_per_token: float = 48.0
    mailbox_entry_framing: int = 4  # length prefix per mailbox entry

    @property
    def addfriend_mailbox_entry(self) -> int:
        """One encrypted friend request as stored in a mailbox."""
        return self.friend_request_fields + self.ibe_ciphertext_overhead

    def addfriend_mailbox_bytes(self, requests: int) -> int:
        """Size of an add-friend mailbox holding ``requests`` entries."""
        return requests * (self.addfriend_mailbox_entry + self.mailbox_entry_framing)

    def dialing_mailbox_bytes(self, tokens: int) -> int:
        """Size of a Bloom-filter dialing mailbox holding ``tokens`` entries."""
        return int(tokens * self.bloom_bits_per_token / 8) + 12

    def onion_request_bytes(self, payload: int, num_servers: int) -> int:
        """What a client uploads per round: payload plus per-hop overhead."""
        return payload + num_servers * LAYER_OVERHEAD

    @staticmethod
    def paper() -> "WireSizes":
        """The sizes reported by the paper's prototype (§8.2, §8.6)."""
        return WireSizes(
            friend_request_fields=244,
            ibe_ciphertext_overhead=64,
            bloom_bits_per_token=48.0,
        )

    def scaled_ibe(self, factor: float) -> "WireSizes":
        """Scale the IBE ciphertext overhead (the §8.6 what-if analysis)."""
        return WireSizes(
            friend_request_fields=self.friend_request_fields,
            ibe_ciphertext_overhead=int(round(self.ibe_ciphertext_overhead * factor)),
            dial_token=self.dial_token,
            bloom_bits_per_token=self.bloom_bits_per_token,
            mailbox_entry_framing=self.mailbox_entry_framing,
        )
