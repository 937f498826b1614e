"""The anytrust mixnet chain (§3.1 and §6 of the paper).

Clients onion-encrypt fixed-size requests for the chain of mix servers; each
server peels its layer, adds Laplace-distributed noise destined to every
mailbox, and randomly permutes the batch before forwarding it.  The last
server groups the plaintext payloads by mailbox: add-friend mailboxes hold
IBE ciphertexts, dialing mailboxes are encoded as Bloom filters of dial
tokens.  As long as one server keeps its permutation and private key secret,
an adversary cannot link a request entering the chain to a mailbox entry
leaving it, and the added noise makes the observable mailbox counts
differentially private.
"""

from repro.mixnet.onion import OnionKeyPair, wrap_onion
from repro.mixnet.server import MixServer
from repro.mixnet.chain import MixChain, RoundResult
from repro.mixnet.mailbox import (
    COVER_MAILBOX_ID,
    AddFriendMailbox,
    DialingMailbox,
    MailboxSet,
    mailbox_for_identity,
    choose_mailbox_count,
)
from repro.mixnet.noise import NoiseConfig

__all__ = [
    "OnionKeyPair",
    "wrap_onion",
    "MixServer",
    "MixChain",
    "RoundResult",
    "COVER_MAILBOX_ID",
    "AddFriendMailbox",
    "DialingMailbox",
    "MailboxSet",
    "mailbox_for_identity",
    "choose_mailbox_count",
    "NoiseConfig",
]
