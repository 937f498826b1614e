"""Exception hierarchy for the Alpenhorn reproduction.

All library errors derive from :class:`AlpenhornError` so applications can
catch everything from this package with one ``except`` clause, while tests
can assert on precise subclasses.
"""


class AlpenhornError(Exception):
    """Base class for all errors raised by this package."""


class CryptoError(AlpenhornError):
    """A cryptographic operation failed (bad key, bad point, bad length)."""


class DecryptionError(CryptoError):
    """Authenticated decryption failed (wrong key or tampered ciphertext)."""


class SignatureError(CryptoError):
    """A signature failed to verify."""


class SerializationError(AlpenhornError):
    """A wire-format message could not be parsed."""


class RegistrationError(AlpenhornError):
    """PKG registration failed (unconfirmed, locked, or already taken)."""


class ExtractionError(AlpenhornError):
    """IBE private-key extraction was refused by a PKG."""


class LockoutError(RegistrationError):
    """The account is inside its lockout window and cannot be re-registered."""


class RoundError(AlpenhornError):
    """A request referenced a round that is not open (or already closed)."""


class UnknownRoundError(RoundError):
    """The server holds no state at all for the referenced round.

    Distinct from an *empty* result (e.g. a mailbox nobody wrote to, which
    is returned as empty bytes): an unknown round means the caller asked the
    wrong server or the round was never published, and must surface loudly
    instead of reading as silent no-mail."""


class ShardRoutingError(AlpenhornError):
    """A request reached a shard that does not own its mailbox range.

    Always a routing bug (stale directory, misconfigured client), never a
    legitimate empty result -- so it is a distinct, loud error type."""


class MixnetError(AlpenhornError):
    """The mixnet chain rejected or failed to process a batch."""


class ProtocolError(AlpenhornError):
    """A client-side protocol invariant was violated."""


class ConfigurationError(AlpenhornError):
    """The deployment or client configuration is invalid."""


class NetworkError(AlpenhornError):
    """A transport-level failure: unknown endpoint, lost message, dead link."""

    #: Set on an instance when the server acted on the request and only the
    #: acknowledgement was lost: a blind retry would double-apply it.
    request_delivered = False


class PartitionError(NetworkError):
    """The link between two endpoints is partitioned; the message cannot flow."""


class TransportTimeoutError(NetworkError, RoundError):
    """An RPC exceeded its caller-supplied deadline (``timeout_s``).

    Doubly classified on purpose: as a :class:`NetworkError` it feeds the
    round engine's abort/requeue path (a timed-out submit is requeued like a
    lost frame), and as a :class:`RoundError` the round-scoped semantics
    carry over to real transports, where a deadline is the *only* way a
    caller ever gives up on a stuck peer.
    """


class RemoteCallError(AlpenhornError):
    """A remote handler failed with an error type the wire cannot map.

    Real transports encode handler exceptions by class name; names outside
    the :mod:`repro.errors` hierarchy reconstruct as this catch-all.  It is
    deliberately *not* a :class:`NetworkError`: the request was delivered
    and rejected, so retry/requeue machinery must treat it as a server-side
    failure, exactly as an in-process transport would re-raise the original.
    """
