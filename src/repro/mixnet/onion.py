"""Onion encryption of client requests (Algorithm 1, step 3).

A client wraps its innermost payload once per mix server, from the last
server to the first: for server *i* it generates an ephemeral X25519 key
pair, derives a shared key with the server's per-round public key, and seals
the previous layer.  Each layer therefore looks like::

    ephemeral_public_key (32 bytes) || AEAD(seal of inner layer)

and a server can only recover the next layer with its own round private
key.  The per-layer overhead is constant, so all requests in a round have
identical sizes and are indistinguishable on the wire.

All layer crypto routes through the pluggable engine
(:mod:`repro.crypto.engine`): the single-envelope helpers take an optional
``engine`` (defaulting to the process-wide active backend), and the batch
variants hand whole batches to the backend's ``*_many`` APIs so an
accelerated or multi-core backend can go wide.  :func:`wrap_onion_many`
(a server's noise, a client's request) makes one ``keypair_exchange_many``
and one ``seal_many`` call per layer: every ephemeral private key reaches
the engine once and yields both its public half and the layer secret.
:func:`unwrap_layers` (a round's peel) makes one ``shared_secret_many``
call with the same round key in every item -- which the engine loads once
for the call and forgets -- and one ``open_many``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import x25519
from repro.crypto.aead import AEAD_OVERHEAD
from repro.crypto.engine import CryptoBackend, active_backend
from repro.crypto.hashing import hkdf
from repro.errors import MixnetError
from repro.utils.rng import random_bytes

_LAYER_KEY_INFO = b"alpenhorn/mixnet/onion-layer"

LAYER_OVERHEAD = x25519.KEY_SIZE + AEAD_OVERHEAD


@dataclass(frozen=True)
class OnionKeyPair:
    """A mix server's key pair for one round."""

    private: bytes
    public: bytes

    @staticmethod
    def generate(engine: CryptoBackend | None = None) -> "OnionKeyPair":
        engine = engine if engine is not None else active_backend()
        private = random_bytes(x25519.KEY_SIZE)
        return OnionKeyPair(private=private, public=engine.public_key(private))


def _layer_key(shared_secret: bytes, ephemeral_public: bytes, server_public: bytes) -> bytes:
    return hkdf(
        shared_secret,
        salt=ephemeral_public + server_public,
        info=_LAYER_KEY_INFO,
        length=32,
    )


def wrap_onion(
    payload: bytes, server_publics: list[bytes], engine: CryptoBackend | None = None
) -> bytes:
    """Wrap ``payload`` for a chain of servers (first server outermost)."""
    return wrap_onion_many([payload], server_publics, engine=engine)[0]


def wrap_onion_many(
    payloads: list[bytes], server_publics: list[bytes], engine: CryptoBackend | None = None
) -> list[bytes]:
    """Wrap every payload for the chain, one engine batch call per layer.

    Each payload gets its own fresh ephemeral key at every layer (exactly as
    :func:`wrap_onion` does one-by-one); the batch shape only changes who
    executes the arithmetic, never the bytes.
    """
    if not server_publics:
        raise MixnetError("cannot onion-wrap for an empty chain")
    engine = engine if engine is not None else active_backend()
    wrapped = list(payloads)
    if not wrapped:
        return []
    for server_public in reversed(server_publics):
        ephemeral_privates = [random_bytes(x25519.KEY_SIZE) for _ in wrapped]
        exchanged = engine.keypair_exchange_many(ephemeral_privates, server_public)
        seal_items = []
        for (ephemeral_public, secret), payload in zip(exchanged, wrapped):
            if secret is None:  # a small-order server key: no ephemeral can fix that
                raise MixnetError("onion layer key exchange degenerated to zero")
            key = _layer_key(secret, ephemeral_public, server_public)
            seal_items.append((key, payload, ephemeral_public, None))
        boxes = engine.seal_many(seal_items)
        wrapped = [
            ephemeral_public + box for (ephemeral_public, _), box in zip(exchanged, boxes)
        ]
    return wrapped


def unwrap_layers(
    envelopes: list[bytes],
    server_keypair: OnionKeyPair,
    engine: CryptoBackend | None = None,
) -> list[bytes | None]:
    """Peel one layer from every envelope with the server's round private
    key; ``None`` marks a dropped one.

    Malformed or undecryptable envelopes map to ``None`` instead of
    raising, which is the semantics the mix peel wants (drop, count,
    continue): a bad request never aborts the round.
    """
    engine = engine if engine is not None else active_backend()
    parsed: list[tuple[bytes, bytes] | None] = [
        (envelope[: x25519.KEY_SIZE], envelope[x25519.KEY_SIZE :])
        if len(envelope) >= LAYER_OVERHEAD
        else None
        for envelope in envelopes
    ]
    valid = [item for item in parsed if item is not None]
    secrets = engine.shared_secret_many(
        [(server_keypair.private, ephemeral_public) for ephemeral_public, _ in valid]
    )
    open_items = []
    for (ephemeral_public, sealed), secret in zip(valid, secrets):
        if secret is None:
            # A degenerate ephemeral point: keep list shapes aligned with an
            # unopenable item (the wrong-size key makes open_many yield None).
            open_items.append((b"", sealed, ephemeral_public))
        else:
            key = _layer_key(secret, ephemeral_public, server_keypair.public)
            open_items.append((key, sealed, ephemeral_public))
    opened = iter(engine.open_many(open_items))
    return [None if item is None else next(opened) for item in parsed]
