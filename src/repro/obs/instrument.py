"""Crypto-engine instrumentation: a delegating backend that times every op.

:class:`InstrumentedCryptoBackend` wraps any :class:`~repro.crypto.engine.
CryptoBackend` and reports to the active tracer: batch calls (the mix peel's
``open_many``, noise generation's ``seal_many``, ...) become *kept* spans
with item counts, single-item ops feed wall-clock attribution only (they run
thousands of times per round; keeping a span each would swamp the trace).
The tracer folds every crypto span into per-op call/item/wall totals
(``Tracer.report()["crypto_ops"]``).

``Deployment`` installs the wrapper only when the active tracer is enabled,
so untraced runs pay nothing on the crypto hot path.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.engine import CryptoBackend, KeypairExchange, OpenItem, SealItem, SecretItem
from repro.obs.trace import CATEGORY_CRYPTO, active_tracer

__all__ = ["InstrumentedCryptoBackend"]


class InstrumentedCryptoBackend(CryptoBackend):
    """Times every engine call against the active tracer; byte-transparent."""

    def __init__(self, inner: CryptoBackend) -> None:
        self.inner = inner
        self.name = inner.name

    def __repr__(self) -> str:
        return f"<InstrumentedCryptoBackend over {self.inner!r}>"

    # -- single-item ops: attribution only ---------------------------------
    def _single(self, op: str, func, *args) -> Any:
        tracer = active_tracer()
        span = tracer.start(op, category=CATEGORY_CRYPTO, keep=False)
        try:
            return func(*args)
        finally:
            tracer.end(span)

    def shared_secret(self, private_key: bytes, peer_public_key: bytes) -> bytes:
        return self._single("shared_secret", self.inner.shared_secret, private_key, peer_public_key)

    def public_key(self, private_key: bytes) -> bytes:
        return self._single("public_key", self.inner.public_key, private_key)

    def seal(
        self,
        key: bytes,
        plaintext: bytes,
        associated_data: bytes = b"",
        nonce: bytes | None = None,
    ) -> bytes:
        return self._single("seal", self.inner.seal, key, plaintext, associated_data, nonce)

    def open_sealed(self, key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
        return self._single("open_sealed", self.inner.open_sealed, key, sealed, associated_data)

    def ed25519_sign(self, private_key: bytes, message: bytes) -> bytes:
        return self._single("ed25519_sign", self.inner.ed25519_sign, private_key, message)

    def ed25519_verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return self._single(
            "ed25519_verify", self.inner.ed25519_verify, public_key, message, signature
        )

    def ed25519_public_key(self, private_key: bytes) -> bytes:
        return self._single("ed25519_public_key", self.inner.ed25519_public_key, private_key)

    # -- batch ops: kept spans ---------------------------------------------
    def _batch(self, op: str, func, items) -> Any:
        tracer = active_tracer()
        span = tracer.start(
            op, category=CATEGORY_CRYPTO, track="crypto", keep=True, count=len(items)
        )
        try:
            return func(items)
        finally:
            tracer.end(span)

    def seal_many(self, items: Sequence[SealItem]) -> list[bytes]:
        return self._batch("seal_many", self.inner.seal_many, items)

    def open_many(self, items: Sequence[OpenItem]) -> "list[bytes | None]":
        return self._batch("open_many", self.inner.open_many, items)

    def shared_secret_many(self, pairs: Sequence[SecretItem]) -> "list[bytes | None]":
        return self._batch("shared_secret_many", self.inner.shared_secret_many, pairs)

    def public_key_many(self, private_keys: Sequence[bytes]) -> list[bytes]:
        return self._batch("public_key_many", self.inner.public_key_many, private_keys)

    def keypair_exchange_many(
        self, private_keys: Sequence[bytes], peer_public_key: bytes
    ) -> "list[KeypairExchange]":
        # Forwarded, not left to the composing default: a traced run must
        # make the engine calls an untraced one makes.
        return self._batch(
            "keypair_exchange_many",
            lambda keys: self.inner.keypair_exchange_many(keys, peer_public_key),
            private_keys,
        )
