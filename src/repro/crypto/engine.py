"""The pluggable crypto engine: backend registry and batch seal/peel APIs.

Alpenhorn's throughput rests on cheap symmetric crypto on the hot path --
the paper's servers peel hundreds of thousands of onion layers per round.
Our reference primitives are deliberately pure Python (spec-true,
stdlib-only): about 0.1 ms per 640-byte seal or open, 0.25 ms per X25519
key generation and 1.0 ms per X25519 exchange, so peeling one onion layer
costs ~1.2 ms.  Wrapping is cheaper in batches: from 3 fresh keys against
one server key on, the keys share one window table of that key (~1.2
exchanges to build, then ~0.3 of an exchange per key), so at batch 8 a
layer's key generation plus exchange costs ~45 % less per envelope than
one at a time (0.83 against 1.55 ms, measured side by side); fewer keys
each run the ladder.  Every batch call also finishes all its results with
one modular inversion instead of one (~30 us) per result.  On OpenSSL an
exchange is ~0.04 ms -- and so is *importing* a private key, because
OpenSSL derives the public half on import -- so a peel costs one exchange
per envelope plus one import per batch (~0.05 ms per envelope) and a wrap
one import and one exchange per layer (``crypto.*_us.*`` and
``mixnet.{wrap,peel}_us_per_env.*`` on the benchmark ladder).  This module
makes that cost a *choice* instead of a ceiling:

* ``"pure"`` -- the stdlib-only reference implementation (the default, and
  the byte-exactness oracle ``accelerated`` is tested against),
* ``"accelerated"`` -- the optional ``cryptography`` package's ChaCha20-
  Poly1305 and X25519 (OpenSSL-backed) when importable; never a hard
  dependency, selecting it without the package installed is a
  :class:`~repro.errors.ConfigurationError`.

Both backends are byte-identical for fixed keys and nonces: ``seal`` is the
RFC 8439 AEAD returning ``nonce || ciphertext || tag``, ``shared_secret``
is RFC 7748 X25519, so tier-1 passes -- and deployments interoperate --
under either of them.  Multi-core mix work is not a backend: on
``runtime=mp`` each mix server peels in its own worker process
(:mod:`repro.runtime.mp`).

A :class:`CryptoBackend` adds batch variants (``seal_many``, ``open_many``,
``shared_secret_many``, ``public_key_many``, ``keypair_exchange_many``)
that the hot paths feed whole rounds through:
:meth:`~repro.mixnet.server.MixServer.process_batch` peels its envelopes
via ``shared_secret_many`` + ``open_many`` (see
:func:`repro.mixnet.onion.unwrap_layers`), noise generation and clients
wrap via :func:`repro.mixnet.onion.wrap_onion_many`, whose every layer is
one ``keypair_exchange_many`` -- each fresh ephemeral's public half and
its exchange with the server's round key, from one import of the
ephemeral -- and one ``seal_many``; the engine-backed entry points in
:mod:`repro.crypto.aead` route every keywheel/session seal through the
active backend.

A backend keeps **no key material between calls**: a batch call may hold
the handles it loaded until it returns (the peel imports the round key
once for the whole batch), and nothing longer, so erasing a round key
(close or abort) leaves no copy of it behind an engine instance.

Selection is ``AlpenhornConfig.crypto_backend``; a :class:`Deployment`
resolves it via :func:`get_backend`, threads the instance through the mix
tier, and installs it as the process-wide active backend so module-level
helpers follow along.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

from repro.crypto import ed25519, x25519
from repro.crypto.chacha20 import KEY_SIZE, NONCE_SIZE
from repro.errors import ConfigurationError, CryptoError, DecryptionError
from repro.utils.rng import random_bytes

#: (key, plaintext, associated_data, nonce-or-None) -- one ``seal`` call.
SealItem = tuple[bytes, bytes, bytes, "bytes | None"]
#: (key, sealed, associated_data) -- one ``open_sealed`` call.
OpenItem = tuple[bytes, bytes, bytes]
#: (private_key, peer_public_key) -- one ``shared_secret`` call.
SecretItem = tuple[bytes, bytes]
#: (public_key, shared_secret-or-None) -- one ``keypair_exchange_many`` result.
KeypairExchange = tuple[bytes, "bytes | None"]


def _check_x25519_length(what: str, value: bytes) -> None:
    if len(value) != x25519.KEY_SIZE:
        raise CryptoError(f"X25519 {what} must be {x25519.KEY_SIZE} bytes, got {len(value)}")


def _fill_nonces(items: Iterable[SealItem]) -> list[SealItem]:
    """Draw the missing nonces up front, through this module's ``random_bytes``.

    Every batch seal draws its nonces here, in item order, before any box is
    sealed -- so a seeded ``random_bytes`` (the onion wrap's test vectors
    patch this module's) fixes the exact bytes of a batch.
    """
    return [
        (key, plaintext, associated_data, nonce if nonce is not None else random_bytes(NONCE_SIZE))
        for key, plaintext, associated_data, nonce in items
    ]


class CryptoBackend:
    """The protocol every engine backend implements.

    Single-item operations raise (:class:`CryptoError` on malformed inputs,
    :class:`DecryptionError` on authentication failure); the batch variants
    map per-item *crypto* failures to ``None`` in the result list instead,
    because their callers (the mix peel) drop bad envelopes rather than
    aborting a round.  The default batch implementations are plain loops, so
    a backend only overrides what it can actually make faster.
    """

    name: str = "abstract"

    # -- single-item operations -------------------------------------------
    def shared_secret(self, private_key: bytes, peer_public_key: bytes) -> bytes:
        """RFC 7748 X25519 Diffie-Hellman (raises on the all-zero point)."""
        raise NotImplementedError

    def public_key(self, private_key: bytes) -> bytes:
        """Derive the X25519 public key for a private key."""
        raise NotImplementedError

    def seal(
        self,
        key: bytes,
        plaintext: bytes,
        associated_data: bytes = b"",
        nonce: bytes | None = None,
    ) -> bytes:
        """RFC 8439 AEAD seal; returns ``nonce || ciphertext || tag``."""
        raise NotImplementedError

    def open_sealed(self, key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt a box produced by :meth:`seal`."""
        raise NotImplementedError

    # Ed25519 rides the same backend: friend-request SenderSigs and PKG
    # authentication run once per client per round, which at 10k clients is
    # as hot as the onion layers.  Signatures are deterministic (RFC 8032),
    # so the byte-identical contract holds here too.
    def ed25519_sign(self, private_key: bytes, message: bytes) -> bytes:
        raise NotImplementedError

    def ed25519_verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError

    def ed25519_public_key(self, private_key: bytes) -> bytes:
        raise NotImplementedError

    # -- batch variants ----------------------------------------------------
    def seal_many(self, items: Sequence[SealItem]) -> list[bytes]:
        return [
            self.seal(key, plaintext, associated_data, nonce)
            for key, plaintext, associated_data, nonce in _fill_nonces(items)
        ]

    def open_many(self, items: Sequence[OpenItem]) -> list[bytes | None]:
        results: list[bytes | None] = []
        for key, sealed, associated_data in items:
            try:
                results.append(self.open_sealed(key, sealed, associated_data))
            except (DecryptionError, CryptoError):
                results.append(None)
        return results

    def shared_secret_many(self, pairs: Sequence[SecretItem]) -> list[bytes | None]:
        results: list[bytes | None] = []
        for private_key, peer_public_key in pairs:
            try:
                results.append(self.shared_secret(private_key, peer_public_key))
            except CryptoError:
                results.append(None)
        return results

    def public_key_many(self, private_keys: Sequence[bytes]) -> list[bytes]:
        return [self.public_key(private_key) for private_key in private_keys]

    def keypair_exchange_many(
        self, private_keys: Sequence[bytes], peer_public_key: bytes
    ) -> list[KeypairExchange]:
        """Each key's public half and its exchange with one shared peer.

        The onion wrap's shape: N fresh ephemerals against one server key.
        Equal to :meth:`public_key_many` zipped with :meth:`shared_secret_many`
        (which is what this default does), except that a wrong-length peer
        raises instead of mapping every secret to ``None``.
        """
        _check_x25519_length("point", peer_public_key)
        publics = self.public_key_many(private_keys)
        secrets = self.shared_secret_many(
            [(private_key, peer_public_key) for private_key in private_keys]
        )
        return list(zip(publics, secrets))


class PureBackend(CryptoBackend):
    """The stdlib-only reference implementation (today's code, the default)."""

    name = "pure"

    def __init__(self) -> None:
        # Bound once at construction: importing at engine-module level would
        # cycle with aead.py's tail import, and a function-body import would
        # tax every call on the hot path.
        from repro.crypto.aead import pure_open_sealed, pure_seal

        self._seal = pure_seal
        self._open = pure_open_sealed

    def shared_secret(self, private_key: bytes, peer_public_key: bytes) -> bytes:
        return x25519.shared_secret(private_key, peer_public_key)

    def public_key(self, private_key: bytes) -> bytes:
        return x25519.public_key(private_key)

    # The batch variants finish every result with one inversion per call,
    # and N keys against one peer share one window table of that peer
    # (x25519's batch functions); the bytes are the single ops' bytes.
    def shared_secret_many(self, pairs: Sequence[SecretItem]) -> list[bytes | None]:
        return x25519.shared_secrets(pairs)

    def public_key_many(self, private_keys: Sequence[bytes]) -> list[bytes]:
        return x25519.public_keys(private_keys)

    def keypair_exchange_many(
        self, private_keys: Sequence[bytes], peer_public_key: bytes
    ) -> list[KeypairExchange]:
        return x25519.keypair_exchanges(private_keys, peer_public_key)

    def seal(
        self,
        key: bytes,
        plaintext: bytes,
        associated_data: bytes = b"",
        nonce: bytes | None = None,
    ) -> bytes:
        return self._seal(key, plaintext, associated_data, nonce)

    def open_sealed(self, key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
        return self._open(key, sealed, associated_data)

    def ed25519_sign(self, private_key: bytes, message: bytes) -> bytes:
        return ed25519.sign(private_key, message)

    def ed25519_verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return ed25519.verify(public_key, message, signature)

    def ed25519_public_key(self, private_key: bytes) -> bytes:
        return ed25519.public_key(private_key)


def _load_cryptography():
    """The optional ``cryptography`` primitives, or ``None`` when absent."""
    try:
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives import serialization
        from cryptography.hazmat.primitives.asymmetric.ed25519 import (
            Ed25519PrivateKey,
            Ed25519PublicKey,
        )
        from cryptography.hazmat.primitives.asymmetric.x25519 import (
            X25519PrivateKey,
            X25519PublicKey,
        )
        from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
    except ImportError:
        return None
    return {
        "InvalidTag": InvalidTag,
        "serialization": serialization,
        "Ed25519PrivateKey": Ed25519PrivateKey,
        "Ed25519PublicKey": Ed25519PublicKey,
        "X25519PrivateKey": X25519PrivateKey,
        "X25519PublicKey": X25519PublicKey,
        "ChaCha20Poly1305": ChaCha20Poly1305,
    }


def accelerated_available() -> bool:
    """Whether the optional ``cryptography`` package is importable."""
    return _load_cryptography() is not None


class AcceleratedBackend(CryptoBackend):
    """OpenSSL-backed primitives via the optional ``cryptography`` package.

    Byte-identical to :class:`PureBackend` for fixed keys/nonces: both sides
    implement the same RFCs, this one in C.  Never a hard dependency --
    constructing it without the package raises :class:`ConfigurationError`
    (the registry reports it unavailable instead of surprising callers).
    """

    name = "accelerated"

    def __init__(self) -> None:
        primitives = _load_cryptography()
        if primitives is None:
            raise ConfigurationError(
                "the 'accelerated' crypto backend needs the optional "
                "'cryptography' package (pip install cryptography); "
                "use 'pure' for the stdlib-only default"
            )
        self._aead = primitives["ChaCha20Poly1305"]
        self._invalid_tag = primitives["InvalidTag"]
        self._private_key = primitives["X25519PrivateKey"]
        self._public_key = primitives["X25519PublicKey"]
        self._ed_private_key = primitives["Ed25519PrivateKey"]
        self._ed_public_key = primitives["Ed25519PublicKey"]
        serialization = primitives["serialization"]
        self._raw_encoding = serialization.Encoding.Raw
        self._raw_format = serialization.PublicFormat.Raw
        # Bound once: a function-body import would tax every open on the
        # hot path (same reason PureBackend binds its functions).
        from repro.crypto.aead import AEAD_OVERHEAD

        self._aead_overhead = AEAD_OVERHEAD

    # Importing a private key is not free: OpenSSL derives the public half on
    # load, which costs as much as an exchange.  So every method below loads
    # a given key once per *call* -- and keeps nothing afterwards: a handle
    # that outlived its call would outlive the round key it was loaded from.
    def _load_private(self, private_key: bytes):
        _check_x25519_length("scalar", private_key)
        return self._private_key.from_private_bytes(private_key)

    def _load_peer(self, peer_public_key: bytes):
        _check_x25519_length("point", peer_public_key)
        return self._public_key.from_public_bytes(peer_public_key)

    @staticmethod
    def _exchange(private, peer) -> bytes:
        try:
            return private.exchange(peer)
        except ValueError as exc:  # OpenSSL refuses the all-zero shared point
            raise CryptoError("X25519 produced the all-zero shared secret") from exc

    def shared_secret(self, private_key: bytes, peer_public_key: bytes) -> bytes:
        private = self._load_private(private_key)
        return self._exchange(private, self._load_peer(peer_public_key))

    def public_key(self, private_key: bytes) -> bytes:
        return (
            self._load_private(private_key)
            .public_key()
            .public_bytes(self._raw_encoding, self._raw_format)
        )

    def shared_secret_many(self, pairs: Sequence[SecretItem]) -> list[bytes | None]:
        # The mix peel is one round key against N ephemerals: 1 load, not N.
        loaded: dict[bytes, object] = {}
        results: list[bytes | None] = []
        for private_key, peer_public_key in pairs:
            try:
                private = loaded.get(private_key)
                if private is None:
                    private = loaded[private_key] = self._load_private(private_key)
                results.append(self._exchange(private, self._load_peer(peer_public_key)))
            except CryptoError:
                results.append(None)
        return results

    def keypair_exchange_many(
        self, private_keys: Sequence[bytes], peer_public_key: bytes
    ) -> list[KeypairExchange]:
        peer = self._load_peer(peer_public_key)
        results: list[KeypairExchange] = []
        for private_key in private_keys:
            private = self._load_private(private_key)
            public = private.public_key().public_bytes(self._raw_encoding, self._raw_format)
            try:
                results.append((public, self._exchange(private, peer)))
            except CryptoError:
                results.append((public, None))
        return results

    def seal(
        self,
        key: bytes,
        plaintext: bytes,
        associated_data: bytes = b"",
        nonce: bytes | None = None,
    ) -> bytes:
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AEAD key must be {KEY_SIZE} bytes, got {len(key)}")
        if nonce is None:
            nonce = random_bytes(NONCE_SIZE)
        elif len(nonce) != NONCE_SIZE:
            raise CryptoError(f"AEAD nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        return nonce + self._aead(key).encrypt(nonce, plaintext, associated_data)

    def open_sealed(self, key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AEAD key must be {KEY_SIZE} bytes, got {len(key)}")
        if len(sealed) < self._aead_overhead:
            raise DecryptionError("sealed box too short")
        nonce, box = sealed[:NONCE_SIZE], sealed[NONCE_SIZE:]
        try:
            return self._aead(key).decrypt(nonce, box, associated_data)
        except self._invalid_tag as exc:
            raise DecryptionError("authentication tag mismatch") from exc

    def ed25519_sign(self, private_key: bytes, message: bytes) -> bytes:
        if len(private_key) != ed25519.KEY_SIZE:
            raise CryptoError(
                f"Ed25519 secret must be {ed25519.KEY_SIZE} bytes, got {len(private_key)}"
            )
        return self._ed_private_key.from_private_bytes(private_key).sign(message)

    def ed25519_verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(public_key) != ed25519.KEY_SIZE or len(signature) != ed25519.SIGNATURE_SIZE:
            return False
        if not ed25519.is_canonical_point(public_key):
            return False  # OpenSSL would decode it anyway (see is_canonical_point)
        try:
            self._ed_public_key.from_public_bytes(public_key).verify(signature, message)
            return True
        except Exception:  # InvalidSignature or a malformed point encoding
            return False

    def ed25519_public_key(self, private_key: bytes) -> bytes:
        if len(private_key) != ed25519.KEY_SIZE:
            raise CryptoError(
                f"Ed25519 secret must be {ed25519.KEY_SIZE} bytes, got {len(private_key)}"
            )
        return (
            self._ed_private_key.from_private_bytes(private_key)
            .public_key()
            .public_bytes(self._raw_encoding, self._raw_format)
        )


# ---------------------------------------------------------------------------
# Registry and the process-wide active backend
# ---------------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], CryptoBackend]] = {}
_AVAILABILITY: dict[str, Callable[[], bool]] = {}
_INSTANCES: dict[str, CryptoBackend] = {}
_ACTIVE: CryptoBackend | None = None

DEFAULT_BACKEND = "pure"


def register_backend(
    name: str,
    factory: Callable[[], CryptoBackend],
    available: Callable[[], bool] | None = None,
) -> None:
    """Register a backend factory under ``name`` (replacing any previous one).

    ``available`` is an optional predicate gating optional dependencies; an
    unavailable backend stays listed by :func:`registered_backends` but
    :func:`get_backend` refuses it with a clear error.
    """
    _FACTORIES[name] = factory
    if available is not None:
        _AVAILABILITY[name] = available
    else:
        _AVAILABILITY.pop(name, None)
    _INSTANCES.pop(name, None)


def registered_backends() -> list[str]:
    """Every registered backend name, available or not."""
    return sorted(_FACTORIES)


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and its optional deps are importable."""
    if name not in _FACTORIES:
        return False
    predicate = _AVAILABILITY.get(name)
    return True if predicate is None else bool(predicate())


def available_backends() -> list[str]:
    """The registered backends whose dependencies are importable right now."""
    return [name for name in registered_backends() if backend_available(name)]


def get_backend(name: str | CryptoBackend) -> CryptoBackend:
    """Resolve a backend name (or pass an instance through) to an instance.

    Instances are process-wide singletons, so a name always resolves to the
    same object: ``deployment.crypto is get_backend(name)``, and
    :func:`use_backend` restores exactly the instance it replaced.
    """
    if isinstance(name, CryptoBackend):
        return name
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown crypto backend {name!r}; registered: {registered_backends()}"
        )
    if not backend_available(name):
        raise ConfigurationError(
            f"crypto backend {name!r} is registered but unavailable (its "
            "optional dependency is not importable); available: "
            f"{available_backends()}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = _FACTORIES[name]()
    return instance


def active_backend() -> CryptoBackend:
    """The backend module-level helpers (``aead.seal``, onion ops) dispatch to."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = get_backend(DEFAULT_BACKEND)
    return _ACTIVE


def set_active_backend(backend: str | CryptoBackend) -> CryptoBackend:
    """Install ``backend`` as the process-wide active backend; returns it."""
    global _ACTIVE
    _ACTIVE = get_backend(backend)
    return _ACTIVE


@contextmanager
def use_backend(backend: str | CryptoBackend):
    """Temporarily switch the active backend (tests, sweeps)."""
    global _ACTIVE
    previous = active_backend()
    _ACTIVE = get_backend(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


register_backend("pure", PureBackend)
register_backend("accelerated", AcceleratedBackend, available=accelerated_available)
