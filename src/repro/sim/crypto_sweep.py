"""Per-operation crypto-engine microbenchmarks (the ``crypto`` experiment's
``per_op`` section).

µs per AEAD seal/open, X25519 shared secret and public-key derivation for one
backend, single and batched, measured on the add-friend request size.  The
headline ratio (accelerated vs pure seal/open) is what justifies gating a real
deployment on the optional ``cryptography`` package.
"""

from __future__ import annotations

import time

from repro.crypto.engine import get_backend

#: The fixed-size add-friend request body (AlpenhornConfig default): the
#: payload AEAD ops on the hot path actually see.
PAYLOAD_SIZE = 640
BATCH_SIZE = 256


def _time_per_call(fn, *, min_seconds: float = 0.05, min_iterations: int = 3) -> float:
    """Seconds per ``fn()`` call, repeated until the sample is meaningful."""
    iterations = 0
    started = time.perf_counter()
    while True:
        fn()
        iterations += 1
        elapsed = time.perf_counter() - started
        if iterations >= min_iterations and elapsed >= min_seconds:
            return elapsed / iterations


def measure_per_op(backend_name: str, payload_size: int = PAYLOAD_SIZE, batch: int = BATCH_SIZE) -> dict:
    """Per-operation timings (µs) for one backend, single-item and batched."""
    backend = get_backend(backend_name)
    key = bytes(range(32))
    nonce = bytes(12)
    payload = b"\x5a" * payload_size
    associated = b"bench/aad"
    sealed = backend.seal(key, payload, associated, nonce)
    private = bytes(range(1, 33))
    peer_public = backend.public_key(bytes(range(2, 34)))

    seal_s = _time_per_call(lambda: backend.seal(key, payload, associated, nonce))
    open_s = _time_per_call(lambda: backend.open_sealed(key, sealed, associated))
    secret_s = _time_per_call(lambda: backend.shared_secret(private, peer_public))
    public_s = _time_per_call(lambda: backend.public_key(private))

    seal_items = [(key, payload, associated, nonce)] * batch
    open_items = [(key, sealed, associated)] * batch
    secret_items = [(private, peer_public)] * batch
    seal_many_s = _time_per_call(lambda: backend.seal_many(seal_items), min_iterations=1)
    open_many_s = _time_per_call(lambda: backend.open_many(open_items), min_iterations=1)
    secret_many_s = _time_per_call(
        lambda: backend.shared_secret_many(secret_items), min_iterations=1
    )

    return {
        "backend": backend_name,
        "payload_bytes": payload_size,
        "batch": batch,
        "seal_us": round(seal_s * 1e6, 3),
        "open_us": round(open_s * 1e6, 3),
        "shared_secret_us": round(secret_s * 1e6, 3),
        "public_key_us": round(public_s * 1e6, 3),
        "seal_many_us_per_op": round(seal_many_s / batch * 1e6, 3),
        "open_many_us_per_op": round(open_many_s / batch * 1e6, 3),
        "shared_secret_many_us_per_op": round(secret_many_s / batch * 1e6, 3),
    }
