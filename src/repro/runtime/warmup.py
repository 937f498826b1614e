"""OpenSSL, warmed once in the ``mp`` forkserver instead of in every worker.

:data:`repro.runtime.mp._FORKSERVER_PRELOAD` names this module, so the
forkserver imports it before it forks any worker.  OpenSSL seeds its random
generator and fetches each algorithm on first use: about 1.5 ms that every
worker would otherwise pay in its first ``open_round``, one worker after
another.  :func:`warm` makes those first uses here, through the calls the
accelerated backend makes (an X25519 key load, public-key export and
exchange; a ChaCha20-Poly1305 seal and open), on throwaway keys.  The keys
are its locals, so no module global keeps them in the memory every worker
inherits.  Importing the module anywhere else costs that millisecond and
nothing more; without ``cryptography`` it does nothing.
"""

from __future__ import annotations

import os


def warm() -> None:
    try:
        from cryptography.hazmat.primitives.asymmetric.x25519 import (
            X25519PrivateKey,
            X25519PublicKey,
        )
        from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
        from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
    except ImportError:
        return
    private = X25519PrivateKey.from_private_bytes(os.urandom(32))
    public = private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    aead = ChaCha20Poly1305(private.exchange(X25519PublicKey.from_public_bytes(public)))
    nonce = bytes(12)
    aead.decrypt(nonce, aead.encrypt(nonce, b"", b""), b"")


warm()
