"""Deployment and protocol configuration.

The knobs mirror the parameters the paper's evaluation varies: number of mix
servers and PKGs, noise volumes, mailbox sizing targets, and the number of
dialing intents the application uses (§5.3); dialing mailboxes are built at
the paper's Bloom false-positive rate of 1e-10, and the request size and
round durations are module constants.  ``ibe_backend`` selects between the real
pairing-based IBE and the oracle-based simulation backend used for
large-scale scenario runs (README, "Choosing a crypto backend");
``crypto_backend`` selects the symmetric/X25519 engine every hot path runs
on (see :mod:`repro.crypto.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.mixnet.mailbox import (
    DEFAULT_ADDFRIEND_TARGET_PER_MAILBOX,
    DEFAULT_DIALING_TARGET_PER_MAILBOX,
)
from repro.mixnet.noise import NoiseConfig

# Sizes that determine the fixed request layout for a round.
DIAL_TOKEN_SIZE = 32

#: Add-friend request body: the friend request plus IBE overhead is padded
#: to this length so every request in a round has identical size.
ADDFRIEND_REQUEST_SIZE = 640

#: Round durations in seconds (§8.2: hours for add-friend, minutes for
#: dialing).  Only used by the latency/bandwidth models and the logical
#: clock; the in-process simulator advances rounds explicitly.
ADDFRIEND_ROUND_DURATION = 60 * 60.0
DIALING_ROUND_DURATION = 5 * 60.0


@dataclass
class AlpenhornConfig:
    """All tunables for one Alpenhorn deployment."""

    # Server topology (paper default: 3 mix servers, each also running a PKG).
    num_mix_servers: int = 3
    num_pkg_servers: int = 3

    # IBE backend: "bn254" (real Boneh-Franklin over the pairing) or
    # "simulated" (oracle backend for large-scale protocol simulation).
    ibe_backend: str = "bn254"

    # Crypto engine for the symmetric/X25519 hot path (onion layers, AEAD
    # seals, key exchange): "pure" (stdlib-only reference, the default) or
    # "accelerated" (optional `cryptography` package).  See
    # repro.crypto.engine.
    crypto_backend: str = "pure"

    # Noise configuration (per server, per mailbox).
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    # Mailbox sizing targets (§6, §8.2).
    addfriend_target_per_mailbox: int = DEFAULT_ADDFRIEND_TARGET_PER_MAILBOX
    dialing_target_per_mailbox: int = DEFAULT_DIALING_TARGET_PER_MAILBOX

    # Dialing parameters.
    num_intents: int = 10  # §8.1: "the maximum number of intents was 10"

    # PKG attestation scheme for the PKGSigs field (§4.5): "bls" (the real
    # multi-signature, the default) or "simulated" (hash-based oracle for
    # protocol-scale simulation; same wire sizes, no security).  See
    # repro.crypto.attestation.
    attestation_backend: str = "bls"

    # Sender-side retry (ClientSession outbox): re-enqueue a friend request
    # still unconfirmed this many add-friend rounds after its last
    # submission.  None disables retry, matching the paper's bare library
    # (which leaves retry to the application).
    retry_horizon: int | None = None

    # Dialing retry (ClientSession outbox): a call whose round aborted is
    # re-dialed next round, up to this many total dials per CallHandle
    # (deduped by (friend, intent) so an aborted round never produces two
    # live dials for one intent).  None keeps the handle's terminal FAILED.
    dialing_redial_attempts: int | None = None

    # Entry/CDN front tier (repro.cluster): where envelopes wait.  The
    # EntryServer runs every round at any count, in the coordinator's
    # process; 1 is its in-process front (the "entry"/"cdn" endpoints),
    # N > 1 splits the front into N EntryShard/IngressProxy/CdnShard
    # triples, each owning a contiguous mailbox-ID range behind its own
    # transport endpoints.
    entry_shards: int = 1

    # How many client envelopes each shard's ingress proxy coalesces into
    # one SubmitBatch frame across its access link (cluster mode only; 1
    # forwards every envelope in its own frame).
    ingress_batch_size: int = 16

    # Pin every round's mailbox count instead of sizing it from the queued
    # load (choose_mailbox_count).  The paper's evaluation operates at fixed
    # mailbox counts per operating point; the shard benchmarks pin it so
    # mailbox->shard placement is stable across rounds.
    fixed_mailbox_count: int | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        from repro.crypto.engine import registered_backends

        if self.num_mix_servers < 1:
            raise ConfigurationError("need at least one mix server")
        if self.num_pkg_servers < 1:
            raise ConfigurationError("need at least one PKG server")
        if self.ibe_backend not in ("bn254", "simulated"):
            raise ConfigurationError(
                f"unknown IBE backend {self.ibe_backend!r}; "
                "expected 'bn254' or 'simulated'"
            )
        if self.crypto_backend not in registered_backends():
            raise ConfigurationError(
                f"unknown crypto backend {self.crypto_backend!r}; "
                f"registered: {registered_backends()}"
            )
        from repro.crypto.attestation import registered_schemes

        if self.attestation_backend not in registered_schemes():
            raise ConfigurationError(
                f"unknown attestation backend {self.attestation_backend!r}; "
                f"registered: {registered_schemes()}"
            )
        if min(self.noise.addfriend_b, self.noise.dialing_b) < 0:
            raise ConfigurationError(
                "Laplace noise scale b must be >= 0 (0 is the variance-free evaluation setting)"
            )
        if self.num_intents < 1:
            raise ConfigurationError("need at least one dialing intent")
        if self.retry_horizon is not None and self.retry_horizon < 1:
            raise ConfigurationError("retry_horizon must be >= 1 (or None)")
        if self.dialing_redial_attempts is not None and self.dialing_redial_attempts < 1:
            raise ConfigurationError("dialing_redial_attempts must be >= 1 (or None)")
        if self.entry_shards < 1:
            raise ConfigurationError("need at least one entry shard")
        if self.ingress_batch_size < 1:
            raise ConfigurationError("ingress_batch_size must be >= 1")
        if self.fixed_mailbox_count is not None and self.fixed_mailbox_count < 1:
            raise ConfigurationError("fixed_mailbox_count must be >= 1 (or None)")

    @staticmethod
    def for_tests(num_mix_servers: int = 2, num_pkg_servers: int = 2, backend: str = "bn254") -> "AlpenhornConfig":
        """A small, low-noise configuration for unit and integration tests."""
        return AlpenhornConfig(
            num_mix_servers=num_mix_servers,
            num_pkg_servers=num_pkg_servers,
            ibe_backend=backend,
            noise=NoiseConfig(2, 0, 2, 0),
            addfriend_target_per_mailbox=16,
            dialing_target_per_mailbox=16,
            num_intents=3,
        )
