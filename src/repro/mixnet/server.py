"""A single mix server: peel, add noise, shuffle, forward (§6).

Each server in the chain performs three steps on every batch it receives:

1. decrypt its onion layer from every envelope (dropping malformed ones),
2. append its own noise envelopes, wrapped for the remaining servers, and
3. apply a fresh random permutation before handing the batch on.

The per-round statistics (how many requests were dropped, how much noise
was added) are kept for the latency model and for failure-injection tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.engine import CryptoBackend, active_backend
from repro.mixnet.noise import NoiseConfig, noise_counts_per_mailbox
from repro.mixnet.onion import OnionKeyPair, unwrap_layers, wrap_onion_many
from repro.errors import RoundError
from repro.utils.rng import DeterministicRng, random_bytes
from repro.utils.serialization import U32, Bytes, Message


@dataclass
class MixServerStats:
    """Per-round accounting for one server."""

    received: int = 0
    dropped: int = 0
    noise_added: int = 0


#: The innermost plaintext: destination mailbox plus the request body.
INNER_PAYLOAD = Message("inner_payload", U32("mailbox_id"), Bytes("body"))
encode_inner_payload = INNER_PAYLOAD.encode


class MixServer:
    """One server in the anytrust mix chain.

    Round keys are namespaced by ``(protocol, round_number)``: the add-friend
    and dialing protocols advance independent round counters, so round N of
    one protocol can be in flight while round N of the other is aborted, and
    neither may touch the other's onion keys.
    """

    def __init__(
        self,
        name: str,
        rng: DeterministicRng | None = None,
        engine: CryptoBackend | None = None,
    ) -> None:
        self.name = name
        self.rng = rng if rng is not None else DeterministicRng(random_bytes(32))
        #: The crypto backend this server peels and wraps with (None = the
        #: process-wide active backend, resolved per batch).
        self.engine = engine
        self._round_keys: dict[tuple[str, int], OnionKeyPair] = {}
        self.last_stats: MixServerStats = MixServerStats()

    # -- round keys --------------------------------------------------------
    def open_round(self, protocol: str, round_number: int) -> bytes:
        """Generate the round's onion key pair; returns the public key."""
        key = (protocol, round_number)
        if key not in self._round_keys:
            self._round_keys[key] = OnionKeyPair.generate(self.engine)
        return self._round_keys[key].public

    def round_public_key(self, protocol: str, round_number: int) -> bytes:
        keypair = self._round_keys.get((protocol, round_number))
        if keypair is None:
            raise RoundError(f"{protocol} round {round_number} is not open on {self.name}")
        return keypair.public

    def close_round(self, protocol: str, round_number: int) -> None:
        """Erase the round's private key (forward secrecy)."""
        self._round_keys.pop((protocol, round_number), None)

    def has_round_key(self, protocol: str, round_number: int) -> bool:
        return (protocol, round_number) in self._round_keys

    # -- batch processing ----------------------------------------------------
    def _make_noise_payload(self, protocol: str, mailbox_id: int, body_length: int) -> bytes:
        """A noise request: random bytes of the right shape for the protocol."""
        return encode_inner_payload(mailbox_id, random_bytes(body_length))

    def process_batch(
        self,
        round_number: int,
        protocol: str,
        envelopes: list[bytes],
        downstream_publics: list[bytes],
        mailbox_count: int,
        noise_config: NoiseConfig,
        noise_body_length: int,
    ) -> list[bytes]:
        """Peel one layer from a batch, add noise, shuffle, and return it.

        Both the peel and the noise wrap go through the engine's batch APIs
        (``open_many`` underneath :func:`unwrap_layers`, ``seal_many``
        underneath :func:`wrap_onion_many`), so an accelerated or multi-core
        backend processes the whole round's envelopes in a handful of calls.
        """
        keypair = self._round_keys.get((protocol, round_number))
        if keypair is None:
            raise RoundError(f"{protocol} round {round_number} is not open on {self.name}")
        engine = self.engine if self.engine is not None else active_backend()

        stats = MixServerStats(received=len(envelopes))
        peeled = [item for item in unwrap_layers(envelopes, keypair, engine) if item is not None]
        stats.dropped = len(envelopes) - len(peeled)

        counts = noise_counts_per_mailbox(noise_config, protocol, mailbox_count, self.rng)
        noise_payloads = [
            self._make_noise_payload(protocol, mailbox_id, noise_body_length)
            for mailbox_id, count in enumerate(counts)
            for _ in range(count)
        ]
        if downstream_publics:
            noise_payloads = wrap_onion_many(noise_payloads, downstream_publics, engine)
        peeled.extend(noise_payloads)
        stats.noise_added = len(noise_payloads)

        self.rng.shuffle(peeled)
        self.last_stats = stats
        return peeled

    # -- transport dispatch --------------------------------------------------
    def handle_rpc(self, request):
        """Serve one framed RPC (see ``repro/net/rpc.py`` for the layouts)."""
        from repro.errors import NetworkError
        from repro.net import rpc
        from repro.net.transport import RpcResult

        if request.method == "process_batch":
            (
                round_number,
                protocol,
                mailbox_count,
                noise_body_length,
                *noise,
                downstream_publics,
                envelopes,
            ) = rpc.PROCESS_BATCH_REQUEST.decode(request.payload)
            batch = self.process_batch(
                round_number=round_number,
                protocol=protocol,
                envelopes=envelopes,
                downstream_publics=downstream_publics,
                mailbox_count=mailbox_count,
                noise_config=NoiseConfig(*noise),
                noise_body_length=noise_body_length,
            )
            stats = self.last_stats
            return RpcResult(
                payload=rpc.PROCESS_BATCH_RESPONSE.encode(
                    stats.received, stats.dropped, stats.noise_added, batch
                )
            )

        protocol, round_number = rpc.ROUND_REF.decode(request.payload)
        if request.method == "open_round":
            key = self.open_round(protocol, round_number)
            return RpcResult(payload=rpc.ROUND_KEY_REPLY.encode(key))
        if request.method == "round_public_key":
            key = self.round_public_key(protocol, round_number)
            return RpcResult(payload=rpc.ROUND_KEY_REPLY.encode(key))
        if request.method == "close_round":
            self.close_round(protocol, round_number)
            return RpcResult()
        raise NetworkError(f"mix server {self.name} has no RPC method {request.method!r}")
