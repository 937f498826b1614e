"""Tracing from the outside: every in-process span, installed at public seams.

No protocol tier calls the tracer.  ``Deployment.__init__`` calls
:func:`instrument` once; under an active tracer it wraps, on the instances
that deployment built, each seam below in the span the trace has always
carried (untraced, it touches nothing, so an untraced run pays nothing):

* ``RoundEngine.announce`` / ``submit`` / ``mix`` / ``scan`` -- the
  ``stage`` spans, one track per protocol;
* ``Transport.call`` -- one unkept ``transport`` span per RPC, named by its
  method, and ``SimulatedNetwork.call_batch`` -- one per delivery wave;
* the crypto engine (:class:`InstrumentedCryptoBackend`) -- ``crypto``
  spans;
* ``MixServer.process_batch`` -- ``mix.process_batch`` (``mix``);
* ``EntryServer.open_broadcast`` / ``flush_drain`` / ``collect`` -- the
  sharded front's waves, ``shard.<wave>`` (``cluster``);
* ``IngressProxy.flush_batch`` -- ``ingress.flush_batch`` (``cluster``).

A stage span's ``bytes`` is what the transport counted while it ran.  The
base ``Transport.call_batch`` is a loop over the (wrapped) ``call``, and
the real runtimes record one ``rpc.call`` span per call of a wave
themselves (:mod:`repro.runtime` owns its ``rpc.*`` spans because their ids
ride the wire), so only the simulated network's delivery wave gets a span of
its own.  An ``mp`` worker rebuilds its mix servers in another process and
wraps them with :func:`instrument_mix_server` under its own tracer.

:class:`InstrumentedCryptoBackend` is the engine seam: batch calls (the mix
peel's ``open_many``, noise generation's ``seal_many``, ...) become *kept*
spans with item counts, single-item ops feed wall-clock attribution only
(they run thousands of times per round; keeping a span each would swamp the
trace).  The tracer folds every crypto span into per-op call/item/wall
totals (``Tracer.report()["crypto_ops"]``).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.crypto.engine import (
    CryptoBackend,
    KeypairExchange,
    OpenItem,
    SealItem,
    SecretItem,
    set_active_backend,
)
from repro.net.rpc import CONTROL_SRC
from repro.net.simulated import SimulatedNetwork
from repro.obs.trace import (
    CATEGORY_CLUSTER,
    CATEGORY_CRYPTO,
    CATEGORY_MIX,
    CATEGORY_STAGE,
    CATEGORY_TRANSPORT,
    Tracer,
    active_tracer,
)

__all__ = ["InstrumentedCryptoBackend", "instrument", "instrument_mix_server"]


def instrument(deployment) -> None:
    """Wrap every traced seam of a freshly built ``deployment`` for the
    active tracer, whose simulated clock becomes the deployment's transport
    clock; a no-op when no tracer is active."""
    tracer = active_tracer()
    if tracer is None:
        return
    tracer.bind_clock(deployment.transport.now)
    deployment.crypto = InstrumentedCryptoBackend(deployment.crypto, tracer)
    set_active_backend(deployment.crypto)
    _span_transport(tracer, deployment.transport)
    for mix in deployment.mix_servers:
        instrument_mix_server(mix, tracer)
    entry = deployment.entry
    for wave in ("open_broadcast", "flush_drain", "collect"):
        _span_shard_wave(tracer, entry, wave)
    for proxy in deployment.ingress_proxies:
        _span_ingress_flush(tracer, proxy)
    for protocol in ("add-friend", "dialing"):
        for stage, (start_args, end_args) in _STAGE_ARGS.items():
            _span_stage(tracer, deployment.round_engine(protocol), stage, start_args, end_args)


def instrument_mix_server(server, tracer: Tracer) -> None:
    """Wrap one mix server's engine and ``process_batch`` for ``tracer``."""
    if server.engine is not None:
        server.engine = InstrumentedCryptoBackend(server.engine, tracer)
    inner = server.process_batch

    def process_batch(round_number, protocol, envelopes, *args, **kwargs):
        with tracer.span(
            "mix.process_batch",
            category=CATEGORY_MIX,
            track=server.name,
            protocol=protocol,
            round=round_number,
            server=server.name,
            received=len(envelopes),
        ) as span:
            peeled = inner(round_number, protocol, envelopes, *args, **kwargs)
            span.set(dropped=server.last_stats.dropped, noise=server.last_stats.noise_added)
        return peeled

    server.process_batch = process_batch


def _span_transport(tracer: Tracer, transport) -> None:
    call = transport.call

    def traced_call(src, dst, method, payload=b"", *, timeout_s=None):
        with tracer.span(method, category=CATEGORY_TRANSPORT, keep=False):
            return call(src, dst, method, payload, timeout_s=timeout_s)

    transport.call = traced_call
    if not isinstance(transport, SimulatedNetwork):
        return
    call_batch = transport.call_batch

    def traced_call_batch(calls):
        if not calls:
            return call_batch(calls)
        with tracer.span("call_batch", category=CATEGORY_TRANSPORT, keep=False):
            return call_batch(calls)

    transport.call_batch = traced_call_batch


#: The sharded front's waves and the span arguments their results give.
_SHARD_WAVE_ARGS: dict[str, Callable[[Any], dict]] = {
    "open_broadcast": lambda _none: {},
    "flush_drain": lambda rejected: {"rejected": len(rejected)},
    "collect": lambda per_shard: {"envelopes": sum(len(batch) for batch in per_shard)},
}


def _span_shard_wave(tracer: Tracer, entry, wave: str) -> None:
    inner = getattr(entry, wave)

    def traced(protocol, round_number, *args):
        with tracer.span(
            f"shard.{wave}",
            category=CATEGORY_CLUSTER,
            track=CONTROL_SRC,
            protocol=protocol,
            round=round_number,
            shards=entry.shard_count,
        ) as span:
            returned = inner(protocol, round_number, *args)
            span.set(**_SHARD_WAVE_ARGS[wave](returned))
        return returned

    setattr(entry, wave, traced)


def _span_ingress_flush(tracer: Tracer, proxy) -> None:
    inner = proxy.flush_batch

    def flush_batch(protocol, round_number, batch):
        with tracer.span(
            "ingress.flush_batch",
            category=CATEGORY_CLUSTER,
            track=proxy.name,
            protocol=protocol,
            round=round_number,
            proxy=proxy.name,
            envelopes=len(batch),
        ) as span:
            rejects = inner(protocol, round_number, batch)
            span.set(rejected=len(rejects))
        return rejects

    proxy.flush_batch = flush_batch


#: Round stage -> (span arguments at its start, closing arguments given the
#: pending round and what the stage returned -- ``None`` when it raised).
_STAGE_ARGS: dict[str, tuple[Callable, Callable]] = {
    "announce": (
        lambda pending: {},
        lambda pending, _none: {"aborted": True} if pending.failure is not None else {},
    ),
    "submit": (
        lambda pending: {"clients": len(pending.clients)},
        lambda pending, _none: {
            "submitted": len(pending.participated), "failures": pending.failures,
        },
    ),
    "mix": (
        lambda pending: {},
        lambda pending, mixed: {"aborted": True} if mixed is None else {"submissions": mixed.submitted},
    ),
    "scan": (
        lambda pending: {"clients": len(pending.participated)},
        lambda pending, _events: {},
    ),
}


def _span_stage(tracer: Tracer, engine, stage: str, start_args, end_args) -> None:
    inner = getattr(engine, stage)
    protocol = engine.driver.protocol
    transport = engine.dep.transport

    def traced(pending):
        bytes_before = transport.stats.bytes_sent
        span = tracer.start(
            stage,
            category=CATEGORY_STAGE,
            track=protocol,
            protocol=protocol,
            round=pending.round_number,
            **start_args(pending),
        )
        returned = None
        try:
            returned = inner(pending)
            return returned
        finally:
            tracer.end(
                span,
                bytes=transport.stats.bytes_sent - bytes_before,
                **end_args(pending, returned),
            )

    setattr(engine, stage, traced)


class InstrumentedCryptoBackend(CryptoBackend):
    """Times every engine call against ``tracer``; byte-transparent."""

    def __init__(self, inner: CryptoBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    # -- single-item ops: attribution only ---------------------------------
    def _single(self, op: str, func, *args) -> Any:
        tracer = self.tracer
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
        tracer = self.tracer
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
