"""Layer probes: isolated calls into each package's public functions.

One number per rung under the workloads -- crypto op, onion wrap/peel,
``process_batch`` per 1k envelopes, server handlers, frame/wire codecs,
scheduler, socket round trips -- on synthetic input, so a later change to
one layer has a number of its own to move.  README.md lists which
end-to-end metric each probe should move, and on which workload.

Every timing is the median of ``REPS`` repetitions; batch sizes are small
enough that all probes together take about ten seconds.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.cdn.cdn import Cdn
from repro.core.keywheel import Keywheel
from repro.crypto import bn254
from repro.crypto.attestation import get_scheme
from repro.crypto.engine import get_backend, use_backend
from repro.crypto.ibe.anytrust import AnytrustIbe
from repro.crypto.ibe.boneh_franklin import BonehFranklinIbe
from repro.crypto.ibe.simulated import SimulatedIbe, SimulatedPkgOracle
from repro.emailsim.provider import EmailNetwork
from repro.entry.server import EntryServer
from repro.mixnet.chain import MixChain
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.onion import OnionKeyPair, unwrap_layers, wrap_onion_many
from repro.mixnet.server import MixServer, encode_inner_payload
from repro.net.frames import (
    KIND_REQUEST,
    Frame,
    decode_envelope_batch,
    encode_envelope_batch,
)
from repro.net.rpc import MixStub
from repro.net.scheduler import EventScheduler
from repro.net.simulated import SimulatedNetwork
from repro.net.transport import BatchCall, DirectTransport
from repro.pkg.server import PkgServer, extraction_request_statement
from repro.primitives.bloom import BloomFilter
from repro.runtime import AsyncioTransport, MultiprocessTransport, mix_endpoint_spec, wire
from repro.sim.scenarios import make_scenario
from repro.utils.rng import DeterministicRng

REPS = 3
#: ``AlpenhornConfig.addfriend_request_size``: the body every probe seals.
BODY = 640
NOISE = NoiseConfig(4, 1, 4, 1)


def _median_s(run, reps: int = REPS, prepare=None) -> float:
    """Median wall seconds of ``run(prepared)`` over ``reps`` repetitions."""
    walls = []
    for _ in range(reps):
        args = (prepare(),) if prepare is not None else ()
        started = time.perf_counter()
        run(*args)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def _percentile(sorted_walls: list[float], q: float) -> float:
    return sorted_walls[min(len(sorted_walls) - 1, int(q * len(sorted_walls)))]


# --------------------------------------------------------------------------- #
# crypto: the symmetric/X25519 engine, per backend
# --------------------------------------------------------------------------- #
def crypto_engine(backend_name: str, n: int, n_sign: int) -> dict[str, float]:
    engine = get_backend(backend_name)
    rng = DeterministicRng(f"ladder/probe/{backend_name}")
    keys = [rng.read(32) for _ in range(n)]
    bodies = [rng.read(BODY) for _ in range(n)]
    seal_items = [(key, body, b"", rng.read(12)) for key, body in zip(keys, bodies)]
    sealed = engine.seal_many(seal_items)
    open_items = [(key, box, b"") for key, box in zip(keys, sealed)]
    publics = engine.public_key_many(keys)
    pairs = list(zip(keys, reversed(publics)))
    sign_key = rng.read(32)
    verify_key = engine.ed25519_public_key(sign_key)
    message = rng.read(64)
    signature = engine.ed25519_sign(sign_key, message)

    def sign_loop():
        for _ in range(n_sign):
            engine.ed25519_sign(sign_key, message)

    def verify_loop():
        for _ in range(n_sign):
            engine.ed25519_verify(verify_key, message, signature)

    us = 1e6
    return {
        f"crypto.seal_us.{backend_name}": _median_s(lambda: engine.seal_many(seal_items)) / n * us,
        f"crypto.open_us.{backend_name}": _median_s(lambda: engine.open_many(open_items)) / n * us,
        f"crypto.x25519_us.{backend_name}": _median_s(lambda: engine.shared_secret_many(pairs)) / n * us,
        f"crypto.x25519_pub_us.{backend_name}": _median_s(lambda: engine.public_key_many(keys)) / n * us,
        f"crypto.ed25519_sign_us.{backend_name}": _median_s(sign_loop) / n_sign * us,
        f"crypto.ed25519_verify_us.{backend_name}": _median_s(verify_loop) / n_sign * us,
    }


# --------------------------------------------------------------------------- #
# crypto: the pairing stack (BN254, Boneh-Franklin over 2 PKGs, BLS)
# --------------------------------------------------------------------------- #
def crypto_pairing() -> dict[str, float]:
    g1, g2 = bn254.g1_generator(), bn254.g2_generator()
    scalar = int.from_bytes(DeterministicRng("ladder/probe/scalar").read(32), "big") % bn254.CURVE_ORDER
    ibe = AnytrustIbe(BonehFranklinIbe())
    rng = DeterministicRng("ladder/probe/ibe")
    masters = ibe.generate_pkg_keypairs(2, seeds=[rng.read(32), rng.read(32)])
    publics = [m.public for m in masters]
    identity = "probe@ladder.example.org"
    shares = [ibe.extract_share(m, identity) for m in masters]
    body = rng.read(BODY - ibe.ciphertext_overhead())
    ciphertext = ibe.encrypt(publics, identity, body)
    if ibe.decrypt(shares, ciphertext) != body:
        raise AssertionError("IBE probe did not round-trip")
    bls = get_scheme("bls")
    signer = PkgServer("pkg-probe", BonehFranklinIbe(), EmailNetwork(), bls_seed=rng.read(32))
    secret, public = signer.signing_keypair.secret, signer.signing_keypair.public
    statement = rng.read(96)
    aggregate = bls.aggregate([bls.attest(secret, public, statement)])
    aggregate_public = bls.aggregate_publics([public])
    if not bls.verify(aggregate_public, statement, aggregate):
        raise AssertionError("BLS probe did not verify")
    ms = 1e3
    return {
        "crypto.pairing_ms": _median_s(lambda: bn254.pairing(g1, g2)) * ms,
        "crypto.g1_mul_ms": _median_s(lambda: g1.scalar_mul(scalar)) * ms,
        "crypto.g2_mul_ms": _median_s(lambda: g2.scalar_mul(scalar)) * ms,
        "crypto.ibe_encrypt_ms": _median_s(lambda: ibe.encrypt(publics, identity, body)) * ms,
        "crypto.ibe_decrypt_ms": _median_s(lambda: ibe.decrypt(shares, ciphertext)) * ms,
        "crypto.ibe_extract_ms": _median_s(lambda: ibe.extract_share(masters[0], identity)) * ms,
        "crypto.bls_attest_ms": _median_s(lambda: bls.attest(secret, public, statement)) * ms,
        "crypto.bls_verify_ms": _median_s(lambda: bls.verify(aggregate_public, statement, aggregate)) * ms,
    }


# --------------------------------------------------------------------------- #
# mixnet: onion wrap/peel per envelope, process_batch and run_round per 1k
# --------------------------------------------------------------------------- #
def _inner_payloads(n: int, body_length: int, mailbox_count: int, rng) -> list[bytes]:
    return [encode_inner_payload(i % mailbox_count, rng.read(body_length)) for i in range(n)]


def mixnet_onion(backend_name: str, n: int) -> dict[str, float]:
    engine = get_backend(backend_name)
    rng = DeterministicRng(f"ladder/probe/onion/{backend_name}")
    hops = [OnionKeyPair.generate(engine) for _ in range(2)]
    publics = [hop.public for hop in hops]
    payloads = _inner_payloads(n, BODY, 8, rng)
    envelopes = wrap_onion_many(payloads, publics, engine)
    if unwrap_layers(unwrap_layers(envelopes, hops[0], engine), hops[1], engine) != payloads:
        raise AssertionError("onion probe did not round-trip")
    us = 1e6
    return {
        f"mixnet.wrap_us_per_env.{backend_name}": _median_s(
            lambda: wrap_onion_many(payloads, publics, engine)
        ) / n * us,
        # One layer, as a mix server peels it.
        f"mixnet.peel_us_per_env.{backend_name}": _median_s(
            lambda: unwrap_layers(envelopes, hops[0], engine)
        ) / n * us,
    }


def mixnet_batch(n: int) -> dict[str, float]:
    """``MixServer.process_batch`` (one hop) and ``MixChain.run_round`` (two
    hops plus mailbox building) on the accelerated engine, per 1000 envelopes."""
    engine = get_backend("accelerated")
    metrics: dict[str, float] = {}
    mailboxes = 8
    for short, protocol, body_length in (("addfriend", "add-friend", BODY), ("dialing", "dialing", 32)):
        rng = DeterministicRng(f"ladder/probe/batch/{protocol}")
        servers = [
            MixServer(f"mix{i}", rng=DeterministicRng(f"ladder/probe/mix/{i}"), engine=engine)
            for i in range(2)
        ]
        chain = MixChain(servers, noise_config=NOISE)
        payloads = _inner_payloads(n, body_length, mailboxes, rng)
        round_counter = iter(range(1, 1000))

        def open_round():
            number = next(round_counter)
            publics = chain.open_round(protocol, number)
            return number, publics, wrap_onion_many(payloads, publics, engine)

        def one_hop(prepared):
            number, publics, envelopes = prepared
            out = servers[0].process_batch(
                round_number=number,
                protocol=protocol,
                envelopes=envelopes,
                downstream_publics=publics[1:],
                mailbox_count=mailboxes,
                noise_config=NOISE,
                noise_body_length=body_length,
            )
            if len(out) < n:
                raise AssertionError("process_batch probe dropped envelopes")

        def whole_round(prepared):
            number, _publics, envelopes = prepared
            result = chain.run_round(number, protocol, envelopes, mailboxes, body_length)
            if result.delivered_real != n:
                raise AssertionError("run_round probe lost envelopes")

        per_1k = 1e3 * 1000 / n
        metrics[f"mixnet.process_batch_ms_per_1k.{short}"] = _median_s(one_hop, prepare=open_round) * per_1k
        metrics[f"mixnet.run_round_ms_per_1k.{short}"] = _median_s(whole_round, prepare=open_round) * per_1k
    return metrics


# --------------------------------------------------------------------------- #
# primitives, core
# --------------------------------------------------------------------------- #
def primitives_bloom(n: int) -> dict[str, float]:
    rng = DeterministicRng("ladder/probe/bloom")
    tokens = [rng.read(32) for _ in range(n)]
    absent = [rng.read(32) for _ in range(n)]
    filled = BloomFilter.for_expected_items(n, 1e-10)
    filled.update(tokens)

    def query():
        hits = sum(1 for token in tokens if token in filled)
        hits += sum(1 for token in absent if token in filled)
        if hits != n:
            raise AssertionError("Bloom probe: wrong membership count")

    us = 1e6
    return {
        "primitives.bloom_add_us": _median_s(
            lambda: BloomFilter.for_expected_items(n, 1e-10).update(tokens)
        ) / n * us,
        "primitives.bloom_query_us": _median_s(query) / (2 * n) * us,
    }


def core_keywheel(friends: int, intents: int) -> dict[str, float]:
    """The paper's client-CPU claim: 1000 friends x 10 intents in < 1 s."""
    rng = DeterministicRng("ladder/probe/keywheel")
    wheel = Keywheel()
    for i in range(friends):
        wheel.add_friend(f"friend{i}@ladder.example.org", rng.read(32), 1)
    target = iter(range(2, 1000))
    us = 1e6
    advance = _median_s(lambda: wheel.advance_to(next(target))) / friends * us
    current = wheel.entry("friend0@ladder.example.org").round_number

    def expected():
        if len(wheel.expected_tokens(current, intents)) != friends * intents:
            raise AssertionError("keywheel probe: token collision")

    return {
        "core.keywheel_advance_us_per_friend": advance,
        "core.expected_tokens_us_per_friend": _median_s(expected) / friends * us,
    }


# --------------------------------------------------------------------------- #
# pkg, entry, cdn: server handlers on an open round
# --------------------------------------------------------------------------- #
def pkg_extract(n: int) -> dict[str, float]:
    """``PkgServer.extract`` as the scenarios run it (simulated IBE and
    attestation, accelerated engine) and as ``lib-realcrypto`` runs it
    (BN254 share + BLS attestation, pure engine)."""
    metrics = {}
    for label, ibe, scheme, engine_name, count in (
        ("simulated", SimulatedIbe(SimulatedPkgOracle()), "simulated", "accelerated", n),
        ("bn254", BonehFranklinIbe(), "bls", "pure", 3),
    ):
        engine = get_backend(engine_name)
        rng = DeterministicRng(f"ladder/probe/pkg/{label}")
        emails = EmailNetwork()
        pkg = PkgServer("pkg0", ibe, emails, bls_seed=rng.read(32), attestation=get_scheme(scheme))
        users = []
        for i in range(count):
            email = f"user{i}@ladder.example.org"
            emails.ensure_provider(email)
            private = rng.read(32)
            pkg.begin_registration(email, engine.ed25519_public_key(private), now=0.0)
            pkg.confirm_registration(email, emails.read_inbox(email)[-1].body, now=0.0)
            signature = engine.ed25519_sign(private, extraction_request_statement(email, 1))
            users.append((email, signature))
        pkg.open_round(1)

        def extract_all():
            for email, signature in users:
                pkg.extract(email, 1, signature, now=1.0)

        with use_backend(engine):  # the handler verifies on the active engine
            metrics[f"pkg.extract_ms.{label}"] = _median_s(extract_all) / count * 1e3
    return metrics


def entry_and_cdn(n: int) -> dict[str, float]:
    engine = get_backend("accelerated")
    rng = DeterministicRng("ladder/probe/entry")
    servers = [
        MixServer(f"mix{i}", rng=DeterministicRng(f"ladder/probe/entry/mix/{i}"), engine=engine)
        for i in range(2)
    ]
    entry = EntryServer(MixChain(servers, noise_config=NOISE))
    mailboxes = 8
    payloads = _inner_payloads(n, 32, mailboxes, rng)
    round_counter = iter(range(1, 1000))

    def announce():
        number = next(round_counter)
        announcement = entry.announce_round("dialing", number, mailboxes, 32)
        return number, wrap_onion_many(payloads, announcement.mix_public_keys, engine)

    def submit_all(prepared):
        number, envelopes = prepared
        for i, envelope in enumerate(envelopes):
            entry.submit("dialing", number, f"client{i}", envelope)
        if entry.submissions("dialing", number) != n:
            raise AssertionError("entry probe lost submissions")

    submit_us = _median_s(submit_all, prepare=announce) / n * 1e6

    number, envelopes = announce()
    submit_all((number, envelopes))
    cdn = Cdn()
    cdn.publish(entry.close_round("dialing", number).mailboxes)

    def download_all():
        for i in range(n):
            if cdn.download_blob("dialing", number, i % mailboxes, f"client{i}") is None:
                raise AssertionError("cdn probe: empty mailbox")

    return {
        "entry.submit_us": submit_us,
        "cdn.download_us": _median_s(download_all) / n * 1e6,
    }


# --------------------------------------------------------------------------- #
# net: frame codec, in-process transports, the event scheduler
# --------------------------------------------------------------------------- #
def _echo(request):
    return request.payload


def net_layer(n: int, n_batch: int) -> dict[str, float]:
    frame = Frame(KIND_REQUEST, 7, "client@ladder.example.org", "entry", "submit", os.urandom(BODY))
    encoded = frame.to_bytes()

    def encode_loop():
        for _ in range(n):
            frame.to_bytes()

    def decode_loop():
        for _ in range(n):
            Frame.from_bytes(encoded)

    direct = DirectTransport()
    direct.register("echo", _echo)
    # The baseline scenario's topology: 40 ms jittered client links.
    topology = make_scenario("baseline", num_clients=n_batch).build_topology()
    sim = SimulatedNetwork(topology=topology, seed="ladder/probe/net")
    sim.register("echo", _echo)

    def call_loop(transport):
        def loop():
            for _ in range(n):
                transport.call("client", "echo", "ping", b"")

        return loop

    wave = [BatchCall(f"client{i}", "echo", "ping", b"") for i in range(n_batch)]

    def scheduler_run():
        scheduler = EventScheduler()
        for i in range(n_batch):
            scheduler.schedule(i * 1e-6, _noop)
        scheduler.run_until_idle()
        if scheduler.events_processed != n_batch:
            raise AssertionError("scheduler probe lost events")

    us = 1e6
    return {
        "net.frame_encode_us": _median_s(encode_loop) / n * us,
        "net.frame_decode_us": _median_s(decode_loop) / n * us,
        "net.direct_call_us": _median_s(call_loop(direct)) / n * us,
        "net.sim_call_us": _median_s(call_loop(sim)) / n * us,
        "net.sim_call_batch_us_per_call": _median_s(lambda: sim.call_batch(wave)) / n_batch * us,
        "net.scheduler_events_per_s": n_batch / _median_s(scheduler_run),
    }


def _noop() -> None:
    pass


# --------------------------------------------------------------------------- #
# runtime: wire codec, localhost TCP round trips, worker spawn/close
# --------------------------------------------------------------------------- #
def _rtt_walls(call, count: int) -> list[float]:
    walls = []
    for _ in range(count):
        started = time.perf_counter()
        call()
        walls.append(time.perf_counter() - started)
    return sorted(walls)


def runtime_layer(n: int, n_rtt: int, n_large: int, spawns: int) -> dict[str, float]:
    frame = Frame(KIND_REQUEST, 7, "client@ladder.example.org", "entry", "submit", os.urandom(BODY))
    body = wire.encode_message(frame)

    def encode_loop():
        for _ in range(n):
            wire.encode_message(frame)

    def decode_loop():
        for _ in range(n):
            wire.decode_message(body)

    us = 1e6
    metrics = {
        "runtime.wire_encode_us": _median_s(encode_loop) / n * us,
        "runtime.wire_decode_us": _median_s(decode_loop) / n * us,
    }

    # Sequential calls on one pooled connection: per-message socket cost.
    small, large = os.urandom(64), os.urandom(64 * 1024)
    with AsyncioTransport() as transport:
        transport.register("echo", _echo)
        transport.call("client", "echo", "ping", small)  # connect before timing
        walls = _rtt_walls(lambda: transport.call("client", "echo", "ping", small), n_rtt)
        metrics["runtime.asyncio_rtt_us.p50"] = _percentile(walls, 0.50) * us
        metrics["runtime.asyncio_rtt_us.p99"] = _percentile(walls, 0.99) * us
        walls = _rtt_walls(lambda: transport.call("client", "echo", "ping", large), n_large)
        metrics["runtime.asyncio_rtt_64k_us.p50"] = _percentile(walls, 0.50) * us

    # A mix server in a spawned worker, reached through its stub.
    spawn_walls, close_walls = [], []
    for index in range(spawns):
        started = time.perf_counter()
        transport = MultiprocessTransport(
            [[mix_endpoint_spec("mix0", "ladder/probe/mp", "accelerated")]]
        )
        spawn_walls.append(time.perf_counter() - started)
        try:
            if index == 0:
                stub = MixStub(transport, "mix0", src="probe")
                stub.open_round("dialing", 1)
                walls = _rtt_walls(lambda: stub.round_public_key("dialing", 1), n_rtt)
                metrics["runtime.mp_rtt_us.p50"] = _percentile(walls, 0.50) * us
        finally:
            started = time.perf_counter()
            transport.close()
            close_walls.append(time.perf_counter() - started)
    metrics["runtime.mp_spawn_s"] = statistics.median(spawn_walls)
    metrics["runtime.mp_close_s"] = statistics.median(close_walls)
    return metrics


# --------------------------------------------------------------------------- #
# utils, obs
# --------------------------------------------------------------------------- #
def utils_codec(n: int) -> dict[str, float]:
    envelopes = [os.urandom(BODY + 96) for _ in range(n)]
    encoded = encode_envelope_batch(envelopes)
    if decode_envelope_batch(encoded) != envelopes:
        raise AssertionError("envelope batch probe did not round-trip")
    per_1k = 1e6 * 1000 / n
    return {
        "utils.envelope_batch_encode_us_per_1k": _median_s(lambda: encode_envelope_batch(envelopes)) * per_1k,
        "utils.envelope_batch_decode_us_per_1k": _median_s(lambda: decode_envelope_batch(encoded)) * per_1k,
    }


def obs_tracer_overhead(clients: int, pairs: int) -> dict[str, float]:
    """The in-program ``repro.obs`` tracer's cost on a small baseline run:
    the only place the benchmark touches it (ROADMAP aim 4 puts its overhead
    on the ladder)."""
    from repro.obs.trace import Tracer, active_tracer, set_active_tracer

    def run_once():
        scenario = make_scenario(
            "baseline", num_clients=clients, friend_pairs=pairs,
            crypto_backend="accelerated", seed="ladder/probe/obs",
        )
        deployment, net = scenario.build()
        try:
            scenario.configure(deployment, net)
            scenario.populate(deployment)
            started = time.perf_counter()
            deployment.run_addfriend_round()
            deployment.run_dialing_round()
            return time.perf_counter() - started
        finally:
            deployment.close()

    previous = active_tracer()
    plain, traced = [], []
    try:
        for _ in range(2):  # alternate so host noise hits both sides alike
            plain.append(run_once())
            set_active_tracer(Tracer())
            try:
                traced.append(run_once())
            finally:
                set_active_tracer(previous)
    finally:
        set_active_tracer(previous)
    return {"obs.tracer_overhead_share": min(traced) / min(plain) - 1.0}


def run_all(smoke: bool = False) -> dict[str, float]:
    """Every probe; ``smoke`` shrinks the batches ~10x, keeps every check."""
    scale = 10 if smoke else 1
    metrics: dict[str, float] = {}
    metrics.update(crypto_engine("accelerated", 500 // scale, 150 // scale))
    metrics.update(crypto_engine("pure", max(4, 20 // scale), max(2, 6 // scale)))
    metrics.update(crypto_pairing())
    metrics.update(mixnet_onion("accelerated", 300 // scale))
    metrics.update(mixnet_onion("pure", max(4, 8 // scale)))
    metrics.update(mixnet_batch(250 // scale))
    metrics.update(primitives_bloom(2000 // scale))
    metrics.update(core_keywheel(1000 // scale, 10))
    metrics.update(pkg_extract(300 // scale))
    metrics.update(entry_and_cdn(300 // scale))
    metrics.update(net_layer(1000 // scale, 10000 // scale))
    metrics.update(runtime_layer(1000 // scale, 2000 // scale, 200 // scale, 1 if smoke else 2))
    metrics.update(utils_codec(1000 // scale))
    metrics.update(obs_tracer_overhead(150 // scale, 18 // scale))
    return metrics
