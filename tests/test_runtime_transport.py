"""The real-runtime transports: :class:`AsyncioTransport` over localhost TCP
and :class:`MultiprocessTransport` with worker processes forked from one
preloaded forkserver."""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import logging
import multiprocessing
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    NetworkError,
    RemoteCallError,
    RoundError,
    SerializationError,
    TransportTimeoutError,
)
from repro.net import DirectTransport, frames
from repro.net.frames import KIND_RESPONSE, Frame, encode_wire_message
from repro.net.transport import BatchCall, RpcResult
from repro.runtime import AsyncioTransport, MultiprocessTransport, mix_endpoint_spec, wire
from repro.runtime import mp as mp_module
from repro.runtime.mp import EndpointSpec
from repro.runtime.transport import split_wire_messages

#: Malformed stream input: a length prefix past MAX_WIRE_MESSAGE_BYTES, and a
#: well-framed body that is not a wire message.
OVERSIZE_PREFIX = b"\xff\xff\xff\xff"
GARBAGE_BODY = encode_wire_message(b"not a wire message")


@pytest.fixture
def transport():
    with AsyncioTransport() as t:
        yield t


def register_echo(t, name="server"):
    def handler(request):
        return RpcResult(payload=request.payload)

    t.register(name, handler)


def echo_wave(dst, count, size=1):
    return [
        BatchCall(src=f"c{i}", dst=dst, method="echo", payload=bytes([i % 256]) * size)
        for i in range(count)
    ]


def reply_to(message, payload, msg_id=None):
    """A framed reply to ``message`` carrying ``payload``."""
    frame = message.frame
    reply = Frame(
        kind=KIND_RESPONSE,
        msg_id=frame.msg_id if msg_id is None else msg_id,
        src=frame.dst,
        dst=frame.src,
        method=frame.method,
        payload=payload,
    )
    return encode_wire_message(wire.encode_message(reply))


def echo_reply(message, msg_id=None):
    """The framed echo reply a well-behaved server would send for ``message``."""
    return reply_to(message, message.frame.payload, msg_id)


@pytest.fixture
def scripted_peers():
    """Route endpoint names to raw TCP peers driven by test scripts.

    ``start(transport, name, respond)``: ``respond(connection_index, message)``
    returns the bytes to send for one request (``b""`` = stay silent) or
    ``None`` to close the connection.  A peer serves its connections one
    after the other, as the transport uses them.
    """
    listeners = []

    def serve(listener, respond):
        for index in itertools.count():
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # listener closed: the test is over
            with sock:
                buffer = bytearray()
                while True:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        break
                    buffer += chunk
                    replies = [
                        respond(index, wire.decode_message(body))
                        for body in split_wire_messages(buffer)
                    ]
                    sock.sendall(b"".join(reply for reply in replies if reply))
                    if None in replies:
                        break

    def start(transport, name, respond):
        listener = socket.create_server(("127.0.0.1", 0))
        listeners.append(listener)
        transport._remote_ports[name] = listener.getsockname()[1]
        threading.Thread(target=serve, args=(listener, respond), daemon=True).start()

    yield start
    for listener in listeners:
        listener.close()


@pytest.fixture
def scripted_peer(transport, scripted_peers):
    """``scripted_peers`` bound to the ``transport`` fixture."""
    return functools.partial(scripted_peers, transport)


def settle(transport):
    """Let callbacks queued on the transport's loop (a discard) run."""
    asyncio.run_coroutine_threadsafe(asyncio.sleep(0), transport._loop).result(5)


def children_of(pid):
    """Pids whose parent is ``pid``, zombies included (Linux)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def forkserver_pid():
    """This process's forkserver (started if it was not): the child whose
    command line runs ``multiprocessing.forkserver``."""
    mp_module._worker_context()
    (pid,) = [
        child for child in children_of(os.getpid())
        if b"multiprocessing.forkserver" in Path("/proc", str(child), "cmdline").read_bytes()
    ]
    return pid


def poke(port, data):
    """Send raw bytes to a served port; True when the server closes on us."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        return sock.recv(1) == b""


class TestAsyncioTransport:
    def test_echo_roundtrip(self, transport):
        register_echo(transport)
        result = transport.call("client", "server", "echo", b"\x01\x02\x03")
        assert result == RpcResult(payload=b"\x01\x02\x03", latency_s=result.latency_s)

    def test_nested_calls_do_not_deadlock(self, transport):
        # entry -> mix is a real pattern: the outer handler issues a
        # downstream RPC while its own caller is still blocked on it.
        register_echo(transport, "inner")

        def outer_handler(request):
            inner = transport.call("outer", "inner", "echo", request.payload)
            return RpcResult(payload=inner.payload + b"!")

        transport.register("outer", outer_handler)
        result = transport.call("client", "outer", "relay", b"hi")
        assert result.payload == b"hi!"

    def test_remote_errors_reconstruct(self, transport):
        def handler(request):
            raise RoundError("round 7 is closed")

        transport.register("server", handler)
        with pytest.raises(RoundError, match="round 7 is closed"):
            transport.call("client", "server", "submit")

    def test_foreign_errors_become_remote_call_error(self, transport):
        def handler(request):
            raise ValueError("not a protocol error")

        transport.register("server", handler)
        with pytest.raises(RemoteCallError, match="ValueError"):
            transport.call("client", "server", "submit")

    def test_unknown_endpoint_rejected(self, transport):
        with pytest.raises(NetworkError):
            transport.call("client", "nowhere", "ping")

    def test_duplicate_endpoint_rejected(self, transport):
        register_echo(transport)
        with pytest.raises(NetworkError):
            register_echo(transport)

    def test_deadline_expires_on_wall_clock(self, transport):
        def handler(request):
            time.sleep(0.5)
            return RpcResult(payload=b"late")

        transport.register("server", handler)
        with pytest.raises(TransportTimeoutError):
            transport.call("client", "server", "slow", timeout_s=0.05)
        # The connection died with the deadline; a fresh call still works.
        register_echo(transport, "ok")
        assert transport.call("client", "ok", "echo", b"x").payload == b"x"

    def test_call_batch_wave(self, transport):
        register_echo(transport)
        calls = [
            BatchCall(src=f"c{i}", dst="server", method="echo", payload=bytes([i]))
            for i in range(16)
        ]
        outcomes = transport.call_batch(calls)
        assert len(outcomes) == 16
        for i, outcome in enumerate(outcomes):
            assert outcome.error is None
            assert outcome.result.payload == bytes([i])

    def test_wave_is_one_pipelined_connection_per_endpoint(self, transport):
        # 300 connections at once would overrun the listen backlog and wait
        # out a 1 s SYN retransmission; a pipelined wave opens just one.
        register_echo(transport)
        started = time.monotonic()
        outcomes = transport.call_batch(echo_wave("server", 300))
        elapsed = time.monotonic() - started
        assert [o.result.payload for o in outcomes] == [bytes([i % 256]) for i in range(300)]
        assert transport.snapshot()["server"]["connections"] == 1
        assert elapsed < 0.9

    def test_wave_isolates_per_call_failures(self, transport):
        for name in ("a", "b"):
            register_echo(transport, name)

        def picky(request):
            if request.payload == b"bad":
                raise RoundError("rejected")
            return RpcResult(payload=request.payload)

        transport.register("picky", picky)
        calls = [
            BatchCall("c0", "a", "echo", b"0"),
            BatchCall("c1", "picky", "echo", b"bad"),
            BatchCall("c2", "nowhere", "echo", b"2"),
            BatchCall("c3", "b", "echo", b"3"),
            BatchCall("c4", "picky", "echo", b"4"),
            BatchCall("c5", "a", "echo", b"5"),
        ]
        outcomes = transport.call_batch(calls)
        assert isinstance(outcomes[1].error, RoundError)
        assert isinstance(outcomes[2].error, NetworkError)
        for i in (0, 3, 4, 5):
            assert outcomes[i].error is None
            assert outcomes[i].result.payload == calls[i].payload

    def test_an_oversize_call_fails_only_itself(self, transport, monkeypatch):
        # Encoding comes before accounting: a call whose wire message is over
        # the limit is never sent, so it counts no message, and in a wave it
        # fails alone.
        register_echo(transport)
        monkeypatch.setattr(frames, "MAX_WIRE_MESSAGE_BYTES", 200)
        small, big = b"s" * 8, b"b" * 500
        outcomes = transport.call_batch(
            [BatchCall("c0", "server", "echo", small), BatchCall("c1", "server", "echo", big)]
        )
        assert outcomes[0].error is None and outcomes[0].result.payload == small
        assert isinstance(outcomes[1].error, SerializationError)
        with pytest.raises(SerializationError):
            transport.call("c2", "server", "echo", big)
        assert transport.stats.messages_sent == 2  # the small call's request and reply
        assert transport.stats.calls_by_method["echo"] == 2

    def test_an_unencodable_call_fails_only_itself(self, transport):
        # A source UTF-8 cannot encode (a lone surrogate) is refused as a
        # SerializationError when the call's frame is encoded, so in a wave
        # it fails alone and is never sent.
        register_echo(transport)
        outcomes = transport.call_batch([
            BatchCall("c0", "server", "echo", b"ok"),
            BatchCall("c\ud800", "server", "echo", b"no"),
            BatchCall("c2", "server", "echo", b"ok too"),
        ])
        assert [o.result.payload for o in (outcomes[0], outcomes[2])] == [b"ok", b"ok too"]
        assert isinstance(outcomes[1].error, SerializationError)
        assert transport.stats.calls_by_method["echo"] == 4  # two requests, two replies

    def test_connection_dropped_mid_wave_keeps_answered_calls(self, transport, scripted_peer):
        seen = itertools.count(1)

        def respond(connection, message):
            if connection > 0:
                return echo_reply(message)
            n = next(seen)
            if n <= 5:
                return echo_reply(message)
            return b"" if n < 12 else None  # read the whole group, then hang up

        scripted_peer("flaky", respond)
        outcomes = transport.call_batch(echo_wave("flaky", 12))
        assert [o.result.payload for o in outcomes[:5]] == [bytes([i]) for i in range(5)]
        assert all(isinstance(o.error, NetworkError) for o in outcomes[5:])
        # The dead connection was discarded; the next wave gets a fresh one.
        again = transport.call_batch(echo_wave("flaky", 12))
        assert [o.result.payload for o in again] == [bytes([i]) for i in range(12)]
        assert len(transport._connections) == 1

    def test_wave_larger_than_socket_buffers_completes(self, transport):
        # 16 MiB out and 16 MiB back on one connection: neither side may sit
        # in a send waiting for the other to read.
        register_echo(transport)
        outcomes = []
        wave = threading.Thread(
            target=lambda: outcomes.extend(
                transport.call_batch(echo_wave("server", 64, size=256 * 1024))
            ),
            daemon=True,
        )
        wave.start()
        wave.join(timeout=60)
        assert not wave.is_alive(), "pipelined wave deadlocked"
        assert [len(o.result.payload) for o in outcomes] == [256 * 1024] * 64

    def test_wave_timestamps_are_reply_arrival_not_decode_turn(self, transport, monkeypatch):
        register_echo(transport)
        finish_call = transport._finish_call

        def slow_finish_call(*args):
            time.sleep(0.01)  # stands in for decoding a large reply
            return finish_call(*args)

        monkeypatch.setattr(transport, "_finish_call", slow_finish_call)
        outcomes = transport.call_batch(echo_wave("server", 20))
        finished = [o.finished_at for o in outcomes]
        assert max(finished) - min(finished) < 0.1
        assert max(o.result.latency_s for o in outcomes) < 0.1

    def test_reply_out_of_step_fails_closed(self, transport, scripted_peer):
        scripted_peer("liar", lambda _connection, message: echo_reply(message, msg_id=999_999))
        with pytest.raises(NetworkError, match="out of step"):
            transport.call("client", "liar", "echo", b"x")
        settle(transport)
        assert not transport._connections

    def test_malformed_reply_discards_the_connection(self, transport, scripted_peer):
        scripted_peer("noisy", lambda _connection, _message: OVERSIZE_PREFIX)
        with pytest.raises(NetworkError):
            transport.call("client", "noisy", "echo", b"x")
        assert not transport._connections

    @pytest.mark.parametrize("malformed", [OVERSIZE_PREFIX, GARBAGE_BODY])
    def test_malformed_request_closes_only_its_connection(self, transport, caplog, malformed):
        register_echo(transport)
        assert transport.call("client", "server", "echo", b"x").payload == b"x"
        assert poke(transport._ports["server"], malformed)
        assert transport.call("client", "server", "echo", b"y").payload == b"y"
        settle(transport)
        # An exception escaping the serve loop is what asyncio would log.
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_bandwidth_accounting_matches_direct_transport(self, transport):
        # The simulated accounting formula (payload + frame overhead, no
        # length prefix) is the cross-runtime baseline.
        direct = DirectTransport()
        for t in (transport, direct):
            def handler(request):
                return RpcResult(payload=b"r" * 10)

            t.register("server", handler)
            t.call("client", "server", "extract", b"q" * 5)
            t.call_batch([BatchCall(f"c{i}", "server", "submit", b"s" * i) for i in range(9)])
        assert transport.stats.bytes_by_method == direct.stats.bytes_by_method
        assert transport.stats.bytes_by_endpoint == direct.stats.bytes_by_endpoint
        assert transport.stats.messages_sent == direct.stats.messages_sent

    def test_clock_is_wall_time(self, transport):
        before = transport.now()
        time.sleep(0.01)
        assert transport.now() > before
        transport.advance(5.0)  # validated no-op: wall time cannot be steered
        with pytest.raises(ValueError):
            transport.advance(-1.0)

    def test_close_idempotent_and_final(self):
        transport = AsyncioTransport()
        register_echo(transport)
        assert transport.call("client", "server", "echo", b"x").payload == b"x"
        transport.close()
        transport.close()
        with pytest.raises(NetworkError):
            transport.call("client", "server", "echo", b"x")


class TestMultiprocessTransport:
    def test_mix_tier_in_worker_process(self):
        from repro.net.rpc import MixStub

        transport = MultiprocessTransport(
            [[mix_endpoint_spec("mix0", "seed/mix/0")]]
        )
        try:
            assert transport.worker_count() == 1
            assert transport.remote_endpoints() == ["mix0"]
            stub = MixStub(transport, "mix0", src="entry")
            pk = stub.open_round("dialing", 1)
            assert stub.round_public_key("dialing", 1) == pk
            # Errors cross the process boundary as their repro.errors type.
            with pytest.raises(RoundError):
                stub.round_public_key("dialing", 9)
        finally:
            transport.close()
        transport.close()  # idempotent after worker reap

    def test_snapshot_reports_each_workers_rss(self):
        """On a traced run ``snapshot()`` harvests the workers first, so each
        worker's gauge carries the RSS it just reported."""
        from repro.obs.trace import Tracer, set_active_tracer

        previous = set_active_tracer(Tracer())
        try:
            with MultiprocessTransport([[mix_endpoint_spec("mix0", "seed/mix/0")]]) as transport:
                workers = {
                    name: gauges
                    for name, gauges in transport.snapshot().items()
                    if name.startswith("worker:")
                }
        finally:
            set_active_tracer(previous)
        assert list(workers) == ["worker:worker-0"]
        assert workers["worker:worker-0"]["rss_mib"] > 0

    @pytest.mark.slow
    def test_two_workers_round_robin(self):
        from repro.net.rpc import MixStub

        specs = [mix_endpoint_spec(f"mix{i}", f"seed/mix/{i}") for i in range(2)]
        with MultiprocessTransport([[specs[0]], [specs[1]]]) as transport:
            assert transport.worker_count() == 2
            keys = {
                name: MixStub(transport, name, src="entry").open_round("dialing", 1)
                for name in ("mix0", "mix1")
            }
            assert keys["mix0"] != keys["mix1"]

    @pytest.mark.slow
    def test_workers_start_before_any_port_map_is_read(self, monkeypatch):
        context = mp_module._worker_context()
        events = []

        class RecordingPipeEnd:
            def __init__(self, conn):
                self._conn = conn

            def recv(self):
                events.append("recv")
                return self._conn.recv()

            def __getattr__(self, name):
                return getattr(self._conn, name)

        class RecordingContext:
            def Pipe(self):
                parent_end, child_end = context.Pipe()
                return RecordingPipeEnd(parent_end), child_end

            def __getattr__(self, name):
                return getattr(context, name)

        start = context.Process.start
        # Patched on the class: the forkserver is sent the Process object itself.
        monkeypatch.setattr(
            context.Process, "start", lambda process: (events.append("start"), start(process))
        )
        monkeypatch.setattr(mp_module, "_worker_context", lambda: RecordingContext())
        specs = [[mix_endpoint_spec(f"mix{i}", f"seed/mix/{i}")] for i in range(2)]
        with MultiprocessTransport(specs) as transport:
            assert transport.remote_endpoints() == ["mix0", "mix1"]
        assert events == ["start", "start", "recv", "recv"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forkserver workers")
    @pytest.mark.parametrize("guarded", [True, False], ids=["guarded", "unguarded"])
    def test_workers_do_not_rerun_the_parents_script(self, tmp_path, guarded):
        """A worker is launched without the parent's ``__main__``: a script
        file that appends its pid to a marker at top level runs once, in the
        parent only, and the same script without an ``if __name__ ==
        "__main__":`` guard works too (a worker that re-ran it would try to
        start processes of its own during its bootstrap and die)."""
        import repro

        marker = tmp_path / "pids"
        script = tmp_path / "two_workers.py"
        body = textwrap.dedent(
            """\
            import os
            from repro.net.rpc import MixStub
            from repro.runtime import MultiprocessTransport, mix_endpoint_spec

            with open(MARKER, "a") as fh:
                fh.write(f"{os.getpid()}\\n")

            def main():
                specs = [[mix_endpoint_spec(f"mix{i}", f"seed/mix/{i}")] for i in range(2)]
                with MultiprocessTransport(specs) as transport:
                    MixStub(transport, "mix0", src="entry").open_round("dialing", 1)
            """
        ).replace("MARKER", repr(str(marker)))
        body += 'if __name__ == "__main__":\n    main()\n' if guarded else "main()\n"
        script.write_text(body)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, str(script)],
            env=dict(os.environ, PYTHONPATH=path),
            stderr=subprocess.PIPE,
            text=True,
        )
        _out, err = process.communicate(timeout=60)
        assert process.returncode == 0, err
        assert marker.read_text().split() == [str(process.pid)]

    def test_a_pipelined_group_is_served_in_request_order(self):
        """A worker serves a connection's group inline, one message after the
        other: a wave of mixed calls to one worker gets each call's own reply,
        and a telemetry harvest pipelined right behind a batch answers after
        it, with that batch's span already recorded."""
        from repro.mixnet.noise import NoiseConfig
        from repro.net.rpc import (
            PROCESS_BATCH_REQUEST,
            PROCESS_BATCH_RESPONSE,
            ROUND_KEY_REPLY,
            ROUND_REF,
            MixStub,
            decode_reply,
        )
        from repro.obs.trace import Tracer, set_active_tracer

        def round_key(number):
            return BatchCall("entry", "mix0", "round_public_key", ROUND_REF.encode("dialing", number))

        def batch(number, mu, mailboxes):
            noise = NoiseConfig(dialing_mu=mu, dialing_b=0.0)
            request = PROCESS_BATCH_REQUEST.encode(
                number, "dialing", mailboxes, 16,
                noise.addfriend_mu, noise.addfriend_b, noise.dialing_mu, noise.dialing_b, [], [],
            )
            return BatchCall("entry", "mix0", "process_batch", request)

        previous = set_active_tracer(Tracer())
        try:
            with MultiprocessTransport([[mix_endpoint_spec("mix0", "seed/mix/0")]]) as transport:
                stub = MixStub(transport, "mix0", src="entry")
                keys = {number: stub.open_round("dialing", number) for number in (1, 2)}
                outcomes = transport.call_batch([
                    round_key(1), batch(1, 2, 1), round_key(2), batch(2, 3, 2), round_key(9),
                    BatchCall("runtime", "mix0", mp_module.TELEMETRY_METHOD),
                ])
                assert len(transport.harvest_telemetry()) == 1  # a later harvest answers too
        finally:
            set_active_tracer(previous)
        key_1, first, key_2, second, unopened, harvest = outcomes
        assert decode_reply(ROUND_KEY_REPLY.decode, key_1.result.payload)[0] == keys[1]
        assert decode_reply(ROUND_KEY_REPLY.decode, key_2.result.payload)[0] == keys[2]
        assert decode_reply(PROCESS_BATCH_RESPONSE.decode, first.result.payload)[2] == 2
        assert decode_reply(PROCESS_BATCH_RESPONSE.decode, second.result.payload)[2] == 6
        assert isinstance(unopened.error, RoundError)
        spans = json.loads(harvest.result.payload)["spans"]
        assert [span["args"]["method"] for span in spans if span["name"] == "rpc.serve"] == [
            "open_round", "open_round",
            "round_public_key", "process_batch", "round_public_key", "process_batch",
            "round_public_key",
        ]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_a_worker_serves_on_its_one_thread(self):
        """No handler thread beside the worker's event loop: after serving a
        call the worker process still runs exactly one thread."""
        from repro.net.rpc import MixStub

        with MultiprocessTransport([[mix_endpoint_spec("mix0", "seed/mix/0")]]) as transport:
            MixStub(transport, "mix0", src="entry").open_round("dialing", 1)
            (process,) = transport._processes
            status = Path("/proc", str(process.pid), "status").read_text()
        assert "\nThreads:\t1\n" in status

    @pytest.mark.slow
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_failed_worker_build_leaves_no_process_behind(self):
        server = forkserver_pid()
        specs = [[mix_endpoint_spec("mix0", "seed/mix/0")], [EndpointSpec(kind="nope", name="x")]]
        with pytest.raises(EOFError):  # the dead worker's port-map pipe
            MultiprocessTransport(specs)
        assert multiprocessing.active_children() == []
        assert children_of(server) == []

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or "_asyncio" in sys.builtin_module_names,
        reason="reads /proc/<pid>/maps for the _asyncio extension module",
    )
    def test_forkserver_preloads_the_worker_runtime(self):
        """Workers fork from one forkserver that has already imported the
        runtime -- also where ``repro`` is on ``sys.path`` only because code
        put it there (``python -S``, no ``PYTHONPATH``): the forkserver maps
        ``asyncio``'s extension module, and it is the parent of the workers
        of two transports built one after the other."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        child = textwrap.dedent(
            f"""\
            import json, multiprocessing, os, sys
            sys.path.insert(0, {src!r})
            from repro.runtime import MultiprocessTransport, mix_endpoint_spec

            def parent_of(pid):
                with open(f"/proc/{{pid}}/stat") as fh:
                    return int(fh.read().rsplit(")", 1)[1].split()[1])

            if __name__ == "__main__":
                parents = []
                for _ in range(2):
                    with MultiprocessTransport([[mix_endpoint_spec("mix0", "seed/mix/0")]]):
                        (worker,) = multiprocessing.active_children()
                        parents.append(parent_of(worker.pid))
                with open(f"/proc/{{parents[0]}}/maps") as fh:
                    maps = fh.read()
                print(json.dumps({{"me": os.getpid(), "parents": parents, "asyncio": "/_asyncio" in maps}}))
            """
        )
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-S", "-c", child], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        (server,) = set(report["parents"])
        assert server != report["me"]
        assert report["asyncio"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks a bare child")
    def test_a_workers_first_round_imports_nothing(self):
        """Everything a mix worker runs in its first round is already in the
        forkserver: a child forked from a process that imported exactly the
        preload builds an accelerated mix and serves ``open_round``,
        ``process_batch`` and ``close_round`` without importing a module."""
        pytest.importorskip("cryptography")
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        child = textwrap.dedent(
            f"""\
            import importlib, json, os, sys
            sys.path.insert(0, {src!r})
            from repro.runtime import mp

            for name in mp._FORKSERVER_PRELOAD:
                importlib.import_module(name)
            before = set(sys.modules)
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    from repro.mixnet.onion import wrap_onion
                    from repro.mixnet.server import encode_inner_payload
                    from repro.net import rpc
                    from repro.net.frames import KIND_REQUEST, Frame
                    from repro.runtime import wire
                    from repro.runtime.transport import serve_wire_message

                    handler = mp._build_mix(
                        "mix0", {{"rng_seed": "seed/mix/0", "crypto_backend": "accelerated"}}
                    )

                    def serve(method, payload):
                        frame = Frame(kind=KIND_REQUEST, msg_id=1, src="entry", dst="mix0",
                                      method=method, payload=payload)
                        message = wire.decode_message(wire.encode_message(frame))
                        return serve_wire_message(message, handler, lambda: 0.0, "mix0")

                    reply = serve("open_round", rpc.ROUND_REF.encode("dialing", 1))
                    payload = wire.decode_message(reply).frame.payload
                    (public,) = rpc.decode_reply(rpc.ROUND_KEY_REPLY.decode, payload)
                    envelopes = [wrap_onion(encode_inner_payload(0, bytes(8)), [public])]
                    request = rpc.PROCESS_BATCH_REQUEST.encode(
                        1, "dialing", 2, 8, 1.0, 0.5, 1.0, 0.5, [public], envelopes
                    )
                    reply = serve("process_batch", request)
                    payload = wire.decode_message(reply).frame.payload
                    received, dropped, _noise, _batch = rpc.decode_reply(
                        rpc.PROCESS_BATCH_RESPONSE.decode, payload
                    )
                    assert (received, dropped) == (1, 0)
                    serve("close_round", rpc.ROUND_REF.encode("dialing", 1))
                    grown = sorted(set(sys.modules) - before)
                except Exception as exc:
                    grown = [f"the child failed: {{exc!r}}"]
                os.write(write_end, json.dumps(grown).encode())
                os._exit(0)
            os.close(write_end)
            with os.fdopen(read_end, "rb") as fh:
                report = fh.read()
            os.waitpid(pid, 0)
            print(report.decode())
            """
        )
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []

    @pytest.mark.slow
    def test_unclosed_transport_workers_are_reaped_at_exit(self):
        """Workers are daemonic: an interpreter that never calls ``close()``
        still exits promptly, and its worker dies with it."""
        import repro

        child = (
            "import multiprocessing\n"
            "from repro.runtime import MultiprocessTransport, mix_endpoint_spec\n"
            "transport = MultiprocessTransport([[mix_endpoint_spec('mix0', 'seed/mix/0')]])\n"
            "(worker,) = multiprocessing.active_children()\n"
            "print(worker.pid, flush=True)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", child],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 0, done.stderr
        pid = int(done.stdout.split()[0])
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.slow
    @pytest.mark.parametrize("malformed", [OVERSIZE_PREFIX, GARBAGE_BODY])
    def test_worker_closes_malformed_connection_quietly(self, capfd, malformed):
        from repro.net.rpc import MixStub

        with MultiprocessTransport([[mix_endpoint_spec("mix0", "seed/mix/0")]]) as transport:
            stub = MixStub(transport, "mix0", src="entry")
            pk = stub.open_round("dialing", 1)
            assert poke(transport._remote_ports["mix0"], malformed)
            assert stub.round_public_key("dialing", 1) == pk
        # The worker shares our stderr: an escaped exception would print there.
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize(
        "malformed",
        [b"", b"\x80\x04not json", b"[1, 2]", b'{"pid": "x"}', b'{"spans": [3]}'],
    )
    def test_malformed_telemetry_skips_that_worker(self, scripted_peers, monkeypatch, malformed):
        """A worker is a socket, not a trusted object: its harvest is JSON
        bytes, and a reply that is not a telemetry record is logged and
        skipped -- the other worker's harvest lands, ``close()`` never raises."""
        from repro.obs.distributed import WorkerTelemetry
        from repro.obs.trace import Tracer, set_active_tracer

        good = WorkerTelemetry(
            pid=4242, label="worker-1", endpoints=["mix1"],
            spans=[{"name": "rpc.serve", "cat": "rpc", "wall_start": 1.0, "wall_dur": 0.5}],
            rss=1 << 20,
        )

        def worker(telemetry_payload):
            def respond(_connection, message):
                if message.frame.method == mp_module.TELEMETRY_METHOD:
                    return reply_to(message, telemetry_payload)
                return echo_reply(message)

            return respond

        alive = type("Alive", (), {"is_alive": lambda self: True})()
        # Not caplog: an earlier configure_logging() stops ``repro`` propagating.
        warnings = []
        monkeypatch.setattr(
            mp_module.logger, "warning", lambda message, *args: warnings.append(message % args)
        )
        tracer = Tracer()
        previous = set_active_tracer(tracer)
        transport = MultiprocessTransport([])  # telemetry: a tracer is active
        try:
            scripted_peers(transport, "mix0", worker(malformed))
            scripted_peers(transport, "mix1", worker(json.dumps(good.to_payload()).encode()))
            transport._worker_contacts += [(alive, "mix0"), (alive, "mix1")]
            assert transport.harvest_telemetry() == [good]
            assert len(warnings) == 1 and "mix0" in warnings[0]
            assert [span["pid"] for span in tracer.remote_spans] == [4242]
        finally:
            transport.close()
            set_active_tracer(previous)
        assert transport._closed
