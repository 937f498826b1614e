#!/usr/bin/env python3
"""Embedding the client: ClientSession, handles, events, and retry.

The tour of the session API on a *simulated network* deployment (real link
latencies, lossy rounds possible):

1. sessions and event-bus subscriptions,
2. a FriendRequestHandle moving queued -> submitted -> delivered -> confirmed,
3. the failure the paper's bare API silently eats -- a request delivered
   into a round its recipient missed is gone -- and
4. the session outbox's sender-side retry recovering it
   (``retry_horizon``), visible as a ``request_retrying`` event.

Run with:  python examples/session_api.py
"""

from __future__ import annotations

from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.net.links import LinkSpec, NetworkTopology
from repro.net.simulated import SimulatedNetwork


def build_deployment() -> Deployment:
    """A small deployment on 40 ms client links (servers meshed at 2 ms)."""
    servers = ["entry", "cdn", "coordinator", "mix0", "mix1", "pkg0", "pkg1"]
    topology = NetworkTopology(default=LinkSpec.of(latency_ms=40, bandwidth_mbps=50))
    for i, a in enumerate(servers):
        for b in servers[i + 1 :]:
            topology.set_link(a, b, LinkSpec.of(latency_ms=2, bandwidth_mbps=1000))
    net = SimulatedNetwork(topology=topology, seed="session-api/net")
    config = AlpenhornConfig.for_tests(backend="simulated")
    config.retry_horizon = 1  # the session outbox re-sends after 1 round
    return Deployment(config, seed="session-api", transport=net)


def main() -> None:
    deployment = build_deployment()
    for email in ("alice@example.org", "bob@example.org", "carol@example.org"):
        deployment.create_client(email)

    alice = deployment.session("alice@example.org")
    bob = deployment.session("bob@example.org")
    alice.events.subscribe_all(
        lambda e: print(f"  [alice bus] {e.type}"
                        + (f" round={e.round_number}" if e.round_number else ""))
    )
    bob.events.subscribe(
        "friend_request_received",
        lambda e: print(f"  [bob bus] friend_request_received from {e.email}"),
    )

    print("== a request whose recipient is online: one clean pass ==")
    handle = alice.add_friend("carol@example.org")
    deployment.run_addfriend_round()
    deployment.run_addfriend_round()
    print(f"  -> {handle}")
    assert handle.confirmed

    print("\n== a request delivered into a round bob misses ==")
    handle = alice.add_friend("bob@example.org")
    # Bob is offline for this round: the request lands in a mailbox whose
    # IBE round key bob never held.  Without retry it would be lost forever.
    deployment.run_addfriend_round(
        participants=["alice@example.org", "carol@example.org"]
    )
    print(f"  after the missed round: {handle}")

    print("\n== the session outbox retries; everyone is back online ==")
    while not handle.done():
        deployment.run_addfriend_round()
    print(f"  -> {handle}")
    assert handle.confirmed
    retries = len(alice.events.history("request_retrying"))
    print(f"  confirmed after {handle.attempts} submissions ({retries} retry)")

    print("\n== the established friends can now dial ==")
    # The bus drives the dial too: run rounds until bob's session reports
    # the incoming call (no polling of the client's dialing queue).
    incoming = []
    bob.events.subscribe("call_received", incoming.append)
    call = alice.call("bob@example.org")
    for _ in range(6):
        if incoming:
            break
        deployment.run_dialing_round()
    assert incoming, "call never delivered"
    received = bob.received_calls()[-1]
    assert call.session_key == received.session_key
    print(f"  call handle: {call}")
    print(f"  session keys match: {call.session_key == received.session_key}")


if __name__ == "__main__":
    main()
