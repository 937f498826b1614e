#!/usr/bin/env python3
"""Quickstart: Alice adds Bob as a friend and calls him, via ClientSession.

This walks through the full Alpenhorn flow from Figure 1 of the paper on an
in-process deployment with the real pairing-based crypto: registration at
the PKGs, the two-round add-friend exchange (observed through a typed
FriendRequestHandle and event-bus subscriptions), and a dialing round whose
CallHandle yields matching session keys on both sides.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import AlpenhornConfig, Deployment


def main() -> None:
    # A small deployment: 3 mix servers, 3 PKGs, low noise so the output is
    # easy to read.  (Use AlpenhornConfig() for paper-scale noise volumes.)
    config = AlpenhornConfig.for_tests(num_mix_servers=3, num_pkg_servers=3)
    deployment = Deployment(config, seed="quickstart")

    print("== Registration (Register) ==")
    # One begin wave and one confirm wave register both clients at every PKG.
    alice, bob = deployment.create_clients(["alice@example.org", "bob@example.org"])
    print(f"  alice registered, signing key {alice.my_signing_key().hex()[:16]}...")
    print(f"  bob   registered, signing key {bob.my_signing_key().hex()[:16]}...")

    # Sessions are the embeddable API: typed handles + an event bus.
    alice_session = deployment.session("alice@example.org")
    bob_session = deployment.session("bob@example.org")
    bob_session.events.subscribe(
        "friend_request_received",
        lambda e: print(f"  [bob] friend_request_received({e.email}) -> accepted={e['accepted']}"),
    )
    bob_session.events.subscribe(
        "call_received",
        lambda e: print(f"  [bob] call_received(from={e.email}, "
                        f"key={e['call'].session_key.hex()[:16]}...)"),
    )

    print("\n== Add friend (AddFriend) ==")
    handle = alice_session.add_friend("bob@example.org")
    print(f"  alice queued a friend request for bob: {handle}")
    summary = deployment.run_addfriend_round()
    print(f"  add-friend round {summary.round_number}: {summary.submissions} submissions "
          f"({summary.mix_result.noise_added} noise msgs added by the mixnet); {handle}")
    deployment.run_addfriend_round()
    print(f"  add-friend round 2: bob's confirmation reached alice; {handle}")
    assert handle.confirmed and handle.confirmed_by == bob.my_signing_key()
    print(f"  alice's friends: {alice_session.friends()}")
    print(f"  bob's friends:   {bob_session.friends()}")
    print(f"  lifecycle events alice saw: "
          f"{[e.type for e in alice_session.events.history()]}")

    print("\n== Call (Call) ==")
    # Event-driven, not queue-polling: the session bus announces when the
    # dialing round carrying our token completes (call_delivered).
    dialed = []
    alice_session.events.subscribe("call_delivered", dialed.append)
    call = alice_session.call("bob@example.org", intent=0)
    for _ in range(6):
        if dialed:
            break
        summary = deployment.run_dialing_round()
        print(f"  dialing round {summary.round_number} ran "
              f"({summary.mix_result.noise_added} noise tokens); call state {call.state.value}")
    assert dialed, "call never delivered"
    received = bob_session.received_calls()[-1]
    print(f"  alice's session key: {call.session_key.hex()[:32]}...")
    print(f"  bob's session key:   {received.session_key.hex()[:32]}...")
    assert call.session_key == received.session_key
    print("  session keys match -- the conversation can start in any messenger")


if __name__ == "__main__":
    main()
