#!/usr/bin/env python3
"""Recovering from a client compromise (§9 of the paper).

Shows the recommended recovery flow after an adversary steals a user's
long-term signing key and keywheel state: deregister (signed with the old
key), wait out the 30-day lockout, re-register with a fresh key, and re-run
add-friend with every friend -- plus the forward-secrecy point that the
stolen keywheel snapshot says nothing about calls made after the compromise.

Friend requests and calls go through the ClientSession API
(``deployment.session(email)``) with the rounds driven explicitly; see
examples/session_api.py for a tour of that surface.

Run with:  python examples/compromise_recovery.py
"""

from __future__ import annotations

from repro import AlpenhornConfig, Deployment
from repro.pkg.registration import LOCKOUT_SECONDS


def main() -> None:
    config = AlpenhornConfig.for_tests(backend="simulated")
    deployment = Deployment(config, seed="recovery")
    alice = deployment.create_client("alice@example.org")
    bob = deployment.create_client("bob@example.org")
    session = deployment.session("alice@example.org")
    session.add_friend("bob@example.org")
    deployment.run_addfriend_round()  # Alice's request reaches Bob, Bob accepts
    deployment.run_addfriend_round()  # Bob's confirmation reaches Alice
    print(f"alice and bob are friends; alice's key: {alice.my_signing_key().hex()[:16]}...")

    # The adversary snapshots Alice's client state at this moment.
    stolen_wheel = alice.keywheel.snapshot()
    print(f"\n[adversary] stole alice's keywheel at round "
          f"{stolen_wheel['bob@example.org'].round_number}")

    print("\n== recovery ==")
    alice.recover_from_compromise(deployment.pkg_stubs, deployment.email_network)
    print(f"  deregistered and rotated the signing key: {alice.my_signing_key().hex()[:16]}...")
    print(f"  waiting out the {LOCKOUT_SECONDS // 86400}-day lockout...")
    deployment.advance_clock(LOCKOUT_SECONDS + 1)
    alice.register(deployment.pkg_stubs, deployment.email_network)
    print("  re-registered with the new key")

    bob.remove_friend("alice@example.org")
    session.add_friend("bob@example.org")
    deployment.run_addfriend_round()
    deployment.run_addfriend_round()
    call = session.call("bob@example.org")
    deployment.run_dialing_round()  # cover: the new wheel anchors at round 2
    deployment.run_dialing_round()
    received = bob.received_calls()[-1]
    print(f"  friendship re-established; new call delivered "
          f"(keys match: {call.session_key == received.session_key})")

    # Forward secrecy: the stolen wheel is anchored at an old round and the
    # new wheel was derived from a fresh Diffie-Hellman exchange, so the
    # adversary's snapshot is useless for the new call.
    new_entry = alice.keywheel.entry("bob@example.org")
    print(f"\nstolen wheel secret == new wheel secret? "
          f"{stolen_wheel['bob@example.org'].secret == new_entry.secret}")


if __name__ == "__main__":
    main()
