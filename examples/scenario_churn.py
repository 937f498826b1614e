"""Scenario harness end-to-end: client churn on a simulated WAN.

Runs the ``client_churn`` scenario -- a quarter of clients offline each
round, late joiners registering mid-run -- on the simulated network and
prints the per-round latencies and traffic the harness measured, plus the
effect of making every client's access link slower.

Run with:  PYTHONPATH=src python examples/scenario_churn.py
      (or just ``python examples/scenario_churn.py`` after ``pip install -e .``)
"""

from __future__ import annotations

from repro.net.links import LinkSpec
from repro.obs.record import format_table, round_table
from repro.sim import run_scenario


def main() -> None:
    result = run_scenario(
        "client_churn",
        num_clients=80,
        addfriend_rounds=3,
        dialing_rounds=4,
        seed="churn-example",
    )

    headers, rows = round_table([stats.to_dict() for stats in result.rounds])
    print(format_table(headers, rows, title="client_churn: 80 clients, 25% offline per round"))
    print()
    requests = result.friend_requests
    print(f"friendships established : {result.friendships_confirmed}")
    print(f"friend requests         : {requests['confirmed']}/{requests['total']} confirmed "
          f"(no retry -- requests delivered into rounds their recipient missed are "
          f"lost; re-run with retry_horizon=1 for liveness)")
    print(f"calls delivered         : {result.calls_delivered}")
    print(f"simulated traffic       : {result.total_bytes_sent / 2**20:.2f} MiB "
          f"in {result.total_messages_sent} messages")
    print(f"wall-clock              : {result.wall_seconds:.1f}s")

    # The same scenario on a slow access link: every round gets slower in
    # *simulated* time, which is exactly what the harness is for.
    slow = run_scenario(
        "client_churn",
        num_clients=80,
        addfriend_rounds=3,
        dialing_rounds=4,
        seed="churn-example",
        client_link=LinkSpec.of(latency_ms=250, bandwidth_mbps=5, jitter_ms=40),
    )
    fast_median = sorted(result.round_latencies())[len(result.round_latencies()) // 2]
    slow_median = sorted(slow.round_latencies())[len(slow.round_latencies()) // 2]
    print()
    print(f"median round latency: {fast_median:.2f}s on 40ms/50Mbps links, "
          f"{slow_median:.2f}s on 250ms/5Mbps links")


if __name__ == "__main__":
    main()
