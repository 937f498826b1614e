"""§8.5 application integration and §8.1 differential-privacy parameters.

* Integration (§8.5): the paper integrated Alpenhorn into Vuvuzela with a
  ~200-line change and into Pond by feeding the Call secret into PANDA.  The
  benchmark drives both integrations end-to-end -- Alpenhorn call, then a
  conversation exchange / PANDA pairing -- and reports the time for the
  whole bootstrap.

* DP parameters (§8.1): the paper's noise scales (b = 406 add-friend,
  b = 2,183 dialing) for an (epsilon = ln 2, delta = 1e-4) budget over
  900 / 26,000 actions.  The benchmark re-derives both from the accounting
  in ``repro.analysis.dp`` and prints them side by side.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.analysis.dp import laplace_scale_for_budget, paper_noise_parameters, privacy_cost
from repro.apps.pond_panda import bootstrap_panda_from_call
from repro.apps.vuvuzela import VuvuzelaConversationService, VuvuzelaMessenger
from repro.bench.reporting import emit_table
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment


@pytest.mark.figure("§8.5 integration")
def test_vuvuzela_integration_end_to_end_report(capsys):
    start = time.perf_counter()
    deployment = Deployment(AlpenhornConfig.for_tests(backend="simulated"), seed="bench-vuvuzela")
    alice = deployment.create_client("alice@example.org")
    bob = deployment.create_client("bob@example.org")
    service = VuvuzelaConversationService()
    alice_app = VuvuzelaMessenger(alice, service)
    bob_app = VuvuzelaMessenger(bob, service)

    alice_app.addfriend("bob@example.org")
    deployment.run_addfriend_round()
    deployment.run_addfriend_round()
    call = deployment.session("alice@example.org").call("bob@example.org")
    deployment.run_dialing_round()  # cover: the wheel anchors at round 2
    deployment.run_dialing_round()
    alice_app.adopt_call_handle(call)
    alice_app.send_message("bob@example.org", "hello through vuvuzela")
    received = bob_app.receive_message("alice@example.org")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\n§8.5 Vuvuzela integration: add-friend + call + first message in {elapsed:.2f}s "
              f"(simulated backend); message delivered: {received!r}")
    assert received == "hello through vuvuzela"


@pytest.mark.figure("§8.5 integration")
def test_pond_panda_integration_end_to_end_report(capsys):
    deployment = Deployment(AlpenhornConfig.for_tests(backend="simulated"), seed="bench-panda")
    deployment.create_client("alice@example.org")
    bob = deployment.create_client("bob@example.org")
    session = deployment.session("alice@example.org")
    session.add_friend("bob@example.org")
    deployment.run_addfriend_round()
    deployment.run_addfriend_round()
    call = session.call("bob@example.org")
    deployment.run_dialing_round()  # cover: the wheel anchors at round 2
    deployment.run_dialing_round()
    received = bob.received_calls()[-1]
    caller, callee = bootstrap_panda_from_call(
        call.session_key, received.session_key, b"alice-pond-identity", b"bob-pond-identity"
    )
    with capsys.disabled():
        print("\n§8.5 Pond/PANDA integration: shared secret from Call seeds PANDA; "
              f"exchange complete, pairwise keys match: {caller.pairwise_key == callee.pairwise_key}")
    assert caller.peer_payload == b"bob-pond-identity"
    assert callee.peer_payload == b"alice-pond-identity"


@pytest.mark.figure("§8.1 noise parameters")
def test_dp_parameter_table(capsys):
    params = paper_noise_parameters()
    rows = []
    for protocol, values in params.items():
        rows.append([
            protocol,
            f"{values['protected_actions']:,}",
            values["paper_b"],
            f"{values['derived_b']:.0f}",
            f"{privacy_cost(int(values['protected_actions']), values['paper_b']).epsilon:.3f}",
        ])
    emit_table(
        capsys,
        "dp_noise_parameters",
        headers=["protocol", "actions", "paper b", "derived b", "eps at paper b (target ln2=0.693)"],
        rows=rows,
        title="§8.1 differential-privacy noise parameters",
    )
    assert abs(params["add-friend"]["derived_b"] - 406) / 406 < 0.12
    assert abs(params["dialing"]["derived_b"] - 2_183) / 2_183 < 0.12


def _derive_scales():
    return (
        laplace_scale_for_budget(900, epsilon=math.log(2), delta=1e-4),
        laplace_scale_for_budget(26_000, epsilon=math.log(2), delta=1e-4),
    )


@pytest.mark.figure("§8.1 noise parameters")
def test_dp_derivation_benchmark(benchmark):
    addfriend_b, dialing_b = benchmark(_derive_scales)
    assert addfriend_b < dialing_b
