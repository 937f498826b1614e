"""§8.6: sensitivity of Alpenhorn's performance to the IBE construction.

Recent attacks weakened BN-256; the paper argues that switching curves
changes Alpenhorn's costs at most linearly: PKG and client CPU scale with
the per-operation cost of the new scheme, and bandwidth scales with the new
ciphertext size (the 64-byte IBE component of a 308-byte request).

The benchmark sweeps cost/size multipliers for a hypothetical replacement
curve and reports how the headline numbers (mailbox size, client bandwidth,
add-friend latency) move -- verifying the paper's "linear or sub-linear
impact" claim -- and also times this implementation's own pairing (tens of
milliseconds in pure Python against the paper's 1-2 ms in assembly) as the
concrete data point for "a slower IBE backend".
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.bandwidth import addfriend_bandwidth
from repro.analysis.latency import CostModel, LatencyModel
from repro.analysis.sizes import WireSizes
from repro.bench.reporting import emit_table
from repro.crypto.bn254.curve import g1_generator, g2_generator
from repro.crypto.bn254.pairing import pairing

MULTIPLIERS = [1.0, 2.0, 4.0, 8.0]


@pytest.mark.figure("§8.6")
def test_crypto_strength_sweep_report(capsys):
    rows = []
    base_sizes = WireSizes.paper()
    base_costs = CostModel.paper_go_prototype()
    baseline_bw = addfriend_bandwidth(1_000_000, 3600, sizes=base_sizes).kb_per_second
    baseline_latency = LatencyModel(costs=base_costs, sizes=base_sizes).addfriend_latency(1_000_000, 3).total_seconds
    results = []
    for factor in MULTIPLIERS:
        sizes = base_sizes.scaled_ibe(factor)
        costs = CostModel(
            onion_decrypt_per_request=base_costs.onion_decrypt_per_request,
            noise_generation_per_message=base_costs.noise_generation_per_message,
            shuffle_per_request=base_costs.shuffle_per_request,
            ibe_decrypt=base_costs.ibe_decrypt * factor,
            dialing_hash=base_costs.dialing_hash,
            pkg_extraction=base_costs.pkg_extraction * factor,
            wan_bandwidth_bytes_per_s=base_costs.wan_bandwidth_bytes_per_s,
            wan_rtt=base_costs.wan_rtt,
            client_download_bytes_per_s=base_costs.client_download_bytes_per_s,
        )
        bandwidth = addfriend_bandwidth(1_000_000, 3600, sizes=sizes)
        latency = LatencyModel(costs=costs, sizes=sizes).addfriend_latency(1_000_000, 3)
        results.append((factor, bandwidth.kb_per_second, latency.total_seconds))
        rows.append([
            f"x{factor:g}",
            f"{sizes.addfriend_mailbox_entry}",
            f"{bandwidth.mailbox_bytes/1e6:.2f}",
            f"{bandwidth.kb_per_second:.2f}",
            f"{latency.total_seconds:.1f}",
        ])
    emit_table(
        capsys,
        "crypto_strength_sweep",
        headers=["IBE cost/size", "request bytes", "mailbox MB", "client KB/s", "addfriend latency s"],
        rows=rows,
        title="§8.6: impact of a costlier IBE construction (1M users, 3 servers)",
    )
    # The paper's claim: impact is linear or sub-linear in the IBE multiplier.
    for factor, bandwidth, latency in results:
        assert bandwidth <= baseline_bw * factor * 1.05
        assert latency <= baseline_latency * factor * 1.05


@pytest.mark.figure("§8.6")
def test_symmetric_engine_cost_report(capsys):
    """The other direction of §8.6's sensitivity claim, measured live.

    §8.6 argues Alpenhorn's costs scale linearly with the per-op price of
    the crypto; the engine registry lets us measure that with *real*
    substitutions instead of multipliers: the same RFC 8439/7748 operations
    under every registered backend, and the speedup a deployment gains by
    flipping ``AlpenhornConfig.crypto_backend``.
    """
    from repro.crypto.engine import available_backends
    from repro.sim.crypto_sweep import measure_per_op

    entries = [measure_per_op(name) for name in available_backends()]
    by_name = {e["backend"]: e for e in entries}
    pure = by_name["pure"]
    rows = [
        [
            e["backend"],
            f"{e['seal_us']:.1f}",
            f"{e['shared_secret_us']:.1f}",
            f"{pure['seal_us'] / e['seal_us']:.1f}x",
            f"{pure['shared_secret_us'] / e['shared_secret_us']:.1f}x",
        ]
        for e in entries
    ]
    emit_table(
        capsys,
        "crypto_engine_backends",
        headers=["backend", "seal µs", "x25519 µs", "seal speedup", "x25519 speedup"],
        rows=rows,
        title="§8.6: measured cost of swapping the symmetric/X25519 engine",
        extra={"per_op": entries},
    )
    assert pure["seal_us"] > 0


@pytest.mark.figure("§8.6")
def test_pure_python_pairing_cost_report(capsys):
    """The concrete 'slower curve' data point: this implementation's pairing."""
    g1, g2 = g1_generator(), g2_generator()
    start = time.perf_counter()
    iterations = 3
    for _ in range(iterations):
        pairing(g1, g2)
    per_pairing = (time.perf_counter() - start) / iterations
    with capsys.disabled():
        print(f"\n§8.6 data point: one optimal-ate pairing in pure Python takes {per_pairing*1000:.0f} ms "
              f"(the paper's AMD64-assembly BN-256 pairing takes ~1-2 ms)")
    assert per_pairing < 0.5


@pytest.mark.figure("§8.6")
def test_pairing_benchmark(benchmark):
    g1, g2 = g1_generator(), g2_generator()
    value = benchmark.pedantic(pairing, args=(g1, g2), iterations=1, rounds=3)
    assert not value.is_one()
