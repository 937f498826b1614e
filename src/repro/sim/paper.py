"""Section 8 of the paper as a declaration: the seventh experiment.

One section per figure or table of the paper's evaluation: its axes are the
figure's own, its model a few lines over :mod:`repro.analysis` returning one
row, its ``paper`` column what the paper reports at that point, its checks the
figure's shape.  Two sections measure instead of model (the only timings the
benchmark ladder does not carry) and ``built`` holds the models' 1M-user point
against what the mailbox and mixnet code really builds.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

from repro.analysis.bandwidth import addfriend_bandwidth, dialing_bandwidth
from repro.analysis.dp import paper_noise_parameters, privacy_cost
from repro.analysis.latency import CostModel, LatencyModel, zipf_mailbox_loads
from repro.analysis.sizes import WireSizes
from repro.sim.workloads import top_k_share, zipf_recipient_weights
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.crypto.ibe import AnytrustIbe, BonehFranklinIbe, IbeCiphertext
from repro.mixnet.chain import MixChain
from repro.mixnet.mailbox import DialingMailbox, choose_mailbox_count
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.onion import wrap_onion
from repro.mixnet.server import MixServer, encode_inner_payload
from repro.sim.experiment import Axis, Column, Experiment, Section
from repro.utils.rng import DeterministicRng

# Section 8.1's operating point: 5 % of the online users send a real request
# each round, three servers each add mu noise requests to every mailbox, and
# the paper's tables are read at one million users.
ACTIVE, SERVERS, USERS = 0.05, 3, 1_000_000
NOISE = paper_noise_parameters()  # per protocol: the paper's mu and b, the b derived here
ADDFRIEND_NOISE = NOISE["add-friend"]["paper_mu"] * SERVERS
ADDFRIEND_TARGET = 12_000
SIZES = WireSizes.paper()
MODEL = LatencyModel()

#: What the paper itself reports, each figure once: (section, *axis point) ->
#: ((column, quote, low, high), ...).  The quotes fill the section's ``paper``
#: column; this repository's value in ``column`` must land in [low, high]
#: (None: reported beside the paper's figure, not checked).
PAPER = {
    ("fig6", 10_000_000, 1): (("kb_per_s", "2.5 KB/s", 1.5, 4.0),),
    ("fig7", 10_000_000, 5): (
        ("kb_per_s", "3 KB/s", 2.4, 3.7), ("gb_per_month", "7.8 GB/month", 6.0, 9.5),
        ("mailboxes", "7 filters", 7, 7),
    ),
    ("fig8", 3, 10_000_000): (("total_s", "152 s", 90, 230),),
    ("fig9", 3, 10_000_000): (("total_s", "118 s", 70, 180),),
    ("skew_sizes", 2.0): (
        ("smallest_mb", "4.15 MB", 3.0, math.inf),  # noise keeps even an empty mailbox near 3.7 MB
        ("largest_mb", "14.95 MB", None, None), ("top10_share", "94.2 %", 0.90, 0.96),
    ),
    ("mailboxes", 1_000_000): (("mb", "7.4 MB", 6.5, 8.2),),
    ("built",): (("bloom_mb", "0.75 MB", 0.65, 0.85),),
    **{
        ("dp", protocol): (("derived_b", f"b = {p['paper_b']}", 0.88 * p["paper_b"], 1.12 * p["paper_b"]),)
        for protocol, p in NOISE.items()
    },
    ("extraction", 3): (("median_ms", "4.9 ms", None, None),),
    ("extraction", 10): (("median_ms", "5.2 ms", None, None),),
}
NEAR_PAPER = "every figure the paper quotes lies inside its window around this repository's value"


def axis(name: str, *values, parse=int) -> Axis:
    """An axis of a model (not a ``ScenarioSpec`` field): its value reaches the
    model under its own name and its flag parses with ``parse``."""
    return Axis(name, values, apply=lambda value: {name: value}, parse=parse)


def col(key: str, header: str, fmt="{}") -> Column:
    return Column(key, header, lambda row, _: row[key], fmt)


def table(key, title, axes, columns, model, *checks) -> Section:
    """One table: ``model(*point) -> {column key: value}`` over the axes' grid,
    what :data:`PAPER` quotes at a point beside it and held to its window."""
    names = [a.name for a in axes]

    def quotes(point: dict):
        return PAPER.get((key, *(point[name] for name in names)), ())

    def run(scenario, **spec):
        row = model(*(spec[name] for name in names))
        return {**row, "paper": ", ".join(quote for _, quote, _, _ in quotes(spec)) or None}

    def near_paper(points, _axes):
        return all(
            low <= point[column] <= high
            for point in points for column, _, low, high in quotes(point) if low is not None
        )

    quoted = [quote for point, at_point in PAPER.items() if point[0] == key for quote in at_point]
    if quoted:
        columns = (*columns, col("paper", "paper"))
    if any(low is not None for _, _, low, _ in quoted):
        checks = (*checks, (NEAR_PAPER, near_paper))
    return Section(key=key, title=title, axes=axes, columns=columns, run=run, checks=checks)


def at(points, **where):
    """The points at the given axis coordinates (none when the caller's axes
    leave them out: a check that names a grid point then holds vacuously)."""
    return [p for p in points if all(p[name] == value for name, value in where.items())]


def steps(points, along: str):
    """Each point paired with the next one as the ``along`` axis grows."""
    ordered = sorted(points, key=lambda p: p[along])
    return list(zip(ordered, ordered[1:]))


# -- the models, one row each -------------------------------------------------
def bandwidth(point) -> dict:
    return dict(mailboxes=point.mailbox_count, mailbox_mb=point.mailbox_bytes / 1e6,
                kb_per_s=point.kb_per_second, gb_per_month=point.gb_per_month)


def latency(point) -> dict:
    return dict(total_s=point.total_seconds, server_s=point.server_seconds,
                transfer_s=point.transfer_seconds, client_s=point.client_seconds)


def skew_sizes(zipf_s: float) -> dict:
    real = int(USERS * ACTIVE)
    loads = zipf_mailbox_loads(real, choose_mailbox_count(real, ADDFRIEND_TARGET), zipf_s)
    mb = sorted(SIZES.addfriend_mailbox_bytes(load + ADDFRIEND_NOISE) / 1e6 for load in loads)
    return dict(smallest_mb=mb[0], median_mb=mb[len(mb) // 2], largest_mb=mb[-1],
                top10_share=top_k_share(zipf_recipient_weights(100_000, zipf_s), 10))


def mailbox_composition(users: int) -> dict:
    real = int(users * ACTIVE)
    count = choose_mailbox_count(real, ADDFRIEND_TARGET)
    total = real // count + ADDFRIEND_NOISE
    return dict(mailboxes=count, real_per_mailbox=real // count, noise_per_mailbox=ADDFRIEND_NOISE,
                total=total, mb=SIZES.addfriend_mailbox_bytes(total) / 1e6)


def built() -> dict:
    """Section 8.2's 1M-user point against the real code: the dialing filter
    at full size, the add-friend round at 1/1000 scale (mu = 4, b = 0)."""
    tokens = int(USERS * ACTIVE) + NOISE["dialing"]["paper_mu"] * SERVERS
    rng = DeterministicRng("fig7-bloom")
    bloom = DialingMailbox.build(0, [rng.read(32) for _ in range(tokens)], 1e-10)

    real, mu, body = int(USERS * ACTIVE) // 1000, NOISE["add-friend"]["paper_mu"] // 1000, 308
    servers = [MixServer(f"m{i}", rng=DeterministicRng(f"table-{i}")) for i in range(SERVERS)]
    chain = MixChain(servers, noise_config=NoiseConfig(mu, 0, 25, 0))
    count = choose_mailbox_count(real, ADDFRIEND_TARGET // 1000)
    publics = chain.open_round("add-friend", 1)
    rng = DeterministicRng("table-workload")
    envelopes = [
        wrap_onion(encode_inner_payload(rng.randint_below(count), rng.read(body)), publics)
        for _ in range(real)
    ]
    result = chain.run_round(1, "add-friend", envelopes, count, body)
    return dict(bloom_tokens=tokens, bloom_mb=bloom.size_bytes() / 1e6, real_sent=real,
                real_delivered=result.delivered_real, noise_floor=mu * SERVERS,
                mailbox_sizes=[len(mailbox) for mailbox in result.mailboxes.addfriend.values()])


def noise_scale(protocol: str) -> dict:
    quoted = NOISE[protocol]
    actions = int(quoted["protected_actions"])
    return dict(actions=actions, derived_b=quoted["derived_b"],
                epsilon_at_paper_b=privacy_cost(actions, quoted["paper_b"]).epsilon)


def ibe_strength(ibe_factor: float) -> dict:
    sizes, base = SIZES.scaled_ibe(ibe_factor), CostModel.paper_go_prototype()
    costs = replace(base, ibe_decrypt=base.ibe_decrypt * ibe_factor,
                    pkg_extraction=base.pkg_extraction * ibe_factor)
    point = addfriend_bandwidth(USERS, 3600, sizes=sizes)
    slowed = LatencyModel(costs=costs, sizes=sizes).addfriend_latency(USERS, SERVERS)
    return dict(request_bytes=sizes.addfriend_mailbox_entry, mailbox_mb=point.mailbox_bytes / 1e6,
                kb_per_s=point.kb_per_second, latency_s=slowed.total_seconds)


def bloom_saving(tokens: int) -> dict:
    bloom, raw = SIZES.dialing_mailbox_bytes(tokens), tokens * SIZES.dial_token
    return dict(bloom_mb=bloom / 1e6, raw_mb=raw / 1e6, saving=raw / bloom)


def mailbox_policy(mailboxes: int) -> dict:
    real, noise = int(USERS * ACTIVE), ADDFRIEND_NOISE * mailboxes
    download = SIZES.addfriend_mailbox_bytes(int(real / mailboxes + ADDFRIEND_NOISE))
    return dict(download_mb=download / 1e6, total_noise=noise,
                server_batch_mb=(real + noise) * SIZES.addfriend_mailbox_entry / 1e6)


# -- the two measurements the benchmark ladder does not carry -------------------
def timed_ms(operation) -> tuple[float, object]:
    started = time.perf_counter()
    result = operation()
    return (time.perf_counter() - started) * 1e3, result


def anytrust_vs_onion(pkgs: int) -> dict:
    """One Anytrust-IBE ciphertext under the aggregate key against nested
    per-PKG encryption, decrypted inside-out (section 4.2)."""
    scheme, message, identity = AnytrustIbe(BonehFranklinIbe()), b"x" * 320, "bob@example.org"
    keypairs = scheme.generate_pkg_keypairs(pkgs, seeds=[bytes([i + 1]) * 32 for i in range(pkgs)])
    ciphertext = scheme.encrypt([kp.public for kp in keypairs], identity, message)
    shares = [scheme.extract_share(kp, identity) for kp in keypairs]
    onion = message
    for kp in keypairs:
        onion = scheme.backend.encrypt(kp.public, identity, onion).to_bytes()

    def peel() -> bytes:
        blob = onion
        for kp in reversed(keypairs):
            share = scheme.backend.extract(kp.secret, identity)
            blob = scheme.backend.decrypt(share, IbeCiphertext.from_bytes(blob))
        return blob

    anytrust_ms, plain = timed_ms(lambda: scheme.decrypt(shares, ciphertext))
    onion_ms, peeled = timed_ms(peel)
    return dict(anytrust_bytes=len(ciphertext), anytrust_ms=anytrust_ms, onion_bytes=len(onion),
                onion_ms=onion_ms, decrypted=plain == peeled == message)


def key_extraction(pkgs: int) -> dict:
    """A client's signed extraction at every PKG, in process (simulated IBE:
    the protocol work, not the pairing), median of 50."""
    config = AlpenhornConfig.for_tests(num_pkg_servers=pkgs, backend="simulated")
    with Deployment(config, seed="extraction") as deployment:
        (client,) = deployment.create_clients(["alice@example.org"])
        for pkg in deployment.pkgs:
            pkg.open_round(1)

        def extract_all():
            signature = client.addfriend.extraction_signature(1)
            return [pkg.extract(client.email, 1, signature, now=0.0) for pkg in deployment.pkgs]

        return dict(median_ms=sorted(timed_ms(extract_all)[0] for _ in range(50))[25])


# -- the declaration ----------------------------------------------------------
USERS_AXIS = axis("users", 100_000, 1_000_000, 10_000_000)
LATENCY_AXES = (axis("servers", 3, 5, 10), axis("users", 10_000, 100_000, 1_000_000, 10_000_000))
ZIPF_AXIS = axis("zipf_s", 0.0, 0.5, 1.0, 1.5, 2.0, parse=float)
BANDWIDTH = (col("kb_per_s", "KB/s", "{:.2f}"), col("gb_per_month", "GB/month", "{:.2f}"))
LATENCY = (col("total_s", "total s", "{:.1f}"), col("server_s", "server s", "{:.1f}"),
           col("transfer_s", "transfer s", "{:.1f}"))

SECTION8 = Experiment(
    name="paper",
    description="section 8 of the paper: Figs. 6-10, the 8.1/8.2/8.4/8.6 tables, the 4.2/5.2/6 ablations",
    scenario="baseline",  # unused: every section tabulates a model or measures a primitive
    sections=(
        table("fig6", "Figure 6: add-friend client bandwidth vs round duration (paper wire sizes)",
              (USERS_AXIS, axis("round_hours", 1, 2, 3, 4, 6, 8, 12, 16, 20, 24)),
              (col("mailbox_mb", "mailbox MB", "{:.2f}"), *BANDWIDTH),
              lambda users, hours: bandwidth(addfriend_bandwidth(users, hours * 3600))),
        table("fig7", "Figure 7: dialing client bandwidth vs round duration",
              (USERS_AXIS, axis("round_minutes", 1, 2, 3, 4, 5, 8, 10)),
              (col("mailboxes", "mailboxes"), col("mailbox_mb", "bloom MB", "{:.2f}"), *BANDWIDTH),
              lambda users, minutes: bandwidth(dialing_bandwidth(users, minutes * 60))),
        table("fig8", "Figure 8: AddFriend latency vs online users (calibrated model)",
              LATENCY_AXES, (*LATENCY, col("client_s", "client s", "{:.1f}")),
              lambda servers, users: latency(MODEL.addfriend_latency(users, servers))),
        table("fig9", "Figure 9: Call latency vs online users (calibrated model)",
              LATENCY_AXES, (*LATENCY, col("client_s", "client s", "{:.2f}")),
              lambda servers, users: latency(MODEL.dialing_latency(users, servers))),
        table("fig10", "Figure 10: AddFriend latency vs popularity skew (1M users, 3 servers)",
              (ZIPF_AXIS,),
              (col("min_s", "min s", "{:.1f}"), col("median_s", "median s", "{:.1f}"),
               col("max_s", "max s", "{:.1f}")),
              lambda s: dict(zip(("min_s", "median_s", "max_s"), MODEL.addfriend_latency_under_skew(USERS, s)))),
        table("skew_sizes", "Section 8.4: add-friend mailbox sizes under skew (1M users)",
              (ZIPF_AXIS,),
              (col("smallest_mb", "smallest MB", "{:.2f}"), col("median_mb", "median MB", "{:.2f}"),
               col("largest_mb", "largest MB", "{:.2f}"), col("top10_share", "top-10 share", "{:.1%}")),
              skew_sizes,
              ("at s = 2 the largest mailbox is over twice the smallest and the median stays "
               "within 35 % of the uniform one",
               lambda points, axes: all(
                   skewed["largest_mb"] > 2 * skewed["smallest_mb"]
                   and abs(skewed["median_mb"] - uniform["median_mb"]) < 0.35 * uniform["median_mb"]
                   for skewed in at(points, zipf_s=2.0) for uniform in at(points, zipf_s=0.0)))),
        table("mailboxes", "Section 8.2: add-friend mailbox composition",
              (USERS_AXIS,),
              (col("mailboxes", "mailboxes"), col("real_per_mailbox", "real/mailbox", "{:,}"),
               col("noise_per_mailbox", "noise/mailbox", "{:,}"), col("total", "total", "{:,}"),
               col("mb", "MB", "{:.2f}")),
              mailbox_composition),
        table("built", "Section 8.2 against the real code: the 1M-user Bloom filter, a 1/1000-scale round",
              (),
              (col("bloom_tokens", "bloom tokens", "{:,}"), col("bloom_mb", "bloom MB", "{:.2f}"),
               col("real_sent", "real sent"), col("real_delivered", "delivered"),
               col("mailbox_sizes", "mailbox sizes", lambda sizes: ",".join(map(str, sizes))),
               col("noise_floor", "noise/mailbox")),
              built,
              ("a scaled-down real MixChain round delivers every real request and no mailbox "
               "falls under half its noise floor",
               lambda points, axes: all(
                   p["real_delivered"] == p["real_sent"]
                   and min(p["mailbox_sizes"]) >= 0.5 * p["noise_floor"] for p in points))),
        table("dp", "Section 8.1: differential-privacy noise scales for (ln 2, 1e-4)",
              (axis("protocol", "add-friend", "dialing", parse=str),),
              (col("actions", "actions", "{:,}"), col("derived_b", "derived b", "{:.0f}"),
               col("epsilon_at_paper_b", "eps at paper b", "{:.3f}")),
              noise_scale),
        table("ibe_strength", "Section 8.6: impact of a costlier IBE construction (1M users, 3 servers)",
              (axis("ibe_factor", 1.0, 2.0, 4.0, 8.0, parse=float),),
              (col("request_bytes", "request bytes"), col("mailbox_mb", "mailbox MB", "{:.2f}"),
               col("kb_per_s", "client KB/s", "{:.2f}"), col("latency_s", "addfriend latency s", "{:.1f}")),
              ibe_strength,
              ("client bandwidth and add-friend latency grow at most linearly in the IBE cost/size factor",
               lambda points, axes: all(
                   p[key] <= base[key] * p["ibe_factor"] * 1.05 for base in at(points, ibe_factor=1.0)
                   for p in points for key in ("kb_per_s", "latency_s")))),
        table("bloom", "Ablation 5.2: Bloom filter vs raw dial-token list",
              (axis("tokens", 12_500, 125_000, 875_000),),
              (col("bloom_mb", "bloom MB", "{:.2f}"), col("raw_mb", "raw MB", "{:.2f}"),
               col("saving", "saving", "{:.1f}x")),
              bloom_saving,
              ("a Bloom filter saves over 4.5x against the raw token list",
               lambda points, axes: all(p["saving"] > 4.5 for p in points))),
        table("mailbox_policy", "Ablation 6: mailbox-count policy (1M users, 4,000 noise/server/mailbox)",
              (axis("mailboxes", 1, 2, 4, 8, 16, 64),),
              (col("download_mb", "client DL MB", "{:.2f}"), col("total_noise", "total noise msgs", "{:,}"),
               col("server_batch_mb", "server batch MB", "{:.0f}")),
              mailbox_policy,
              ("client download shrinks and total noise grows with the mailbox count",
               lambda points, axes: all(
                   b["download_mb"] <= a["download_mb"] and b["total_noise"] >= a["total_noise"]
                   for a, b in steps(points, "mailboxes")))),
        table("anytrust", "Ablation 4.2: Anytrust-IBE vs onion-IBE (real BN254; ms measured here)",
              (axis("pkgs", 1, 2, 3, 5),),
              (col("anytrust_bytes", "anytrust ctxt B"), col("anytrust_ms", "anytrust dec ms", "{:.0f}"),
               col("onion_bytes", "onion ctxt B"), col("onion_ms", "onion dec ms", "{:.0f}")),
              anytrust_vs_onion,
              ("Anytrust-IBE ciphertexts stay one size while onion-IBE grows with every PKG",
               lambda points, axes: all(p["decrypted"] for p in points) and all(
                   b["anytrust_bytes"] == a["anytrust_bytes"] and b["onion_bytes"] > a["onion_bytes"]
                   for a, b in steps(points, "pkgs")))),
        table("extraction", "Section 8.2: key extraction at every PKG (in process: no network)",
              (axis("pkgs", 3, 10),),
              (col("median_ms", "median ms", "{:.2f}"),),
              key_extraction),
    ),
)
