"""Round-latency model (Figures 8, 9, and 10 of the paper).

The end-to-end latency of an AddFriend or Call request, as the paper
measures it, is the time from submitting just before the round closes until
the client has downloaded and scanned its mailbox.  That breaks down into
per-server processing (peeling one onion layer per request, generating
noise, shuffling), inter-server transfers across WAN links, mailbox
construction, the client's download, and the client's scan (IBE trial
decryption for add-friend, hashing against a Bloom filter for dialing).

The model is parameterised by a :class:`CostModel` of per-operation costs;
``CostModel.paper_go_prototype()`` holds the constants from §8.2 of the paper
(assembly pairings: 800 IBE decryptions/sec/core, 1M hashes/sec, EC2-class
CPUs and WAN links), which reproduce the paper's absolute numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.sizes import WireSizes
from repro.mixnet.mailbox import choose_mailbox_count


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs, in seconds (or bytes/second for links)."""

    onion_decrypt_per_request: float
    noise_generation_per_message: float
    shuffle_per_request: float
    ibe_decrypt: float
    dialing_hash: float
    pkg_extraction: float
    wan_bandwidth_bytes_per_s: float
    wan_rtt: float
    client_download_bytes_per_s: float
    client_cores: int = 4
    server_cores: int = 36

    @staticmethod
    def paper_go_prototype() -> "CostModel":
        """Constants calibrated against the paper's §8.2/§8.3 measurements.

        The per-request server cost is back-solved from the reported
        end-to-end round latencies (152 s add-friend / 118 s dialing at 10M
        users on 3 servers), since the paper reports those rather than raw
        per-box costs; the client-side constants (800 IBE decryptions/sec,
        1M hashes/sec, 4310 extractions/sec) are taken directly from §8.2.
        """
        return CostModel(
            onion_decrypt_per_request=1.3e-4,      # per request per server (single core)
            noise_generation_per_message=3.0e-4,   # generate + onion-wrap one noise msg
            shuffle_per_request=0.2e-6,
            ibe_decrypt=1.0 / 800.0,               # 800 decryptions/sec/core
            dialing_hash=1.0e-6,                   # 1M hashes/sec/core
            pkg_extraction=1.0 / 4310.0,           # 4310 extractions/sec
            wan_bandwidth_bytes_per_s=1.25e9,      # 10 Gbps
            wan_rtt=0.08,                          # Virginia <-> Ireland <-> Frankfurt
            client_download_bytes_per_s=12.5e6,    # 100 Mbps client link
        )


@dataclass(frozen=True)
class LatencyPoint:
    """One point on a Figure-8/9 curve."""

    users: int
    num_servers: int
    protocol: str
    server_seconds: float
    transfer_seconds: float
    client_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.server_seconds + self.transfer_seconds + self.client_seconds


class LatencyModel:
    """Computes round latency for either protocol at a given scale."""

    def __init__(
        self,
        costs: CostModel | None = None,
        sizes: WireSizes | None = None,
        active_fraction: float = 0.05,
        addfriend_noise_mu: float = 4_000,
        dialing_noise_mu: float = 25_000,
        addfriend_target_per_mailbox: int = 12_000,
        dialing_target_per_mailbox: int = 75_000,
        num_intents: int = 10,
        friends_per_user: int = 1_000,
    ) -> None:
        self.costs = costs if costs is not None else CostModel.paper_go_prototype()
        self.sizes = sizes if sizes is not None else WireSizes.paper()
        self.active_fraction = active_fraction
        self.addfriend_noise_mu = addfriend_noise_mu
        self.dialing_noise_mu = dialing_noise_mu
        self.addfriend_target_per_mailbox = addfriend_target_per_mailbox
        self.dialing_target_per_mailbox = dialing_target_per_mailbox
        self.num_intents = num_intents
        self.friends_per_user = friends_per_user

    # -- shared pieces -----------------------------------------------------
    def _server_pass_seconds(self, batch: int, noise_per_server: float, request_bytes: int, num_servers: int) -> tuple[float, float]:
        """CPU and transfer time for the batch to traverse the chain."""
        costs = self.costs
        cpu_total = 0.0
        transfer_total = 0.0
        current_batch = float(batch)
        for _ in range(num_servers):
            per_request = (
                costs.onion_decrypt_per_request + costs.shuffle_per_request
            )
            cpu = current_batch * per_request / costs.server_cores
            cpu += noise_per_server * costs.noise_generation_per_message / costs.server_cores
            cpu_total += cpu
            current_batch += noise_per_server
            transfer_total += (
                current_batch * request_bytes / costs.wan_bandwidth_bytes_per_s + costs.wan_rtt
            )
        return cpu_total, transfer_total

    # -- add-friend (Figure 8) -------------------------------------------------
    def addfriend_latency(self, users: int, num_servers: int = 3) -> LatencyPoint:
        real = users * self.active_fraction
        mailbox_count = choose_mailbox_count(int(real), self.addfriend_target_per_mailbox)
        noise_per_server = self.addfriend_noise_mu * mailbox_count
        request_bytes = self.sizes.addfriend_mailbox_entry

        server_cpu, transfer = self._server_pass_seconds(
            batch=users, noise_per_server=noise_per_server,
            request_bytes=request_bytes, num_servers=num_servers,
        )

        requests_per_mailbox = real / mailbox_count + self.addfriend_noise_mu * num_servers
        mailbox_bytes = self.sizes.addfriend_mailbox_bytes(int(requests_per_mailbox))
        download = mailbox_bytes / self.costs.client_download_bytes_per_s
        scan = requests_per_mailbox * self.costs.ibe_decrypt / self.costs.client_cores
        key_extraction = num_servers * (self.costs.wan_rtt / 2 + self.costs.pkg_extraction)

        return LatencyPoint(
            users=users,
            num_servers=num_servers,
            protocol="add-friend",
            server_seconds=server_cpu,
            transfer_seconds=transfer,
            client_seconds=download + scan + key_extraction,
        )

    # -- dialing (Figure 9) ---------------------------------------------------------
    def dialing_latency(self, users: int, num_servers: int = 3) -> LatencyPoint:
        real = users * self.active_fraction
        mailbox_count = choose_mailbox_count(int(real), self.dialing_target_per_mailbox)
        noise_per_server = self.dialing_noise_mu * mailbox_count
        request_bytes = self.sizes.dial_token

        server_cpu, transfer = self._server_pass_seconds(
            batch=users, noise_per_server=noise_per_server,
            request_bytes=request_bytes, num_servers=num_servers,
        )

        tokens_per_mailbox = real / mailbox_count + self.dialing_noise_mu * num_servers
        mailbox_bytes = self.sizes.dialing_mailbox_bytes(int(tokens_per_mailbox))
        download = mailbox_bytes / self.costs.client_download_bytes_per_s
        scan = self.friends_per_user * self.num_intents * self.costs.dialing_hash

        return LatencyPoint(
            users=users,
            num_servers=num_servers,
            protocol="dialing",
            server_seconds=server_cpu,
            transfer_seconds=transfer,
            client_seconds=download + scan,
        )

    # -- skew (Figure 10) ----------------------------------------------------------------
    def addfriend_latency_under_skew(
        self, users: int, zipf_s: float, num_servers: int = 3, mailbox_loads: list[int] | None = None
    ) -> tuple[float, float, float]:
        """(min, median, max) latency when recipients follow a Zipf law.

        The server-side work is unchanged (it depends on the batch, not on
        where requests land); what varies is the mailbox each client has to
        download and scan.  ``mailbox_loads`` may be passed directly (e.g.
        produced by the workload generator); otherwise an analytic Zipf split
        is used.
        """
        base = self.addfriend_latency(users, num_servers)
        real = users * self.active_fraction
        mailbox_count = choose_mailbox_count(int(real), self.addfriend_target_per_mailbox)
        if mailbox_loads is None:
            mailbox_loads = zipf_mailbox_loads(int(real), mailbox_count, zipf_s)
        latencies = []
        for load in mailbox_loads:
            per_mailbox = load + self.addfriend_noise_mu * num_servers
            mailbox_bytes = self.sizes.addfriend_mailbox_bytes(int(per_mailbox))
            download = mailbox_bytes / self.costs.client_download_bytes_per_s
            scan = per_mailbox * self.costs.ibe_decrypt / self.costs.client_cores
            key_extraction = num_servers * (self.costs.wan_rtt / 2 + self.costs.pkg_extraction)
            latencies.append(base.server_seconds + base.transfer_seconds + download + scan + key_extraction)
        latencies.sort()
        return latencies[0], latencies[len(latencies) // 2], latencies[-1]


def zipf_mailbox_loads(real_requests: int, mailbox_count: int, s: float, population: int = 100_000) -> list[int]:
    """Distribute requests over mailboxes when recipients are Zipf-distributed.

    Users are ranked by popularity; user ``i`` receives requests proportional
    to ``i^-s``; each user's mail goes to mailbox ``hash(i) % K``.  For s = 0
    this reduces to the uniform split.
    """
    if mailbox_count <= 0:
        raise ValueError("mailbox count must be positive")
    import hashlib

    weights = [1.0 / (rank ** s) if s > 0 else 1.0 for rank in range(1, population + 1)]
    total = sum(weights)
    loads = [0.0] * mailbox_count
    for rank, weight in enumerate(weights, start=1):
        digest = hashlib.sha256(f"zipf-user-{rank}".encode()).digest()
        index = int.from_bytes(digest[:8], "big") % mailbox_count
        loads[index] += weight / total * real_requests
    return [int(round(load)) for load in loads]
