"""Per-link network models: latency, bandwidth, jitter, loss, partitions.

A :class:`LinkSpec` answers one question -- how long does ``n`` bytes take to
cross this link? -- as ``base latency + uniform jitter + n / bandwidth``,
with an independent drop probability per transmission attempt.

A :class:`NetworkTopology` maps (source, destination) pairs to link specs.
Resolution order, most specific first:

1. an explicit pair override (direction-insensitive),
2. an endpoint override (straggler modelling); when both ends carry one,
   the path is as bad as its worst end in every dimension -- max latency
   and jitter, the tighter bandwidth, compounded loss,
3. a region-pair link (both endpoints assigned to regions),
4. the topology default.

Partitions are a separate overlay (pairs or whole endpoints) so that healing
restores whatever spec was in effect before the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class LinkSpec:
    """One direction-insensitive link's performance envelope."""

    latency_s: float = 0.0
    bandwidth_bps: float = 0.0  # 0 means infinite (no serialization delay)
    jitter_s: float = 0.0
    drop_rate: float = 0.0
    #: Opt-in fluid-flow approximation: every message over this link skips
    #: its jitter and loss draws and moves as a deterministic flow (base
    #: latency + size/bandwidth, serialized through any shared access link).
    fluid: bool = False

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.jitter_s < 0 or self.bandwidth_bps < 0:
            raise ValueError("link parameters must be non-negative")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop rate must be in [0, 1)")

    @staticmethod
    def of(
        latency_ms: float = 0.0,
        bandwidth_mbps: float = 0.0,
        jitter_ms: float = 0.0,
        drop_rate: float = 0.0,
        fluid: bool = False,
    ) -> "LinkSpec":
        """Construct from the units scenarios are written in."""
        return LinkSpec(
            latency_s=latency_ms / 1e3,
            bandwidth_bps=bandwidth_mbps * 1e6,
            jitter_s=jitter_ms / 1e3,
            drop_rate=drop_rate,
            fluid=fluid,
        )

    def transfer_delay(self, num_bytes: int, rng: DeterministicRng | None) -> float:
        """Seconds for one successful transmission of ``num_bytes``.

        ``rng=None`` is the fluid path: jitter is skipped entirely (no draw
        happens, so deterministic streams elsewhere stay unperturbed).
        """
        delay = self.latency_s
        if self.jitter_s > 0.0 and rng is not None:
            delay += self.jitter_s * rng.uniform()
        if self.bandwidth_bps > 0.0:
            delay += num_bytes * 8.0 / self.bandwidth_bps
        return delay

    def dropped(self, rng: DeterministicRng) -> bool:
        return self.drop_rate > 0.0 and rng.uniform() < self.drop_rate


#: Zero-cost link used when nothing more specific is configured.
PERFECT_LINK = LinkSpec()


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class NetworkTopology:
    """Resolves (src, dst) to a :class:`LinkSpec`, with partition overlays."""

    def __init__(self, default: LinkSpec | None = None) -> None:
        self.default = default if default is not None else PERFECT_LINK
        self._pair_links: dict[tuple[str, str], LinkSpec] = {}
        self._endpoint_links: dict[str, LinkSpec] = {}
        self._regions: dict[str, str] = {}
        self._region_links: dict[tuple[str, str], LinkSpec] = {}
        self._partitioned_pairs: set[tuple[str, str]] = set()
        self._partitioned_endpoints: set[str] = set()

    # -- configuration ------------------------------------------------------
    def set_link(self, a: str, b: str, spec: LinkSpec) -> None:
        self._pair_links[_pair(a, b)] = spec

    def set_endpoint(self, name: str, spec: LinkSpec) -> None:
        """Make every path touching ``name`` behave like ``spec`` (straggler)."""
        self._endpoint_links[name] = spec

    def assign_region(self, name: str, region: str) -> None:
        self._regions[name] = region

    def set_region_link(self, region_a: str, region_b: str, spec: LinkSpec) -> None:
        self._region_links[_pair(region_a, region_b)] = spec

    # -- partitions ---------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        self._partitioned_pairs.add(_pair(a, b))

    def heal(self, a: str, b: str) -> None:
        self._partitioned_pairs.discard(_pair(a, b))

    def partition_endpoint(self, name: str) -> None:
        self._partitioned_endpoints.add(name)

    def heal_endpoint(self, name: str) -> None:
        self._partitioned_endpoints.discard(name)

    def is_partitioned(self, a: str, b: str) -> bool:
        return (
            _pair(a, b) in self._partitioned_pairs
            or a in self._partitioned_endpoints
            or b in self._partitioned_endpoints
        )

    # -- resolution ---------------------------------------------------------
    def link(self, a: str, b: str) -> LinkSpec:
        pair_spec = self._pair_links.get(_pair(a, b))
        if pair_spec is not None:
            return pair_spec
        endpoint_specs = [
            self._endpoint_links[name] for name in (a, b) if name in self._endpoint_links
        ]
        if len(endpoint_specs) == 1:
            return endpoint_specs[0]
        if endpoint_specs:
            # Both ends constrained: the path is as bad as its worst end in
            # every dimension (latency/jitter add up to the max, the tighter
            # bandwidth bottlenecks, losses compound).
            first, second = endpoint_specs
            if first.bandwidth_bps and second.bandwidth_bps:
                bandwidth = min(first.bandwidth_bps, second.bandwidth_bps)
            else:
                bandwidth = first.bandwidth_bps or second.bandwidth_bps
            return LinkSpec(
                latency_s=max(first.latency_s, second.latency_s),
                bandwidth_bps=bandwidth,
                jitter_s=max(first.jitter_s, second.jitter_s),
                drop_rate=1.0 - (1.0 - first.drop_rate) * (1.0 - second.drop_rate),
                # A non-fluid constraint on either end forces full fidelity.
                fluid=first.fluid and second.fluid,
            )
        region_a, region_b = self._regions.get(a), self._regions.get(b)
        if region_a is not None and region_b is not None:
            region_spec = self._region_links.get(_pair(region_a, region_b))
            if region_spec is not None:
                return region_spec
        return self.default
