"""repro.cluster: the entry/CDN front tier, split by mailbox range.

The paper's deployment sketch (§7) scales the untrusted front tier
horizontally: clients talk to whichever front-end owns their mailbox, while
the mixnet stays a single chain and the round itself stays one round.  This
package holds *where the envelopes wait*; the round lifecycle lives once,
in :class:`~repro.entry.server.EntryServer`, at every shard count:

* :mod:`repro.cluster.directory` -- the per-round :class:`ShardDirectory`
  mapping contiguous mailbox-ID ranges to shard endpoints, and
  :func:`front_endpoints`, the front's endpoint names at any shard count;
* :mod:`repro.cluster.shard` -- the per-shard servers: :class:`EntryShard`
  (submission buffering for its range; the one-shard front is an in-process
  ``EntryShard`` owning every mailbox), :class:`IngressProxy`
  (``SubmitBatch`` envelope batching at the shard's access link), and
  :class:`CdnShard` (mailbox serving for its range), plus
  :class:`ShardedCdnStub` (publish fan-out, download routing).

``AlpenhornConfig.entry_shards > 1`` puts the front behind N
``entry{i}``/``ingress{i}``/``cdn{i}`` endpoints, with the entry server in
the coordinator's process.
"""

from repro.cluster.directory import ShardDirectory, ShardRange, balanced_ranges, front_endpoints
from repro.cluster.shard import CdnShard, EntryShard, IngressProxy, ShardedCdnStub

__all__ = [
    "ShardDirectory",
    "ShardRange",
    "balanced_ranges",
    "front_endpoints",
    "ShardedCdnStub",
    "EntryShard",
    "IngressProxy",
    "CdnShard",
]
