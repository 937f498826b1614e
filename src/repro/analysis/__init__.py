"""Analytic models used to regenerate the paper's evaluation (§8).

The paper's absolute numbers come from a Go + assembly prototype on a
three-region EC2 testbed.  This package provides:

* :mod:`repro.analysis.sizes`     -- wire-format size accounting,
* :mod:`repro.analysis.bandwidth` -- the client bandwidth model behind
  Figures 6 and 7,
* :mod:`repro.analysis.latency`   -- the calibrated round-latency model
  behind Figures 8, 9, and 10, and
* :mod:`repro.analysis.dp`        -- the differential-privacy accounting
  that yields the noise parameters quoted in §8.1.

Each model is parameterised by explicit per-operation costs so that both the
paper's constants and the constants measured from this pure-Python
implementation can be plugged in; ``python -m repro.sim sweep paper`` tabulates
them beside the paper's own numbers (README, Experiments).
"""

from repro.analysis.sizes import WireSizes
from repro.analysis.bandwidth import (
    addfriend_bandwidth,
    dialing_bandwidth,
    BandwidthPoint,
)
from repro.analysis.latency import CostModel, LatencyModel, LatencyPoint
from repro.analysis.dp import (
    laplace_scale_for_budget,
    privacy_cost,
    paper_noise_parameters,
)

__all__ = [
    "WireSizes",
    "addfriend_bandwidth",
    "dialing_bandwidth",
    "BandwidthPoint",
    "CostModel",
    "LatencyModel",
    "LatencyPoint",
    "laplace_scale_for_budget",
    "privacy_cost",
    "paper_noise_parameters",
]
