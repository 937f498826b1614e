"""Structured stderr logging for the scenario harness.

``python -m repro.sim run SCENARIO --log-level LEVEL`` routes harness output
through here instead of scattered ``print``\\ s: one ``repro`` logger
hierarchy, a single stderr handler, and ``key=value`` structured suffixes
built by :func:`log_fields`.  :class:`EventLogMonitor` is a view of the run
record on the scenario's monitor seam: it logs each round's
:class:`~repro.sim.scenario.RoundStats` at INFO and every session
:class:`~repro.api.events.SessionEvent` at DEBUG, from what it is handed.
"""

from __future__ import annotations

import logging
import sys
from typing import Any

__all__ = ["EventLogMonitor", "configure_logging", "configured_level", "get_logger", "log_fields"]

ROOT_LOGGER = "repro"

_configured_level: str | None = None


def get_logger(name: str | None = None) -> logging.Logger:
    return logging.getLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)


def configure_logging(
    level: str = "info", stream: Any = None, process: str | None = None
) -> logging.Logger:
    """Install a stderr handler on the ``repro`` logger; idempotent.

    Returns the root ``repro`` logger.  ``level`` is a standard logging
    level name (case-insensitive).  ``process`` tags every line with a
    ``process=<name>`` field — spawned runtime workers set it to their
    worker label so interleaved multi-process stderr stays attributable.
    """
    global _configured_level
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    root = get_logger()
    root.setLevel(numeric)
    root.propagate = False
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    tag = f" process={process}" if process else ""
    handler.setFormatter(
        logging.Formatter(
            f"%(asctime)s.%(msecs)03d %(levelname)-7s %(name)s{tag} %(message)s",
            datefmt="%H:%M:%S",
        )
    )
    root.addHandler(handler)
    _configured_level = level.lower()
    return root


def configured_level() -> str | None:
    """The level name :func:`configure_logging` was last called with, or
    ``None`` — what the mp transport forwards to spawned workers so
    ``--log-level`` covers every process."""
    return _configured_level


def log_fields(**fields: Any) -> str:
    """Render ``key=value`` pairs, skipping ``None`` values."""
    parts = []
    for key, value in fields.items():
        if value is None:
            continue
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def progress_printer():
    """Where ``python -m repro.sim sweep`` sends its progress lines: the
    ``repro.sim`` logger when ``--log-level`` configured one, else plain
    ``print``."""
    if _configured_level:
        logger = get_logger("sim")
        return lambda message: logger.info(message)
    return print


class EventLogMonitor:
    """Scenario monitor: structured per-round INFO and per-event DEBUG."""

    def __init__(self, logger: logging.Logger | None = None) -> None:
        self.log = logger if logger is not None else get_logger("scenario")

    # -- scenario monitor hooks --------------------------------------------
    def on_start(self, deployment, net, spec) -> None:
        self.log.info(
            "scenario start %s",
            log_fields(
                name=spec.name,
                clients=spec.num_clients,
                addfriend_rounds=spec.addfriend_rounds,
                dialing_rounds=spec.dialing_rounds,
                crypto=spec.config.crypto_backend,
                shards=spec.config.entry_shards or None,
            ),
        )

    def before_round(self, deployment, protocol: str, round_index: int) -> None:
        self.log.debug("round starting %s", log_fields(protocol=protocol, index=round_index))

    def on_round(self, stats, deployment) -> None:
        self.log.info(
            "round %s",
            log_fields(
                protocol=stats.protocol,
                round=stats.round_number,
                participants=stats.participants,
                latency_s=stats.latency_s,
                submit_s=stats.submit_stage_s,
                mix_s=stats.mix_stage_s,
                scan_s=stats.scan_stage_s,
                bytes=stats.bytes_sent,
                failures=stats.failures or None,
                aborted=True if stats.aborted else None,
            ),
        )
        # Deliveries may arrive as per-(link, slot) batches rather than one
        # event per frame; report the transport's own aggregates instead of
        # assuming frame granularity.
        if stats.net and self.log.isEnabledFor(logging.DEBUG):
            self.log.debug("net %s", log_fields(**stats.net))

    def on_finish(self, result) -> None:
        self.log.info(
            "scenario done %s",
            log_fields(
                name=result.name,
                rounds=len(result.rounds),
                aborted=sum(1 for r in result.rounds if r.aborted) or None,
                friendships=result.friendships_confirmed,
                calls=result.calls_delivered,
                total_mib=result.total_bytes_sent / 2**20,
                wall_s=result.wall_seconds,
            ),
        )

    def on_event(self, event) -> None:
        if not self.log.isEnabledFor(logging.DEBUG):
            return
        self.log.debug(
            "event %s",
            log_fields(
                type=event.type,
                email=event.email,
                round=event.round_number,
                **{k: v for k, v in event.data.items() if isinstance(v, (str, int, float, bool))},
            ),
        )
