"""Structured stderr logging for the scenario harness.

``python -m repro.sim run SCENARIO --log-level LEVEL`` routes harness output
through here instead of scattered ``print``\\ s: one ``repro`` logger
hierarchy, a single stderr handler, and ``key=value`` structured suffixes
built by :func:`log_fields`.  :func:`log_view` is a view of the run record,
one callable in ``Scenario.views``: it logs each round's
:class:`~repro.sim.scenario.RoundStats` at INFO and every session
:class:`~repro.api.events.SessionEvent` at DEBUG, from what it is handed.
"""

from __future__ import annotations

import logging
import sys
from typing import Any

__all__ = ["configure_logging", "configured_level", "get_logger", "log_fields", "log_view"]

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
    ``process=<name>`` field — ``mp`` runtime workers set it to their
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
    ``None`` — what the mp transport forwards to its workers so
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


def log_view(kind: str, item: Any, log: logging.Logger | None = None) -> None:
    """A scenario view (``Scenario.views``): the spec, each round's
    :class:`~repro.sim.scenario.RoundStats` and the finished result at INFO,
    round starts, transport gauges and session events at DEBUG, on ``log``
    (default ``repro.scenario``)."""
    if log is None:
        log = get_logger("scenario")
    if kind == "start":
        log.info(
            "scenario start %s",
            log_fields(
                name=item.name,
                clients=item.num_clients,
                addfriend_rounds=item.addfriend_rounds,
                dialing_rounds=item.dialing_rounds,
                crypto=item.config.crypto_backend,
                shards=item.config.entry_shards or None,
            ),
        )
    elif kind == "round_start":
        protocol, index, _clock = item
        log.debug("round starting %s", log_fields(protocol=protocol, index=index))
    elif kind == "round":
        log.info(
            "round %s",
            log_fields(
                protocol=item.protocol,
                round=item.round_number,
                participants=item.participants,
                latency_s=item.latency_s,
                submit_s=item.submit_stage_s,
                mix_s=item.mix_stage_s,
                scan_s=item.scan_stage_s,
                bytes=item.bytes_sent,
                failures=item.failures or None,
                aborted=True if item.aborted else None,
            ),
        )
        # Deliveries may arrive as per-(link, slot) batches rather than one
        # event per frame; report the transport's own aggregates instead of
        # assuming frame granularity.
        if item.net and log.isEnabledFor(logging.DEBUG):
            log.debug("net %s", log_fields(**item.net))
    elif kind == "event":
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "event %s",
                log_fields(
                    type=item.type,
                    email=item.email,
                    round=item.round_number,
                    **{k: v for k, v in item.data.items() if isinstance(v, (str, int, float, bool))},
                ),
            )
    elif kind == "finish":
        log.info(
            "scenario done %s",
            log_fields(
                name=item.name,
                rounds=len(item.rounds),
                aborted=sum(1 for r in item.rounds if r.aborted) or None,
                friendships=item.friendships_confirmed,
                calls=item.calls_delivered,
                total_mib=item.total_bytes_sent / 2**20,
                wall_s=item.wall_seconds,
            ),
        )
