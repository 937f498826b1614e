"""Tests for the structured-logging helpers (the metrics registry this file
also covered is gone: tests/test_run_record.py holds every fact it published
to the record path that now carries it)."""

from __future__ import annotations

import io
import logging

import pytest

from repro.obs.logging import configure_logging, get_logger, log_fields


class TestLogging:
    def test_log_fields_formats_and_skips_none(self):
        rendered = log_fields(round=3, latency_s=0.123456789, skipped=None, name="x")
        assert rendered == "round=3 latency_s=0.123457 name=x"

    def test_configure_logging_routes_to_the_given_stream(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        try:
            get_logger("test").info("hello %s", log_fields(n=1))
            assert "hello n=1" in stream.getvalue()
            assert "repro.test" in stream.getvalue()
        finally:
            root = get_logger()
            for handler in list(root.handlers):
                root.removeHandler(handler)

    def test_configure_logging_is_idempotent(self):
        stream = io.StringIO()
        configure_logging("debug", stream=stream)
        configure_logging("debug", stream=stream)
        try:
            assert len(get_logger().handlers) == 1
            assert get_logger().level == logging.DEBUG
        finally:
            root = get_logger()
            for handler in list(root.handlers):
                root.removeHandler(handler)

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")
