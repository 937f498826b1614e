"""The top-level ``repro`` package: its lazily resolved public names."""

from __future__ import annotations

import pytest

import repro
import repro.api
from repro.core.client import Client
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment

#: Each name in ``repro.__all__`` and the object it must resolve to.
EXPORTS = {
    "AlpenhornConfig": AlpenhornConfig,
    "CallHandle": repro.api.CallHandle,
    "Client": Client,
    "ClientSession": repro.api.ClientSession,
    "Deployment": Deployment,
    "EventBus": repro.api.EventBus,
    "FriendRequestHandle": repro.api.FriendRequestHandle,
    "RequestState": repro.api.RequestState,
}


def test_all_names_exactly_the_exports_and_version():
    assert sorted(repro.__all__) == sorted([*EXPORTS, "__version__"])
    assert isinstance(repro.__version__, str)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_lazy_export_resolves_to_its_home_object(name):
    assert getattr(repro, name) is EXPORTS[name]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro, "Session")
