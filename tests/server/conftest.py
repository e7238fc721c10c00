"""Shared fixtures: an in-process gateway on a background thread.

``gateway_factory`` lives in the top-level ``tests/conftest.py``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def gateway(gateway_factory):
    return gateway_factory()
