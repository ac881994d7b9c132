"""Benchmark-directory conftest: everything collected here is ``bench``.

The ``bench`` marker keeps the gate's self-test (``benchmarks/gate/``) out
of the default (tier-1) selection; run it with
``pytest benchmarks/gate -q -m bench``.  The benchmark itself is
``python3 benchmarks/gate/run.py``.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.bench)
