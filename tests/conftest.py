"""Shared test configuration.

Hypothesis is pinned to a derandomized profile so the suite is bit-stable
run to run; deadlines are off because a few strategies build numpy arrays
large enough to trip the default 200ms budget on slow machines.

The engine holds a record of the last Dataset it fitted (its uniform-weight
row factor and its dispersions); it is emptied before every test, so no
test's counts depend on the tests run before it.
"""

import pytest
from hypothesis import settings

from sparsekm import engine

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _empty_held_record():
    engine._HELD.clear()
