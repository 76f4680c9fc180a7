import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples, so a Tier-1 result does not hang on
# the draw
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

from gpdkit import corpus


@pytest.fixture(scope="session")
def pair2():
    return corpus.pair_groupoid(2)


@pytest.fixture(scope="session")
def z3():
    return corpus.cyclic_groupoid(3)


@pytest.fixture(scope="session")
def heis3():
    return corpus.heisenberg_groupoid(3)


@pytest.fixture(scope="session")
def heis3_quotient():
    return corpus.heisenberg_quotient(3)


@pytest.fixture(scope="session")
def flip_groupoid():
    from gpdkit import build_action_groupoid
    return build_action_groupoid(corpus.flip_action())


@pytest.fixture(scope="session")
def cuntz():
    return corpus.cuntz_graphs()
