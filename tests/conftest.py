import pytest
from hypothesis import settings

from parkbetti import parse_graph

# Property tests run a fixed, reproducible example set within tier-1's budget.
settings.register_profile("parkbetti", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("parkbetti")

KITE_TEXT = "v:4; a 1 2; b 1 3; c 1 4; d 2 3; e 3 4"


@pytest.fixture
def kite():
    return parse_graph(KITE_TEXT)


@pytest.fixture
def k3():
    return parse_graph("v:3; a 1 2; b 1 3; c 2 3")


@pytest.fixture
def p3():
    return parse_graph("v:3; a 1 2; b 2 3")


@pytest.fixture
def c4():
    return parse_graph("v:4; a 1 2; b 2 3; c 3 4; d 1 4")


def banana(k: int):
    lines = "; ".join(f"e{i} 1 2" for i in range(1, k + 1))
    return parse_graph(f"v:2; {lines}")


@pytest.fixture(name="banana")
def banana_fixture():
    return banana
