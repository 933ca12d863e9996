import pytest
from hypothesis import settings
from hypothesis import strategies as st

from parkbetti import Edge, Multigraph, parse_graph

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


@st.composite
def multigraphs(draw):
    """Connected loopless multigraphs on 2-5 vertices, at most 3 parallel
    edges per vertex pair, with a random sink: a random spanning tree plus
    up to four extra edges."""
    n = draw(st.integers(2, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = [
        (tail, (tail + shift) % n)
        for tail, shift in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=4))
    ]
    edges = []
    for tail, head in pairs + extra:
        pair = (min(tail, head), max(tail, head))
        if sum(1 for e in edges if (min(e.tail, e.head), max(e.tail, e.head)) == pair) < 3:
            edges.append(Edge(f"e{len(edges) + 1}", tail, head))
    return Multigraph(n, tuple(edges), draw(st.integers(0, n - 1)))
