from itertools import product
from math import factorial

import pytest
from hypothesis import given

from parkbetti import (
    enumerate_parking_functions,
    generate_corpus,
    graph_to_text,
    is_parking_function,
    maximal_parking_functions,
    mpf_count,
    parse_graph,
    spanning_tree_count,
)

from _oracles import is_pf_oracle, mpf_oracle, mpf_set_oracle, pf_set_oracle
from conftest import multigraphs


def test_recognizer_basics(k3, banana):
    assert is_parking_function(k3, (0, 0))
    assert not is_parking_function(k3, (1, 1))
    b3 = banana(3)
    assert not is_parking_function(b3, (3,))
    assert is_parking_function(b3, (2,))


def test_recognizer_rejects_bad_input(k3):
    with pytest.raises(ValueError):
        is_parking_function(k3, (0,))
    with pytest.raises(ValueError):
        is_parking_function(k3, (-1, 0))


def test_burning_agrees_with_bruteforce_on_full_boxes():
    for G in generate_corpus(4, max_edges=6, include_multi=True):
        for s in range(G.n):
            Gs = G.with_sink(s)
            box = [range(Gs.degrees[v]) for v in Gs.nonsink_vertices]
            for config in product(*box):
                assert is_parking_function(Gs, config) == is_pf_oracle(Gs, config), (
                    graph_to_text(Gs), config
                )


@given(multigraphs())
def test_burning_agrees_with_bruteforce_on_random_multigraphs(G):
    # one chip past each degree too: such a vertex can never burn
    box = [range(G.degrees[v] + 1) for v in G.nonsink_vertices]
    for config in product(*box):
        assert is_parking_function(G, config) == is_pf_oracle(G, config), (
            graph_to_text(G), config
        )


def test_enumeration_known_sets(k3, kite, banana):
    assert enumerate_parking_functions(k3) == {(0, 0), (1, 0), (0, 1)}
    assert len(enumerate_parking_functions(kite)) == 8
    assert enumerate_parking_functions(banana(3)) == {(0,), (1,), (2,)}


def test_enumeration_counts_spanning_trees():
    for G in generate_corpus(4, max_edges=6, include_multi=True):
        for s in range(G.n):
            Gs = G.with_sink(s)
            assert len(enumerate_parking_functions(Gs)) == spanning_tree_count(Gs)


def test_enumeration_matches_oracle(kite):
    assert enumerate_parking_functions(kite) == pf_set_oracle(kite)


def test_maximal_known_sets(k3, kite, banana):
    assert maximal_parking_functions(k3) == {(1, 0), (0, 1)}
    assert maximal_parking_functions(kite) == {(0, 0, 2), (0, 1, 1), (1, 1, 0), (2, 0, 0)}
    assert maximal_parking_functions(banana(4)) == {(3,)}


def test_maximal_plus_unit_is_not_parking():
    for G in generate_corpus(4, max_edges=5, include_multi=True):
        for c in maximal_parking_functions(G):
            for i in range(len(c)):
                bumped = c[:i] + (c[i] + 1,) + c[i + 1:]
                assert not is_parking_function(G, bumped)


@given(multigraphs())
def test_maximal_are_the_parking_functions_of_degree_g(G):
    g = len(G.edges) - G.n + 1
    parking = pf_set_oracle(G)
    assert maximal_parking_functions(G) == mpf_set_oracle(G), graph_to_text(G)
    assert all(sum(c) <= g for c in parking), graph_to_text(G)
    assert enumerate_parking_functions(G) == parking, graph_to_text(G)


def test_mpf_count_of_complete_graphs():
    for n in range(2, 8):
        K = parse_graph(f"v:{n}; " + "; ".join(
            f"e{u}_{v} {u} {v}" for u in range(1, n + 1) for v in range(u + 1, n + 1)
        ))
        assert mpf_count(K) == factorial(n - 1)


def test_mpf_values(kite, k3):
    assert mpf_count(kite) == 4
    assert {mpf_count(k3.with_sink(s)) for s in range(3)} == {2}
    assert mpf_count(parse_graph("v:2; a 1 2")) == 1
    assert mpf_count(parse_graph("v:1")) == 1


def test_mpf_sink_invariant_and_matches_oracle():
    for G in generate_corpus(4, max_edges=6, include_multi=True):
        counts = {mpf_count(G.with_sink(s)) for s in range(G.n)}
        assert len(counts) == 1, graph_to_text(G)
        assert counts.pop() == mpf_oracle(G)
