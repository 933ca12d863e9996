import dataclasses
import json

import pytest
from hypothesis import given

from parkbetti import (
    ConnectedPartition,
    Edge,
    GraphParseError,
    GraphValidationError,
    Multigraph,
    bits,
    boundary_degree,
    connected_components,
    connected_partitions,
    contract,
    cut_set,
    enumerate_connected_cuts,
    generate_corpus,
    graph_from_json,
    graph_to_json,
    graph_to_text,
    is_connected_induced,
    is_connected_partition,
    mask_of,
    parse_graph,
    sink_fixing_automorphisms,
    spanning_tree_count,
    verification_corpus,
)

from _oracles import (
    components_oracle,
    connected_cuts_oracle,
    generated_group,
    sink_fixing_automorphisms_oracle,
    tree_count_oracle,
)

from conftest import KITE_TEXT, banana, multigraphs


def small_corpus():
    return generate_corpus(4, max_edges=6, include_multi=True)


class TestParsing:
    def test_kite(self, kite):
        assert kite.n == 4
        assert [e.label for e in kite.edges] == ["a", "b", "c", "d", "e"]
        assert [(e.tail, e.head) for e in kite.edges] == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        assert kite.sink == 3

    def test_single_edge(self):
        G = parse_graph("v:2; a 1 2")
        assert G.n == 2 and len(G.edges) == 1 and G.sink == 1

    def test_multiline_comments_and_sink(self):
        text = """
        # kite with explicit sink
        v:4
        a 1 2
        b 1 3; c 1 4
        d 2 3
        e 3 4
        sink:2
        """
        G = parse_graph(text)
        assert G.sink == 1
        assert graph_to_text(G).startswith("v:4; a 1 2")

    def test_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_graph("v:3; a 1 2; b 2 3; c 3 3")

    def test_disconnected_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_graph("v:4; a 1 2; b 3 4")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("v:2; a 1")

    def test_missing_header(self):
        with pytest.raises(GraphParseError):
            parse_graph("a 1 2")

    def test_duplicate_label(self):
        with pytest.raises(GraphValidationError):
            parse_graph("v:3; a 1 2; a 2 3")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphValidationError):
            parse_graph("v:2; a 1 3")

    def test_bad_sink(self):
        with pytest.raises(GraphValidationError):
            parse_graph("v:2; a 1 2; sink:5")

    def test_bad_sink_and_endpoint_messages_are_one_based(self, p3):
        # -1 is not a default that picks the last vertex
        for sink in (-1, p3.n):
            with pytest.raises(GraphValidationError, match=rf"^sink {sink + 1} outside 1\.\.3$"):
                p3.with_sink(sink)
        with pytest.raises(GraphValidationError, match=r"^sink 6 outside 1\.\.3$"):
            Multigraph(3, p3.edges, sink=5)
        with pytest.raises(GraphValidationError, match=r"^edge 'x' references a vertex outside 1\.\.3$"):
            Multigraph(3, p3.edges + (Edge("x", 0, 3),))
        with pytest.raises(GraphValidationError, match=r"^sink 0 outside 1\.\.2$"):
            parse_graph("v:2; a 1 2; sink:0")

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_graph("v:0")

    def test_single_vertex_ok(self):
        G = parse_graph("v:1")
        assert G.n == 1 and G.edges == ()

    def test_json_round_trip(self, kite):
        doc = graph_to_json(kite)
        again = graph_from_json(json.dumps(doc))
        assert again == kite

    def test_json_mirror_matches_text(self):
        G1 = parse_graph("v:3; a 1 2; b 2 3; sink:1")
        G2 = graph_from_json({"vertices": 3, "edges": [["a", 1, 2], ["b", 2, 3]], "sink": 1})
        assert G1 == G2

    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": 2, "edges": [["a", 1, 2]], "sink": "abc"},
            {"vertices": 2, "edges": [["a", 1, 2]], "sink": 1.5},
            {"vertices": 2, "edges": [["a", 1, 1.7]]},
            {"vertices": 2.9, "edges": [["a", 1, 2]]},
        ],
    )
    def test_json_non_integer_rejected(self, doc):
        # each of these was once read as a number: an error, or truncated
        with pytest.raises(GraphParseError):
            graph_from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": 2, "edges": ["a12"]},
            {"vertices": 2, "edges": {"a12": "a"}},
            {"vertices": 2, "edges": [["a", True, 2]]},
            {"vertices": 2, "edges": [["a", 1, 2]], "sink": True},
            {"vertices": 2, "edges": [[None, 1, 2]]},
            {"vertices": 2, "edges": [[7, 1, 2]]},
            {"vertices": 2, "edges": [["a b", 1, 2]]},
            {"vertices": 2, "edges": [["a#", 1, 2]]},
            {"vertices": 2, "edges": [["a;b", 1, 2]]},
            {"vertices": 2, "edges": [["", 1, 2]]},
            {"vertices": 2, "edges": [["v:3", 1, 2]]},
        ],
        ids=["row-string", "edges-object", "bool-vertex", "bool-sink",
             "null-label", "number-label", "space-label", "hash-label", "semicolon-label",
             "empty-label", "header-label"],
    )
    def test_json_malformed_rows_and_labels_rejected(self, doc):
        # each was once read as a graph, and the bad labels as text that
        # parse_graph rejects
        with pytest.raises(GraphParseError):
            graph_from_json(doc)

    def test_json_integral_values_accepted(self):
        doc = {"vertices": 2.0, "edges": [["a", "1", 2.0]], "sink": "1"}
        assert graph_from_json(doc) == parse_graph("v:2; a 1 2; sink:1")


class TestConnectivity:
    def test_kite_subsets(self, kite):
        assert is_connected_induced(kite, mask_of([0, 1, 2]))
        assert not is_connected_induced(kite, mask_of([1, 3]))
        assert is_connected_induced(kite, mask_of([0]))

    def test_empty_subset_rejected(self, kite):
        with pytest.raises(ValueError):
            is_connected_induced(kite, 0)


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple(Edge(f"e{v + 1}", v, v + 1) for v in range(n - 1)))


class TestComponentCache:
    @given(multigraphs())
    def test_every_mask_matches_the_oracle(self, G):
        cold = dataclasses.replace(G)
        masks = range(1, 1 << G.n)
        want = {m: components_oracle(G, m) for m in masks}
        for _ in range(2):  # cold, then read back from the cache
            for m in masks:
                assert connected_components(cold, m) == want[m], (graph_to_text(G), m)
                assert is_connected_induced(cold, m) == (len(want[m]) == 1)
        assert set(cold._components) == set(masks)
        # sink copies share the cache, and answer the same from it
        for sink in range(G.n):
            Gs = cold.with_sink(sink)
            assert Gs.sink == sink and Gs._components is cold._components
            for m in masks:
                assert connected_components(Gs, m) == want[m]
                assert is_connected_induced(Gs, m) == (len(want[m]) == 1)
        # a sink copy of a cold graph fills the cache its source reads
        fresh = dataclasses.replace(G)
        for m in masks:
            assert connected_components(fresh.with_sink(G.sink), m) == want[m]
        assert set(fresh._components) == set(masks)
        assert all(connected_components(fresh, m) == want[m] for m in masks)

    def test_stores_only_the_masks_asked_for(self):
        G = path_graph(32)
        asked = [G.full_mask, 0b1011, (1 << 31) | 1, 0b111 << 20]
        assert is_connected_induced(G, asked[0])
        assert connected_components(G, asked[1]) == (0b11, 0b1000)
        assert connected_components(G, asked[2]) == (1, 1 << 31)
        assert is_connected_induced(G, asked[3])
        assert is_connected_induced(G, asked[3])
        assert set(G._components) == set(asked)

    def test_replace_starts_an_empty_cache(self, kite):
        connected_components(kite, kite.full_mask)
        assert kite._components
        copy = dataclasses.replace(kite)
        assert copy == kite
        assert copy._components == {} and copy._components is not kite._components

    def test_bad_masks_raise_before_the_lookup(self, kite):
        outside = 1 << kite.n | 1
        # a poisoned entry would answer if the lookup came first
        kite._components.update({0: (1,), outside: (outside,)})
        with pytest.raises(ValueError):
            is_connected_induced(kite, 0)
        with pytest.raises(ValueError):
            is_connected_induced(kite, outside)
        with pytest.raises(ValueError):
            connected_components(kite, outside)
        fresh = dataclasses.replace(kite)
        for mask in (0, outside):
            with pytest.raises(ValueError):
                is_connected_induced(fresh, mask)
        assert fresh._components == {}


class TestCuts:
    def test_kite_cuts(self, kite):
        cuts = enumerate_connected_cuts(kite)
        assert [bits(c.u_side) for c in cuts] == [
            (0,), (1,), (0, 1), (2,), (1, 2), (0, 1, 2),
        ]

    def test_path_cuts(self, p3):
        assert [bits(c.u_side) for c in enumerate_connected_cuts(p3)] == [(0,), (0, 1)]

    def test_banana_single_cut(self, banana):
        for k in (1, 2, 3):
            assert len(enumerate_connected_cuts(banana(k))) == 1

    def test_cuts_match_oracle_everywhere(self):
        for G in small_corpus():
            for s in range(G.n):
                Gs = G.with_sink(s)
                assert enumerate_connected_cuts(Gs) == connected_cuts_oracle(Gs), graph_to_text(Gs)

    @given(multigraphs())
    def test_cuts_match_oracle_on_multigraphs_at_every_sink(self, G):
        # same list, same order; and the subset pass leaves the cache alone
        for s in range(G.n):
            Gs = dataclasses.replace(G, sink=s)
            assert enumerate_connected_cuts(Gs) == connected_cuts_oracle(Gs), graph_to_text(Gs)
            assert Gs._components == {}

    def test_boundary_degree(self, kite):
        assert boundary_degree(kite, mask_of([0]), 0) == 3
        assert boundary_degree(kite, mask_of([0, 1]), 0) == 2
        assert boundary_degree(kite, mask_of([0, 1]), 3) == 0

    def test_cut_set_examples(self, kite):
        cuts = {bits(c.u_side): c for c in enumerate_connected_cuts(kite)}
        assert cut_set(kite, cuts[(0,)]) == {"a", "b", "c"}
        assert cut_set(kite, cuts[(1, 2)]) == {"a", "b", "e"}

    def test_cut_set_crossing_total(self):
        # each crossing edge is counted once from its U endpoint
        for G in small_corpus():
            for c in enumerate_connected_cuts(G):
                total = sum(boundary_degree(G, c.u_side, v) for v in bits(c.u_side))
                assert total == len(cut_set(G, c))


class TestPartitionsAndContraction:
    def test_kite_partition_counts(self, kite):
        parts = connected_partitions(kite)
        by_count = {}
        for p in parts:
            by_count[p.part_count] = by_count.get(p.part_count, 0) + 1
        assert by_count == {1: 1, 2: 6, 3: 5, 4: 1}

    def test_contract_example(self, kite):
        p = ConnectedPartition((mask_of([0, 2]), mask_of([1]), mask_of([3])))
        H = contract(kite, p)
        assert H.n == 3
        surviving = {(e.label, e.tail, e.head) for e in H.edges}
        assert surviving == {("a", 1, 0), ("c", 1, 2), ("d", 0, 1), ("e", 1, 2)}
        assert H.sink == 2

    def test_contract_whole_and_discrete(self, kite):
        assert contract(kite, ConnectedPartition.whole(4)).n == 1
        assert contract(kite, ConnectedPartition.singletons(4)) == kite

    def test_contract_counts(self):
        for G in small_corpus():
            for p in connected_partitions(G):
                H = contract(G, p)
                intra = sum(
                    1 for e in G.edges
                    if p.block_containing(e.tail) == p.block_containing(e.head)
                )
                assert H.n == p.part_count
                assert len(H.edges) == len(G.edges) - intra

    def test_contract_rejects_bad_partition(self, kite):
        disconnected = ConnectedPartition((mask_of([1, 3]), mask_of([0, 2])))
        with pytest.raises(GraphValidationError):
            contract(kite, disconnected)
        not_covering = ConnectedPartition((mask_of([0, 1]),))
        assert not is_connected_partition(kite, not_covering)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            ConnectedPartition((0b11, 0b10))
        with pytest.raises(ValueError):
            ConnectedPartition((0,))


class TestTreeCount:
    def test_known_values(self, kite, k3, banana):
        assert spanning_tree_count(kite) == 8
        assert spanning_tree_count(k3) == 3
        for k in (1, 2, 3, 4):
            assert spanning_tree_count(banana(k)) == k

    def test_against_oracle(self):
        for G in small_corpus():
            assert spanning_tree_count(G) == tree_count_oracle(G), graph_to_text(G)

    def test_invariant_under_discrete_contraction(self):
        for G in small_corpus():
            H = contract(G, ConnectedPartition.singletons(G.n))
            assert spanning_tree_count(H) == spanning_tree_count(G)

    def test_single_vertex(self):
        assert spanning_tree_count(parse_graph("v:1")) == 1


class TestSinkAutomorphisms:
    def test_matches_oracle_at_every_sink_of_the_corpus(self):
        # the 5-vertex acceptance corpus (multigraphs included) and the 112
        # connected simple graphs on 6 vertices; order matters, since the
        # orbit representatives of the lcm-lattice methods follow it
        six = [G for G in generate_corpus(6, max_edges=15) if G.n == 6]
        assert len(six) == 112
        for G in verification_corpus(5) + six:
            for sink in range(G.n):
                Gs = G.with_sink(sink)
                assert sink_fixing_automorphisms(Gs) == sink_fixing_automorphisms_oracle(Gs), graph_to_text(Gs)

    @given(multigraphs())
    def test_matches_oracle_on_multigraphs(self, G):
        assert sink_fixing_automorphisms(G) == sink_fixing_automorphisms_oracle(G)

    @given(multigraphs())
    def test_greedy_generating_set_at_every_sink(self, G):
        # each kept map is the first one that the maps kept before it do
        # not generate, and together they generate every automorphism
        for sink in range(G.n):
            Gs = G.with_sink(sink)
            group = sink_fixing_automorphisms(Gs)
            gens = Gs.sink_automorphisms
            for i, sigma in enumerate(gens):
                before = generated_group(gens[:i], G.n)
                assert sigma not in before, graph_to_text(Gs)
                assert all(tau in before for tau in group[:group.index(sigma)]), graph_to_text(Gs)
            assert generated_group(gens, G.n) == set(group), graph_to_text(Gs)
            assert 2 ** len(gens) <= len(group)

    @given(multigraphs())
    def test_a_group_with_the_identity_first(self, G):
        autos = sink_fixing_automorphisms(G)
        assert autos[0] == tuple(range(G.n))
        assert len(set(autos)) == len(autos)
        assert all(sigma[G.sink] == G.sink for sigma in autos)
        found = set(autos)
        for sigma in autos:
            for tau in autos:
                assert tuple(sigma[tau[v]] for v in range(G.n)) in found
