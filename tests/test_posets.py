from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkbetti import (
    ConnectedPartition,
    FiniteLattice,
    LatticeError,
    Monomial,
    NotGradedError,
    bits,
    connected_partition_lattice,
    cutset_ideal,
    dual_connected_partition_lattice,
    enumerate_connected_cuts,
    generate_corpus,
    lattice_isomorphism_failure,
    lattice_to_dot,
    lattice_to_json,
    lcm_lattice,
    mask_of,
    oriented_cutset_ideal,
    parking_ideal,
    parse_graph,
    separating_edges,
)

from _oracles import connected_common_refinement, interval_chain_faces, partition_refines
from conftest import multigraphs


def chain(n):
    return FiniteLattice(range(n), [(1 << i) - 1 for i in range(n)])


class TestFiniteLattice:
    def test_divisors_of_six(self):
        # divisors of 6 by their codes: one bit for each of the primes 2 and 3
        L = FiniteLattice([1, 2, 3, 6], [0b00, 0b10, 0b01, 0b11])
        assert L.bottom == 1 and L.top == 6
        assert L.join(2, 3) == 6
        assert L.rank_profile() == (1, 2, 1)
        mu = L.mobius()
        assert mu == {1: 1, 2: -1, 3: -1, 6: 1}

    def test_chain_mobius(self):
        L = chain(3)
        assert L.mobius() == {0: 1, 1: -1, 2: 0}

    def test_poset_without_top_rejected(self):
        with pytest.raises(LatticeError):
            FiniteLattice(["bot", "x", "y"], [0b00, 0b10, 0b01])

    def test_shared_vector_rejected(self):
        # equal codes would make two elements below each other
        with pytest.raises(LatticeError, match="share a code"):
            FiniteLattice(["a", "b", "c"], [0, 1, 1])

    def test_duplicate_element_and_empty_rejected(self):
        with pytest.raises(LatticeError, match="duplicate"):
            FiniteLattice(["a", "a"], [0, 1])
        with pytest.raises(LatticeError):
            FiniteLattice([], [])

    def test_long_chain_covers_and_rank(self):
        # 258 elements, with codes up to 257 bits wide
        n = 258
        L = chain(n)
        assert L.upper_covers(0) == [1]
        assert L.rank(n - 1) == n - 1

    def test_not_graded_detected(self):
        # the pentagon: 0 < a < 1 and 0 < b < c < 1, a beside b and c
        L = FiniteLattice(["0", "a", "b", "c", "1"], [0b000, 0b100, 0b001, 0b011, 0b111])
        with pytest.raises(NotGradedError):
            L.rank("1")

    def test_dual_involution(self, kite):
        L = connected_partition_lattice(kite)
        assert L.dual().dual() == L

    def test_chain_self_dual(self):
        D = chain(4).dual()
        assert D.bottom == 3 and D.top == 0
        assert D.rank_profile() == (1, 1, 1, 1)


def brute_force_covers(L):
    """Pairs (i, j) with element i strictly below element j and nothing
    strictly between, from pairwise comparisons of the elements: the covers
    of i are the minimal elements of its strict up-set."""
    elems = L.elements
    strict = np.array([[a != b and L.leq(a, b) for b in elems] for a in elems])
    pairs = set()
    for i in range(len(elems)):
        up = np.flatnonzero(strict[i])
        minimal = up[~strict[np.ix_(up, up)].any(axis=0)]
        pairs |= {(i, int(j)) for j in minimal}
    return pairs


class TestOrderProducts:
    @given(multigraphs())
    def test_covers_match_brute_force(self, G):
        lattices = [lcm_lattice(build(G)) for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal)]
        lattices.append(dual_connected_partition_lattice(G))
        for L in lattices:
            assert "_covers" not in vars(L)  # made on first use, not on construction
            assert set(L.cover_pairs()) == brute_force_covers(L)

    @given(st.lists(st.integers(1, 2**100 - 1), min_size=1, max_size=5), st.randoms())
    def test_wide_codes_against_brute_force(self, gens, rng):
        # the OR-closure of up to 5 generators of up to 100 bits, plus 0,
        # in a random element order, against pairwise tests on the codes
        codes = {0}
        for g in gens:
            codes |= {c | g for c in codes}
        codes = sorted(codes)
        rng.shuffle(codes)
        L = FiniteLattice(codes, codes)
        strict = {(a, b) for a in codes for b in codes if a != b and not a & ~b}
        for a in codes:
            for b in codes:
                assert L.leq(a, b) == (a == b or (a, b) in strict)
        covers = {
            (a, b) for a, b in strict
            if not any((a, c) in strict and (c, b) in strict for c in codes)
        }
        assert {(codes[i], codes[j]) for i, j in L.cover_pairs()} == covers
        mu = L.mobius()
        assert mu[0] == 1
        for x in codes:
            if x:
                assert sum(mu[y] for y in codes if not y & ~x) == 0
        assert L.dual().dual() == L


class TestLazyOrder:
    @given(multigraphs())
    def test_partition_order_is_refinement(self, G):
        L = connected_partition_lattice(G)
        D = L.dual()
        for p in L.elements:
            for q in L.elements:
                assert L.leq(p, q) == partition_refines(p, q)
                assert D.leq(q, p) == partition_refines(p, q)

    def test_lcm_lattice_elements_build_no_order(self, kite):
        # betti_gpw and betti_koszul build no lattice at all (test_homology)
        L = lcm_lattice(parking_ideal(kite))
        assert L.elements[0] == L.bottom and len(L) == 33
        assert "_up" not in vars(L)


class TestPartitionLattices:
    def test_kite_sizes(self, kite):
        L = connected_partition_lattice(kite)
        assert len(L) == 13
        assert L.rank_profile() == (1, 5, 6, 1)
        Ld = L.dual()
        assert Ld.rank_profile() == (1, 6, 5, 1)
        assert Ld.bottom == ConnectedPartition.whole(4)
        assert Ld.top == ConnectedPartition.singletons(4)

    def test_small_graphs(self, k3, p3):
        assert dual_connected_partition_lattice(k3).rank_profile() == (1, 3, 1)
        assert dual_connected_partition_lattice(p3).rank_profile() == (1, 2, 1)
        two = parse_graph("v:2; a 1 2")
        assert len(connected_partition_lattice(two)) == 2

    def test_kite_three_part_blocks(self, kite):
        L = dual_connected_partition_lattice(kite)
        three_part = {p.blocks for p in L.elements if p.part_count == 3}
        merged_pairs = {mask_of(m) for m in ([0, 1], [0, 2], [0, 3], [1, 2], [2, 3])}
        expected = set()
        for m in merged_pairs:
            rest = [1 << v for v in range(4) if not (m >> v) & 1]
            expected.add(tuple(sorted([m] + rest)))
        assert three_part == expected

    def test_kite_mobius_exact(self, kite):
        Ld = dual_connected_partition_lattice(kite)
        mu = Ld.mobius()
        assert mu[ConnectedPartition.whole(4)] == 1
        assert mu[ConnectedPartition.singletons(4)] == -4
        for p in Ld.atoms():
            assert mu[p] == -1
        by_merged = {}
        for p in Ld.elements:
            if p.part_count == 3:
                doubled = next(b for b in p.blocks if bin(b).count("1") == 2)
                by_merged[bits(doubled)] = mu[p]
        assert by_merged == {(0, 1): 2, (0, 2): 1, (0, 3): 2, (1, 2): 2, (2, 3): 2}

    def test_mobius_recursion_residuals(self):
        for G in generate_corpus(4, max_edges=6, include_multi=True):
            L = dual_connected_partition_lattice(G)
            mu = L.mobius()
            for x in L.elements:
                if x == L.bottom:
                    continue
                residual = sum(mu[y] for y in L.elements if L.leq(y, x))
                assert residual == 0

    def test_atoms_are_cuts(self, kite):
        Ld = dual_connected_partition_lattice(kite)
        atoms = {p.blocks for p in Ld.atoms()}
        cuts = {
            tuple(sorted((c.u_side, c.w_side))) for c in enumerate_connected_cuts(kite)
        }
        assert atoms == cuts
        assert len(atoms) == 6

    def test_dual_rank_is_parts_minus_one(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            Ld = dual_connected_partition_lattice(G)
            for p in Ld.elements:
                assert Ld.rank(p) == p.part_count - 1

    def test_join_procedure_matches_lattice_join(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            Ld = dual_connected_partition_lattice(G)
            elems = Ld.elements
            for p in elems:
                assert Ld.join(p, Ld.bottom) == p
            for i, p in enumerate(elems):
                for q in elems[i:]:
                    assert Ld.join(p, q) == connected_common_refinement(G, p, q)

    @given(multigraphs())
    def test_every_join_is_the_common_refinement(self, G):
        # every pair, on multigraphs up to 5 vertices with a random sink:
        # the join is the procedure's partition and separates the union
        Ld = dual_connected_partition_lattice(G)
        separated = {p: separating_edges(G, p) for p in Ld.elements}
        for p, q in combinations(Ld.elements, 2):
            joined = Ld.join(p, q)
            assert joined == connected_common_refinement(G, p, q)
            assert separated[joined] == separated[p] | separated[q]

    def test_kite_atom_join_example(self, kite):
        Ld = dual_connected_partition_lattice(kite)
        a1 = next(p for p in Ld.atoms() if mask_of([0]) in p.blocks)
        a2 = next(p for p in Ld.atoms() if mask_of([1]) in p.blocks)
        joined = Ld.join(a1, a2)
        assert joined.blocks == (mask_of([0]), mask_of([1]), mask_of([2, 3]))

    def test_every_element_is_join_of_atoms(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            Ld = dual_connected_partition_lattice(G)
            atoms = Ld.atoms()
            for x in Ld.elements:
                if x == Ld.bottom:
                    continue
                below = [a for a in atoms if Ld.leq(a, x)]
                acc = below[0]
                for a in below[1:]:
                    acc = Ld.join(acc, a)
                assert acc == x

    def test_separating_edges_of_join_is_union(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            Ld = dual_connected_partition_lattice(G)
            elems = Ld.elements
            for i, p in enumerate(elems):
                for q in elems[i:]:
                    j = connected_common_refinement(G, p, q)
                    assert separating_edges(G, j) == separating_edges(G, p) | separating_edges(G, q)


def brute_force_chains(L, y):
    """Every chain inside the open interval (bottom, y), from pairwise
    comparisons of the elements."""
    interior = [x for x in L.elements if x not in (L.bottom, y) and L.leq(x, y)]
    return [
        c for r in range(len(interior) + 1) for c in combinations(interior, r)
        if all(L.leq(a, b) or L.leq(b, a) for a, b in combinations(c, 2))
    ]


class TestOrderComplex:
    def test_atom_interval_is_empty_complex(self, k3):
        Ld = dual_connected_partition_lattice(k3)
        assert interval_chain_faces(Ld, Ld.atoms()[0]) == {-1: [()]}

    def test_rank_two_interval_is_points(self, k3):
        Ld = dual_connected_partition_lattice(k3)
        assert interval_chain_faces(Ld, Ld.top) == {-1: [()], 0: [(0,), (1,), (2,)]}

    def test_bottom_rejected(self, k3):
        Ld = dual_connected_partition_lattice(k3)
        with pytest.raises(ValueError):
            interval_chain_faces(Ld, Ld.bottom)

    def test_chain_faces_match_order_complex(self, kite):
        Ld = dual_connected_partition_lattice(kite)
        for y in Ld.elements:
            if y == Ld.bottom:
                continue
            faces = interval_chain_faces(Ld, y)
            by_dim: dict[int, int] = {}
            for c in brute_force_chains(Ld, y):
                by_dim[len(c) - 1] = by_dim.get(len(c) - 1, 0) + 1
            assert {d: len(v) for d, v in faces.items()} == by_dim


class TestIsomorphism:
    def test_identity(self, kite):
        L = connected_partition_lattice(kite)
        assert lattice_isomorphism_failure(L, L, {x: x for x in L.elements}) is None

    def test_kite_duality_map(self, kite):
        Ld = dual_connected_partition_lattice(kite)
        LJ = lcm_lattice(cutset_ideal(kite))
        assert len(LJ) == 13
        phi = {
            p: Monomial.of({f"y_{l}": 1 for l in separating_edges(kite, p)})
            for p in Ld.elements
        }
        assert lattice_isomorphism_failure(Ld, LJ, phi) is None

    def test_non_bijective_reported(self):
        L = chain(3)
        collapse = {0: 0, 1: 0, 2: 2}
        assert lattice_isomorphism_failure(L, L, collapse) == "not-bijective"

    def test_order_violation_reported(self):
        L = chain(3)
        swap = {0: 0, 1: 2, 2: 1}
        assert lattice_isomorphism_failure(L, L, swap) == "order-violation"

    def test_partial_map_rejected(self):
        L = chain(2)
        with pytest.raises(ValueError):
            lattice_isomorphism_failure(L, L, {0: 0})


class TestExports:
    def test_json_export(self, k3):
        Ld = dual_connected_partition_lattice(k3)
        doc = lattice_to_json(Ld)
        assert len(doc["elements"]) == 5
        assert doc["mobius"].count(-1) == 3
        assert doc["ranks"] == [Ld.rank(x) for x in Ld.elements]

    def test_dot_export(self, k3):
        Ld = dual_connected_partition_lattice(k3)
        dot = lattice_to_dot(Ld)
        assert dot.startswith("digraph")
        assert dot.count("->") == len(Ld.cover_pairs())
