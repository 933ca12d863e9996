import os
import random
import subprocess
import sys
from collections import defaultdict
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parkbetti import (
    CharacteristicDisagreement,
    FiniteLattice,
    Monomial,
    MonomialIdeal,
    betti_gpw,
    betti_koszul,
    betti_mobius,
    betti_wilmes,
    cutset_ideal,
    dual_connected_partition_lattice,
    generate_corpus,
    graph_to_text,
    interval_homology_audit,
    lcm_closure,
    lcm_lattice,
    oriented_cutset_ideal,
    parking_ideal,
    parse_graph,
    rank_over,
    sink_fixing_automorphisms,
    variable_symmetries,
    verify_graph,
)
from parkbetti import homology as homology_module
from parkbetti import simplicial
from parkbetti.homology import (
    DEFAULT_CHARS,
    _SETTLED,
    _ReductionMemo,
    _crosscut_masks,
    _koszul_masks,
    _label,
    _orbit_representatives,
    _strong_core,
    _transpose,
    relative_faces,
)
from parkbetti.simplicial import _unit_eliminate, homology_from_faces_multi

from _oracles import (
    betti_wilmes_oracle,
    boundary_matrices,
    crosscut_faces_oracle,
    faces_by_dim,
    generated_group,
    interval_chain_faces,
    koszul_facets_oracle,
    koszul_faces_oracle,
    koszul_masks_oracle,
    rank_oracle,
    relative_to_star,
    strong_core_alternation_oracle,
    strong_core_oracle,
)
from conftest import KITE_TEXT, multigraphs

C5_TEXT = "v:5; a 1 2; b 2 3; c 3 4; d 4 5; e 1 5"
C6_TEXT = "v:6; a 1 2; b 2 3; c 3 4; d 4 5; e 5 6; f 1 6"

RP2_FACETS = (
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
)
RP2 = faces_by_dim(RP2_FACETS)
# vertex v's mask has bit i when the i-th facet holds v
RP2_MASKS = [sum(1 << i for i, f in enumerate(RP2_FACETS) if v in f) for v in range(6)]


def seeded_complexes():
    """Face families of RP2 and 40 seeded random complexes on at most 7
    vertices."""
    rng = random.Random(11)
    return [RP2] + [
        faces_by_dim(
            rng.sample(range(7), rng.randint(1, 4)) for _ in range(rng.randint(1, 9))
        )
        for _ in range(40)
    ]


def rp2_stanley_reisner_ideal():
    """The 10 squarefree cubics of the triangles missing from RP2."""
    variables = tuple(f"x{i + 1}" for i in range(6))
    return MonomialIdeal(
        variables,
        tuple(
            Monomial.of({variables[i]: 1 for i in t})
            for t in combinations(range(6), 3)
            if t not in RP2_FACETS
        ),
    )


def rp2_disagreement():
    """The message ``betti_gpw`` raises on the RP2 Stanley-Reisner ideal
    over the default characteristics."""
    return (
        "homology depends on the field (char 32003: {}; char 2: {1: 1, 2: 1}) "
        "[x1*x2*x3*x4*x5*x6]"
    )


def rp2_koszul_disagreement():
    """The message ``betti_koszul`` raises on the RP2 Stanley-Reisner ideal
    over the default characteristics."""
    return (
        "homology depends on the field (char 32003: {}; char 2: {1: 1, 2: 1}) "
        "[degree x1*x2*x3*x4*x5*x6]"
    )


def nonzero(dims):
    return {d: v for d, v in dims.items() if v}


def reduced_homology_dims(faces, char):
    return homology_from_faces_multi(faces, (char,))[char]


def crosscut_masks(atoms, top):
    """The facet masks of the crosscut complex of [1, top] on ``atoms``:
    the bits of top outside each atom."""
    return [top & ~a for a in atoms]


def chain_homology(lat, y):
    """Reduced homology of the whole order complex of (bottom, y)."""
    by_char = homology_from_faces_multi(interval_chain_faces(lat, y), (32003, 2))
    assert by_char[32003] == by_char[2]
    return by_char[2]


class TestSimplicialComplex:
    def test_facet_canonicalization(self):
        # faces of a facet, repeated or reordered facets add nothing
        edge = {-1: [()], 0: [(0,), (1,)], 1: [(0, 1)]}
        assert faces_by_dim([(0, 1), (1,), (0,), (), (1, 0)]) == edge
        assert faces_by_dim([(1, 0, 1)]) == edge

    def test_void_vs_empty(self):
        assert faces_by_dim([]) == {}
        assert faces_by_dim([()]) == {-1: [()]}

    def test_faces_by_dim(self):
        faces = faces_by_dim([(0, 1, 2)])
        assert faces[-1] == [()]
        assert faces[1] == [(0, 1), (0, 2), (1, 2)]
        assert faces_by_dim([(0, 1), (1, 2), (3,)]) == {
            -1: [()], 0: [(0,), (1,), (2,), (3,)], 1: [(0, 1), (1, 2)],
        }


class TestReducedHomology:
    def test_empty_and_void(self):
        assert reduced_homology_dims(faces_by_dim([()]), 2) == {-1: 1}
        assert reduced_homology_dims(faces_by_dim([]), 2) == {}

    def test_isolated_points(self):
        points = faces_by_dim([(0,), (1,), (2,), (3,)])
        assert nonzero(reduced_homology_dims(points, 32003)) == {0: 3}

    def test_circle_sphere_disc(self):
        circle = faces_by_dim([(0, 1), (1, 2), (0, 2)])
        assert nonzero(reduced_homology_dims(circle, 32003)) == {1: 1}
        sphere = faces_by_dim([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert nonzero(reduced_homology_dims(sphere, 32003)) == {2: 1}
        disc = faces_by_dim([(0, 1, 2)])
        assert nonzero(reduced_homology_dims(disc, 32003)) == {}

    def test_all_characteristics_agree_on_spheres(self):
        sphere = faces_by_dim([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        for char in (0, 2, 3, 32003):
            assert nonzero(reduced_homology_dims(sphere, char)) == {2: 1}

    def test_torsion_detected(self):
        assert nonzero(reduced_homology_dims(RP2, 2)) == {1: 1, 2: 1}
        assert nonzero(reduced_homology_dims(RP2, 32003)) == {}
        assert nonzero(reduced_homology_dims(RP2, 0)) == {}
        with pytest.raises(CharacteristicDisagreement):
            _ReductionMemo(DEFAULT_CHARS)._reduced(RP2_MASKS, str)

    def test_boundary_matrices_compose_to_zero(self):
        mats = boundary_matrices(RP2)
        for d in mats:
            if d + 1 in mats:
                assert not np.any(mats[d] @ mats[d + 1])

    def test_bad_characteristic_rejected(self):
        with pytest.raises(ValueError):
            rank_over(np.eye(2, dtype=int), 4)
        with pytest.raises(ValueError):
            rank_over(np.eye(2, dtype=int), 2**31 + 11)  # a prime, but too large
        # rejected even where no dense core is left to rank
        with pytest.raises(ValueError):
            reduced_homology_dims(faces_by_dim([(0,)]), 4)

    def test_matches_full_boundary_ranks(self):
        # the cleared reduction against plain ranks of the whole boundary maps
        for faces in seeded_complexes():
            mats = boundary_matrices(faces)
            for char in (2, 3, 0):
                ranks = {d: rank_oracle(m.tolist(), char) for d, m in mats.items()}
                expected = {
                    d: len(faces[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in faces
                }
                assert reduced_homology_dims(faces, char) == expected, (faces, char)

    def test_relative_to_star_keeps_homology(self):
        # H~(D) = H(del v, lk v): RP2's 2-torsion checks the identity over
        # fields of both kinds
        for faces in seeded_complexes():
            relative = relative_to_star(faces)
            for char in (2, 3, 0):
                full = homology_from_faces_multi(faces, (char,))[char]
                via_star = homology_from_faces_multi(relative, (char,))[char]
                assert nonzero(via_star) == nonzero(full), (faces, char)


class TestRankOver:
    @pytest.mark.parametrize("char", [2, 3, 32003, 2**31 - 1, 0])
    def test_matches_oracle(self, char):
        rng = np.random.default_rng(char % 1000 + 7)
        for rows, cols, inner, bound in [
            (9, 4, None, 4), (4, 9, None, 4), (13, 8, None, 2**40),
            (8, 8, 3, 4), (12, 7, 2, 4), (6, 11, 4, 4), (10, 10, 5, 40000),
        ]:
            for _ in range(4):
                if inner is None:
                    m = rng.integers(-bound, bound, size=(rows, cols))
                else:  # rank at most inner
                    m = rng.integers(-bound, bound, size=(rows, inner)) @ rng.integers(
                        -bound, bound, size=(inner, cols))
                assert rank_over(m, char) == rank_oracle(m.tolist(), char), m
        assert rank_over(np.zeros((3, 5), dtype=int), char) == 0

    def test_python_int_rows_beyond_int64(self):
        # entries past 2^63, as fill-in can make them, are ranked exactly:
        # reduced mod p as Python ints, and by Bareiss over the rationals
        big = 2**64
        rows = [[big + 1, big - 1], [big - 1, big + 1], [2 * big, 2 * big]]
        for char in (0, 2, 32003):
            assert rank_over(rows, char) == rank_oracle(rows, char), char
        assert [rank_over(rows, char) for char in (0, 2)] == [2, 1]


NO_NUMPY_SCRIPT = """
import ast
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from parkbetti import CharacteristicDisagreement, parse_graph, rank_over, verify_graph
from parkbetti.homology import DEFAULT_CHARS, _ReductionMemo

assert verify_graph(parse_graph(sys.argv[1])).passed
big = 2**64
assert rank_over([[big + 1, big - 1], [big - 1, big + 1], [2 * big, 2 * big]], 0) == 2
try:
    _ReductionMemo(DEFAULT_CHARS)._reduced(ast.literal_eval(sys.argv[2]), str)
except CharacteristicDisagreement as exc:
    print(exc)
"""


class TestWithoutNumpy:
    def test_engine_runs_without_numpy(self):
        # numpy is a test dependency only: the package from src/ verifies a
        # graph, ranks big integers and reports RP2's torsion without it
        with pytest.raises(CharacteristicDisagreement) as want:
            _ReductionMemo(DEFAULT_CHARS)._reduced(RP2_MASKS, str)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_SCRIPT, KITE_TEXT, repr(RP2_MASKS)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == str(want.value) + "\n"


def eliminate(matrix):
    """``_unit_eliminate`` on a matrix given as a list of int rows."""
    width = len(matrix[0]) if matrix else 0
    return _unit_eliminate(
        [{c: x for c, x in enumerate(row) if x} for row in matrix],
        [{r for r, row in enumerate(matrix) if row[c]} for c in range(width)],
    )


small_matrices = st.integers(0, 7).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(-2, 2), min_size=width, max_size=width), max_size=7
    )
)

TETRAHEDRON_BOUNDARY = [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}]


class TestUnitElimination:
    @given(small_matrices)
    @example([[1, 1, 0], [1, -2, 1], [0, -2, 1]])  # column 1 gets its unit late
    def test_pivots_plus_leftover_rank(self, matrix):
        # entries of +-2 leave cores no unit pivot removes; the pivots are
        # the same over every field, so the leftover rank makes up the rest
        pivots, core = eliminate(matrix)
        assert len(set(pivots)) == len(pivots)
        assert all(x not in (1, -1) for row in core for x in row)
        for char in (0, 2, 3, 32003):
            assert len(pivots) + rank_over(core, char) == rank_oracle(matrix, char), char

    @given(
        st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=6),
        st.booleans(),
    )
    @example(TETRAHEDRON_BOUNDARY, True)  # relative family in dimension 2 alone
    @example(TETRAHEDRON_BOUNDARY + [{4}], True)  # dimensions 0 and 2, none in 1
    def test_homology_matches_boundary_ranks(self, facets, relative):
        # complexes on up to 8 vertices, and their families relative to the
        # star of vertex 0, against ranks of their whole boundary maps
        faces = faces_by_dim(facets + [{0}])
        if relative:
            faces = relative_to_star(faces)
        mats = boundary_matrices(faces)
        for char in (0, 2, 3, 32003):
            ranks = {d: rank_oracle(m.tolist(), char) for d, m in mats.items()}
            want = {
                d: len(faces.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0)
                for d in range(-1, max(faces, default=-2) + 1)
            }
            assert homology_from_faces_multi(faces, (char,))[char] == want, (faces, char)

    def test_families_in_one_dimension_and_with_a_gap(self):
        one = relative_to_star(faces_by_dim(TETRAHEDRON_BOUNDARY))
        assert one == {2: [(1, 2, 3)]}
        gap = relative_to_star(faces_by_dim(TETRAHEDRON_BOUNDARY + [{4}]))
        assert gap == {0: [(4,)], 2: [(1, 2, 3)]}
        for char in (0, 2, 32003):
            assert reduced_homology_dims(one, char) == {-1: 0, 0: 0, 1: 0, 2: 1}
            assert reduced_homology_dims(gap, char) == {-1: 0, 0: 1, 1: 0, 2: 1}

    def test_fill_in_leaves_nothing_to_rank_on_k6(self, monkeypatch):
        # K6's elimination makes the most entries of absolute value 2 or
        # more among the six-vertex graphs (22), and each cancels before its
        # column's turn: unit pivots clear every boundary map it meets
        def no_leftover(matrix, char):
            raise AssertionError(f"leftover core ranked: {matrix}")

        monkeypatch.setattr(simplicial, "rank_over", no_leftover)
        K6 = parse_graph("v:6; sink:6; " + "; ".join(
            f"e{i}{j} {i} {j}" for i in range(1, 7) for j in range(i + 1, 7)
        ))
        assert verify_graph(K6).passed


class TestIntervalMachinery:
    def test_crosscut_matches_order_complex(self, kite):
        # every interval of every kite lattice, both models, all degrees
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(kite)
            lat = lcm_lattice(ideal)
            code = ideal.code
            for y in lat.elements:
                if y == lat.bottom:
                    continue
                top = code.encode(y)
                atoms = [a for a in code.generators if not a & ~top]
                by_char = homology_from_faces_multi(relative_faces(crosscut_masks(atoms, top)), (32003, 2))
                assert by_char[32003] == by_char[2]
                assert nonzero(by_char[2]) == nonzero(chain_homology(lat, y))

    @given(multigraphs())
    def test_interval_homology_matches_full_computation(self, G):
        # the crosscut core against the full order complex, at every proper
        # element of lcm(I), lcm(J) and lcm(K)
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            lat = lcm_lattice(ideal)
            code = ideal.code
            reductions = _ReductionMemo(DEFAULT_CHARS)
            for y in lat.elements:
                if y == lat.bottom:
                    continue
                dims = reductions._interval_dims(code, code.encode(y))
                assert nonzero(dims) == nonzero(chain_homology(lat, y)), (graph_to_text(G), str(y))

    def test_faces_grow_one_dimension_past_the_top_degree(self):
        # I = (t) + (every product of two of a, b, c, d). Below tabcd the
        # first atom t leaves every set of the six other atoms whose pairs
        # cover a, b, c, d in the relative family, up to all six, while the
        # top degree is 5 - 2 = 3: degree 3 comes out 0 only when the faces
        # of dimension 4 are grown too
        pairs = [Monomial.of({u: 1, v: 1}) for u, v in combinations("abcd", 2)]
        ideal = MonomialIdeal(("t", "a", "b", "c", "d"), (Monomial.of({"t": 1}), *pairs))
        lat = lcm_lattice(ideal)
        dims = _ReductionMemo(DEFAULT_CHARS)._interval_dims(ideal.code, ideal.code.encode(lat.top))
        assert nonzero(dims) == nonzero(chain_homology(lat, lat.top)) == {2: 3}
        # S/(t) tensor S/(the six pairs): (1, 1) times (6, 8, 3)
        assert betti_gpw(ideal) == betti_koszul(ideal) == (7, 14, 11, 3)

    def test_kite_top_interval_concentration(self, kite):
        # the dual lattice has height 3, so the top interval is a wedge of
        # |mu| = 4 circles: homology sits in degree rank - 2 = 1
        lat = lcm_lattice(cutset_ideal(kite))
        top_dims = chain_homology(lat, lat.top)
        assert lat.rank(lat.top) == 3
        assert nonzero(top_dims) == {1: 4}


class TestIntegerCodedCrosscut:
    @given(multigraphs())
    def test_matches_dict_oracle_and_koszul(self, G):
        vectors = set()
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            lat = lcm_lattice(ideal)
            code = ideal.code
            plain = [dict(g.exps) for g in ideal.generators]
            for y in lat.elements:
                if y == lat.bottom:
                    continue
                top = code.encode(y)
                atoms = [a for a in code.generators if not a & ~top]
                below = [g for g in plain if all(y.exponent(v) >= e for v, e in g.items())]
                want = relative_to_star(crosscut_faces_oracle(below, dict(y.exps)))
                assert relative_faces(crosscut_masks(atoms, top)) == want
            vectors.add(betti_gpw(ideal))
        assert vectors == {betti_koszul(parking_ideal(G))}, graph_to_text(G)


def core_sides(masks):
    """The vertex masks of both sides of the strong-collapse core of the
    complex on ``masks``: one vertex for each row, and, on the transposed
    side, one for each column."""
    _, cols = _strong_core(masks)
    return _transpose(cols), list(cols)


def core_shape(masks):
    """The row degrees and column sizes of the core, each sorted, as
    ``strong_core_oracle`` reports them."""
    rows, cols = core_sides(masks)
    return sorted(r.bit_count() for r in rows), sorted(c.bit_count() for c in cols)


def dims_of(masks):
    """Reduced homology over 32003 and 2 of the complex on ``masks``,
    nonzero entries only."""
    by_char = homology_from_faces_multi(relative_faces(masks), (32003, 2))
    return {c: nonzero(d) for c, d in by_char.items()}


class TestDominatedAtoms:
    @given(multigraphs())
    def test_pruned_family_keeps_the_homology(self, G):
        # at every proper element of lcm(I), lcm(J) and lcm(K), both sides
        # of the core of each model against the unpruned complex: every
        # atom for the crosscut, the subset definition for Koszul
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            code = ideal.code
            plain = [dict(g.exps) for g in ideal.generators]
            lat = lcm_lattice(ideal)
            for m in lat.elements:
                if m == lat.bottom:
                    continue
                top = code.encode(m)
                atoms = [a for a in code.generators if not a & ~top]
                full = homology_from_faces_multi(
                    koszul_faces_oracle(plain, support_degree(ideal, m)), (32003, 2)
                )
                for masks, want in (
                    (_crosscut_masks(code, top), dims_of(crosscut_masks(atoms, top))),
                    (_koszul_masks(code, top), {c: nonzero(d) for c, d in full.items()}),
                ):
                    # the side enumerated has a vertex per variable at most
                    rows, cols = _strong_core(masks)
                    assert min(rows, len(cols)) <= len(ideal.variables)
                    for side in core_sides(masks):
                        assert dims_of(side) == want, (graph_to_text(G), str(m))

    def test_dominated_atom_dropped(self, c4):
        # below x1*x2*x3^2 the atom x1*x2 reaches the top bits of x1 and x2,
        # a superset of the reach of x1*x3 (x1 only): it is dominated, and
        # the three atoms left span a hollow triangle
        ideal = parking_ideal(c4)
        code = ideal.code
        top = code.encode(Monomial.of({"x1": 1, "x2": 1, "x3": 2}))
        assert len(_crosscut_masks(code, top)) == 4
        assert _strong_core(_crosscut_masks(code, top)) == (3, (3, 5, 6))
        assert nonzero(_ReductionMemo(DEFAULT_CHARS)._interval_dims(code, top)) == {1: 1}

    def test_an_atom_that_reaches_no_top_bit_makes_a_cone(self, k3):
        # below x1^2*x2^2 the atom x1*x2 has neither top bit, so it lies in
        # every facet and dominates every other atom: the core is a point
        code = parking_ideal(k3).code
        top = code.encode(Monomial.of({"x1": 2, "x2": 2}))
        tops = code.tops(top)
        assert tops != top
        assert tops in _crosscut_masks(code, top)
        assert _strong_core(_crosscut_masks(code, top)) == (1, (1,))
        assert nonzero(_ReductionMemo(DEFAULT_CHARS)._interval_dims(code, top)) == {}

    @given(multigraphs())
    def test_kept_masks_are_the_maximal_distinct_ones(self, G):
        # no row of the core lies inside another row, nor a column inside
        # another column, and the core has the shape of the one found by
        # deleting one dominated vertex or facet at a time
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            code = build(G).code
            for top in lcm_closure(code)[1:]:
                for masks in (_crosscut_masks(code, top), _koszul_masks(code, top)):
                    for side in core_sides(masks):
                        assert all(m & ~k for m in side for k in side if m != k)
                        assert len(set(side)) == len(side)
                    assert core_shape(masks) == strong_core_oracle(masks), (
                        graph_to_text(G), _label(code, top)
                    )

    def test_generator_keeps_the_empty_face(self, kite):
        # below a generator the only atom is the generator itself, whose
        # reach is every top bit, so its mask is 0: the core has no row and
        # one empty column, the complex {()}
        ideal = parking_ideal(kite)
        code = ideal.code
        reductions = _ReductionMemo(DEFAULT_CHARS)
        for g in code.generators:
            assert _crosscut_masks(code, g) == [0]
            assert _strong_core(_crosscut_masks(code, g)) == (0, (0,))
            assert nonzero(reductions._interval_dims(code, g)) == {-1: 1}


# every 2-subset of 4 facets: 6 rows and 4 columns, no row or column inside
# another, the complex of 4 triangles with the homotopy type of the
# 1-skeleton of a tetrahedron
PAIRS_OF_FOUR = [(1 << i) | (1 << j) for i, j in combinations(range(4), 2)]


class TestStrongCore:
    @pytest.fixture
    def enumerated(self, monkeypatch):
        """The vertex masks ``relative_faces`` is called on."""
        calls = []
        enumerate_faces = homology_module.relative_faces

        def recording(masks):
            calls.append(list(masks))
            return enumerate_faces(masks)

        monkeypatch.setattr(homology_module, "relative_faces", recording)
        return calls

    def dims(self, masks):
        return _ReductionMemo(DEFAULT_CHARS)._reduced(masks, str)

    def test_generator_has_no_vertex(self):
        # no vertex in a facet: the complex {()}, one unit in degree -1
        for masks in ([], [0], [0, 0]):
            assert _strong_core(masks) == (0, (0,))
            assert self.dims(masks) == {-1: 1}

    def test_cone_is_a_point(self):
        assert _strong_core([0b101]) == (1, (1,))
        # a vertex in every facet makes a cone, whatever else is there
        assert _strong_core([0b111, 0b011, 0b110, 0b101]) == (1, (1,))
        assert nonzero(self.dims([0b111, 0b011, 0b110, 0b101])) == {}

    def test_two_rows(self):
        assert _strong_core([0b01, 0b10]) == (2, (1, 2))
        assert nonzero(self.dims([0b01, 0b10])) == {0: 1}
        assert _strong_core([0b011, 0b110]) == (1, (1,))

    def test_every_small_incidence_matches_the_oracle(self):
        # up to three rows on four columns, zero rows included: the rows
        # settled at once and the general alternation against deleting one
        # dominated vertex or facet at a time
        for count in range(4):
            for masks in product(range(16), repeat=count):
                assert core_shape(list(masks)) == strong_core_oracle(list(masks)), masks
        assert core_shape(PAIRS_OF_FOUR) == strong_core_oracle(PAIRS_OF_FOUR)

    def test_two_masks_or_fewer_settle_before_any_prune(self, monkeypatch):
        # every list of 0-3 masks over 3 bits, zeros and duplicates
        # included, against the alternation; a list of two or fewer is
        # settled without ``_maximal``
        lists = [list(masks) for count in range(4) for masks in product(range(8), repeat=count)]
        assert len(lists) == 585
        pruned = []
        maximal = homology_module._maximal

        def counted(masks):
            pruned.append(masks)
            return maximal(masks)

        monkeypatch.setattr(homology_module, "_maximal", counted)
        for masks in lists:
            want = strong_core_alternation_oracle(masks)
            pruned.clear()
            assert _strong_core(masks) == want, masks
            assert not pruned or len(masks) == 3, masks

    def test_settled_cores_carry_their_homology(self):
        # the cores of three rows or fewer are the five settled ones, and a
        # fresh memo holds each with the homology its rows reduce to over
        # every field
        small = {
            _strong_core(list(masks))
            for count in range(4)
            for masks in product(range(16), repeat=count)
        }
        assert small == set(_SETTLED)
        for (rows, cols), dims in _SETTLED.items():
            masks = _transpose(cols)
            assert len(masks) == rows
            by_char = homology_from_faces_multi(relative_faces(masks), (0, 2, 3, 32003))
            assert all(nonzero(got) == dims for got in by_char.values()), (rows, cols)
        assert _ReductionMemo(DEFAULT_CHARS).memo == _SETTLED

    def test_hollow_triangle_stays_whole(self):
        # three edges: no vertex dominated, no facet inside another
        masks = [0b101, 0b011, 0b110]
        assert _strong_core(masks) == (3, (3, 5, 6))
        assert nonzero(self.dims(masks)) == {1: 1}

    def test_column_prune_makes_a_row_prunable(self):
        # a hollow triangle on vertices 0, 1, 2 with the facet {0, 1, 3} for
        # its edge {0, 1}, and vertex 3 also alone in the facet {3}. No row
        # lies inside another until the facet {3}, inside {0, 1, 3}, is
        # dropped; then vertex 3 is dominated by 0, and the triangle is left
        masks = [0b0110, 0b0101, 0b0011, 0b1100]
        assert all(m & ~k for m in masks for k in masks if m != k)
        assert _strong_core(masks) == (3, (3, 5, 6))
        assert core_shape(masks) == strong_core_oracle(masks)
        assert nonzero(self.dims(masks)) == {1: 1}

    @pytest.mark.parametrize("masks, key, dims", [
        # a hollow triangle on rows 0, 1, 2 with a pendant row 3 = {0, 3}:
        # column 3 = {row 3} lies inside column 0, so the columns prune to
        # the triangle's three
        ([0b0011, 0b0101, 0b0110, 0b1001], (3, (3, 5, 6)), {1: 1}),
        # two pairs of rows, each pair sharing a column and each row alone
        # in one more: the lone columns prune away, leaving two columns
        # that share no row, two points
        ([0b000101, 0b001001, 0b010010, 0b100010], (2, (1, 2)), {0: 1}),
    ])
    def test_four_rows_settle_on_the_column_side(self, monkeypatch, masks, key, dims):
        # no row lies inside another, so the core is settled on the column
        # side, after one transpose, with the key the full alternation
        # gives after dropping rows
        assert all(m & ~k for m in masks for k in masks if m != k)
        transposed = []
        transpose = homology_module._transpose

        def counted(side):
            transposed.append(list(side))
            return transpose(side)

        monkeypatch.setattr(homology_module, "_transpose", counted)
        assert _strong_core(masks) == strong_core_alternation_oracle(masks) == key
        assert len(transposed) == 1
        assert core_shape(masks) == strong_core_oracle(masks)
        assert nonzero(self.dims(masks)) == dims

    @given(multigraphs())
    def test_early_settling_keeps_the_alternation_key(self, G):
        # at every proper element of lcm(I), lcm(J) and lcm(K), the key of
        # each model's masks against the alternation that settles only
        # after its first row step
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            code = build(G).code
            for top in lcm_closure(code)[1:]:
                masks = _crosscut_masks(code, top)
                want = strong_core_alternation_oracle(masks)
                assert _strong_core(masks) == want, (graph_to_text(G), _label(code, top))
                masks = _koszul_masks(code, top)
                assert _strong_core(masks) == strong_core_alternation_oracle(masks), (
                    graph_to_text(G), _label(code, top)
                )

    def test_transposed_side_is_enumerated_when_smaller(self, c4, enumerated):
        rows, cols = _strong_core(PAIRS_OF_FOUR)
        assert (rows, len(cols)) == (6, 4)
        assert nonzero(self.dims(PAIRS_OF_FOUR)) == {1: 3}
        assert enumerated == [list(cols)]
        # the top element of lcm(J(C4)): its atoms are the 6 pairs of the
        # 4 edges, and the interval has the homology of the order complex
        ideal = cutset_ideal(c4)
        lat = lcm_lattice(ideal)
        code = ideal.code
        masks = _crosscut_masks(code, code.encode(lat.top))
        assert len(masks) == 6
        assert core_shape(masks) == core_shape(PAIRS_OF_FOUR) == ([2] * 6, [3] * 4)
        enumerated.clear()
        dims = _ReductionMemo(DEFAULT_CHARS)._interval_dims(code, code.encode(lat.top))
        assert nonzero(dims) == nonzero(chain_homology(lat, lat.top)) == {1: 3}
        assert [len(masks) for masks in enumerated] == [4]


K6_SCRIPT = """
import resource
import sys
limit = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from parkbetti import cutset_ideal, oriented_cutset_ideal, parse_graph, variable_symmetries
from parkbetti import betti_gpw
K6 = parse_graph("v:6; sink:1; " + "; ".join(
    f"e{i}{j} {i} {j}" for i in range(1, 7) for j in range(i + 1, 7)
))
print(betti_gpw(oriented_cutset_ideal(K6), symmetries=variable_symmetries(K6, "z")))
print(betti_gpw(cutset_ideal(K6), symmetries=variable_symmetries(K6, "y")))
"""


class TestK6InBoundedMemory:
    def test_k6_gpw_k_and_gpw_j_under_an_address_space_limit(self):
        # the squarefree lattices of K6 at sink v1, in a child process
        # capped at 300 MB of address space: enumerating every crosscut face
        # of gpw-K needs gigabytes and raises MemoryError there
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c", K6_SCRIPT, "300"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr[-2000:]
        assert run.stdout.split("\n")[:2] == ["(31, 180, 390, 360, 120)"] * 2


class TestBettiPipelines:
    def test_kite_all_methods(self, kite):
        want = (6, 9, 4)
        assert betti_wilmes(kite) == want
        assert betti_mobius(dual_connected_partition_lattice(kite)) == want
        assert betti_gpw(parking_ideal(kite)) == want
        assert betti_gpw(cutset_ideal(kite)) == want
        assert betti_gpw(oriented_cutset_ideal(kite)) == want
        assert betti_koszul(parking_ideal(kite)) == want

    def test_k3(self, k3):
        assert betti_wilmes(k3) == (3, 2)
        assert betti_gpw(parking_ideal(k3)) == (3, 2)
        assert betti_koszul(parking_ideal(k3)) == (3, 2)
        assert betti_mobius(dual_connected_partition_lattice(k3)) == (3, 2)

    def test_single_edge_and_banana(self, banana):
        two = parse_graph("v:2; a 1 2")
        assert betti_wilmes(two) == (1,)
        assert betti_gpw(parking_ideal(two)) == (1,)
        assert betti_koszul(parking_ideal(banana(3))) == (1,)
        assert betti_gpw(cutset_ideal(banana(3))) == (1,)

    def test_c4_against_oracle(self, c4):
        want = betti_wilmes_oracle(c4)
        assert want == (6, 8, 3)
        assert betti_wilmes(c4) == want
        assert betti_gpw(parking_ideal(c4)) == want

    def test_wilmes_matches_oracle_on_corpus(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            assert betti_wilmes(G) == betti_wilmes_oracle(G), graph_to_text(G)

    def test_torsion_on_rp2_stanley_reisner_ideal(self):
        ideal = rp2_stanley_reisner_ideal()
        for chars in ((32003,), (3,), (0,)):
            assert betti_gpw(ideal, chars) == (10, 15, 6)
            assert betti_koszul(ideal, chars) == (10, 15, 6)
        assert betti_gpw(ideal, (2,)) == (10, 15, 7, 1)
        assert betti_koszul(ideal, (2,)) == (10, 15, 7, 1)
        with pytest.raises(CharacteristicDisagreement) as gpw:
            betti_gpw(ideal)
        assert str(gpw.value) == rp2_disagreement()
        with pytest.raises(CharacteristicDisagreement) as koszul:
            betti_koszul(ideal)
        assert str(koszul.value) == rp2_koszul_disagreement()

    def test_no_characteristic_rejected(self, kite):
        # every lattice method needs a field to compute over, even where the
        # memo would never reduce anything
        ideal = cutset_ideal(kite)
        with pytest.raises(ValueError, match="at least one characteristic"):
            betti_gpw(ideal, chars=())
        with pytest.raises(ValueError, match="at least one characteristic"):
            betti_koszul(ideal, chars=())
        with pytest.raises(ValueError, match="at least one characteristic"):
            interval_homology_audit(ideal, lcm_lattice(ideal), chars=())

    def test_principal_ideal(self):
        principal = MonomialIdeal(("x1",), (Monomial.of({"x1": 5}),))
        assert betti_gpw(principal) == (1,)
        assert betti_koszul(principal) == (1,)

    def test_symmetries_change_nothing(self, kite, k3):
        for G in (kite, k3):
            for kind, build in (("x", parking_ideal), ("y", cutset_ideal), ("z", oriented_cutset_ideal)):
                ideal = build(G)
                syms = variable_symmetries(G, kind)
                assert betti_gpw(ideal, symmetries=syms) == betti_gpw(ideal)
                assert betti_koszul(ideal, symmetries=syms) == betti_koszul(ideal)

    def test_bad_symmetry_rejected(self, k3):
        ideal = parking_ideal(k3)
        bad = ({"x1": "x1", "x2": "x1"},)
        with pytest.raises(ValueError):
            betti_gpw(ideal, symmetries=bad)
        with pytest.raises(ValueError):
            betti_koszul(ideal, symmetries=bad)

    def test_symmetry_must_fix_the_generator_set(self, kite):
        # y_a y_d is a generator of J(kite) and y_b y_d is not; the series
        # edges a and d are interchangeable
        ideal = cutset_ideal(kite)
        identity = {v: v for v in ideal.variables}
        for method in (betti_gpw, betti_koszul):
            with pytest.raises(ValueError, match="does not preserve the generator set"):
                method(ideal, symmetries=({**identity, "y_a": "y_b", "y_b": "y_a"},))
            series = {**identity, "y_a": "y_d", "y_d": "y_a"}
            assert method(ideal, symmetries=(series,)) == (6, 9, 4)

    @pytest.mark.parametrize("mapping", [
        {"x1": "x2"},  # not defined on x2
        {"x1": "x2", "x2": "x1", "x7": "x1"},  # x7 is no variable, x1 is hit twice
        {"x1": "x2", "x2": "x1", "x3": "x3"},
    ])
    def test_symmetry_must_permute_the_variables(self, k3, mapping):
        ideal = parking_ideal(k3)
        for method in (betti_gpw, betti_koszul):
            with pytest.raises(ValueError, match="not a permutation"):
                method(ideal, symmetries=(mapping,))

    def test_lattice_methods_build_no_lattice_and_no_monomial(self, kite, monkeypatch):
        built = []
        init = FiniteLattice.__init__
        post_init = Monomial.__post_init__

        def recording(self, *args):
            built.append(self)
            init(self, *args)

        def recording_monomial(self):
            built.append(self)
            post_init(self)

        parking, oriented = parking_ideal(kite), oriented_cutset_ideal(kite)
        monkeypatch.setattr(FiniteLattice, "__init__", recording)
        monkeypatch.setattr(Monomial, "__post_init__", recording_monomial)
        assert betti_gpw(parking, symmetries=variable_symmetries(kite, "x")) == (6, 9, 4)
        assert betti_koszul(parking, symmetries=variable_symmetries(kite, "x")) == (6, 9, 4)
        betti_gpw(oriented, symmetries=variable_symmetries(kite, "z"))
        assert built == []
        lcm_lattice(parking)  # the recorders do see a lattice being built
        assert sum(isinstance(x, FiniteLattice) for x in built) == 1
        assert sum(isinstance(x, Monomial) for x in built) == 33

    def test_wilmes_needs_two_vertices(self):
        with pytest.raises(ValueError):
            betti_wilmes(parse_graph("v:1"))


def uncached_betti(ideal, dims_at):
    """Betti vector summed over every proper element of lcm(ideal), one
    homology computation per element, without symmetries."""
    lat = lcm_lattice(ideal)
    betti = defaultdict(int)
    for m in lat.elements:
        if m != lat.bottom:
            for degree, dim in dims_at(m).items():
                betti[degree + 2] += dim
    top = max((i for i, v in betti.items() if v), default=0)
    return tuple(betti[i] for i in range(1, top + 1))


def reduced_core_keys(ideal):
    """The distinct memo keys that ``_interval_dims`` reduces over
    lcm(ideal): the crosscut cores of four or more rows at its proper
    elements. The settled cores, of three rows or fewer, are in every memo
    from the start."""
    code = ideal.code
    keys = {_strong_core(_crosscut_masks(code, top)) for top in lcm_closure(code)[1:]}
    return {key for key in keys if key[0] >= 4}


def variable_images(mapping, variables):
    """A variable permutation as the tuple of its image indices."""
    index = {v: i for i, v in enumerate(variables)}
    return tuple(index[mapping[v]] for v in variables)


def field_moves(code, images):
    """``MonomialCode.permutation`` of permutations given as image tuples."""
    variables = code.variables
    return [code.permutation({v: variables[t[i]] for i, v in enumerate(variables)}) for t in images]


class TestOrbitsFromGenerators:
    @given(multigraphs(), st.data())
    def test_any_generating_subset_gives_the_same_orbits(self, G, data):
        # the whole group against a generating subset taken greedily from a
        # random order of it, with a few random maps added
        for kind, build in (("x", parking_ideal), ("y", cutset_ideal), ("z", oriented_cutset_ideal)):
            code = build(G).code
            degree = len(code.variables)
            gens = [variable_images(m, code.variables) for m in variable_symmetries(G, kind)]
            group = sorted(generated_group(gens, degree))
            subset: list[tuple[int, ...]] = []
            for t in data.draw(st.permutations(group)):
                if t not in generated_group(subset, degree):
                    subset.append(t)
            subset += data.draw(st.lists(st.sampled_from(group), max_size=3))
            proper = lcm_closure(code)[1:]
            assert _orbit_representatives(proper, field_moves(code, subset)) == _orbit_representatives(
                proper, field_moves(code, group)
            ), (graph_to_text(G), kind)

    @given(multigraphs())
    def test_generators_give_the_orbits_of_every_automorphism(self, G):
        # on the parking variables, each sink-fixing automorphism induced by
        # hand, against the maps of the generating set
        code = parking_ideal(G).code
        every = [
            code.permutation({f"x{v + 1}": f"x{sigma[v] + 1}" for v in G.nonsink_vertices})
            for sigma in sink_fixing_automorphisms(G)
        ]
        gens = [code.permutation(m) for m in variable_symmetries(G, "x")]
        proper = lcm_closure(code)[1:]
        assert _orbit_representatives(proper, gens) == _orbit_representatives(proper, every)

    def test_k6_orbits_from_four_maps(self, monkeypatch):
        # 4 maps generate the 120 automorphisms of K6 at sink v1; with all
        # 119 non-identity maps the orbit search made 420,189 permute_code
        # calls, with the 4 it makes 14,124
        K6 = parse_graph("v:6; sink:1; " + "; ".join(
            f"e{i}{j} {i} {j}" for i in range(1, 7) for j in range(i + 1, 7)
        ))
        syms = variable_symmetries(K6, "x")
        assert len(syms) == 4
        calls = []
        permute = homology_module.permute_code

        def counted(c, moves):
            calls.append(c)
            return permute(c, moves)

        monkeypatch.setattr(homology_module, "permute_code", counted)
        assert betti_gpw(parking_ideal(K6), symmetries=syms) == (31, 180, 390, 360, 120)
        assert len(calls) <= 15_000


class TestReductionMemo:
    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []
        reduce = homology_module.homology_from_faces_multi

        def counted(faces, chars):
            calls.append(faces)
            return reduce(faces, chars)

        monkeypatch.setattr(homology_module, "homology_from_faces_multi", counted)
        return calls

    def test_each_face_family_reduced_once_per_call(self, reductions):
        # C5, as the kite's 3 variables leave no core of four rows
        c5 = parse_graph(C5_TEXT)
        ideal = parking_ideal(c5)
        code = ideal.code
        proper = lcm_closure(code)[1:]
        moves = [code.permutation(mapping) for mapping in variable_symmetries(c5, "x")]
        orbits = _orbit_representatives(proper, moves)
        assert betti_gpw(ideal) == (10, 20, 15, 4)
        first = len(reductions)
        assert first == len(reduced_core_keys(ideal))
        assert 0 < first < len(orbits) < len(proper)
        # nothing survives the call: the second one reduces as much again
        assert betti_gpw(ideal) == (10, 20, 15, 4)
        assert len(reductions) == 2 * first

    def test_koszul_and_audit_memos_are_per_call(self, reductions):
        c5 = parse_graph(C5_TEXT)
        parking, cutset = parking_ideal(c5), cutset_ideal(c5)
        dual = lcm_lattice(cutset)  # graded, as the audit needs
        for compute, lat in (
            (lambda: betti_koszul(parking), lcm_lattice(parking)),
            (lambda: betti_koszul(cutset), dual),
            (lambda: interval_homology_audit(cutset, dual), dual),
        ):
            reductions.clear()
            want = compute()
            first = len(reductions)
            assert 0 < first < len(lat) - 1
            assert compute() == want
            assert len(reductions) == 2 * first

    def test_gpw_of_c6_reduces_only_cores_of_four_or_more_rows(self, reductions, monkeypatch):
        keys = []
        core = homology_module._strong_core

        def recording(masks, *args):
            keys.append(core(masks, *args))
            return keys[-1]

        monkeypatch.setattr(homology_module, "_strong_core", recording)
        c6 = parse_graph(C6_TEXT)
        symmetries = variable_symmetries(c6, "x")
        assert betti_gpw(parking_ideal(c6), symmetries=symmetries) == (15, 40, 45, 24, 5)
        looked_up = set(keys)
        assert looked_up & set(_SETTLED)
        assert len(reductions) == len({key for key in looked_up if key[0] >= 4}) > 0

    def test_bad_characteristic_rejected_before_the_lattice_walk(self, kite, monkeypatch):
        def walked(code):
            raise AssertionError("the lattice was walked")

        monkeypatch.setattr(homology_module, "lcm_closure", walked)
        for chars in ((4,), (2, 4), (2**31 + 11,)):
            with pytest.raises(ValueError, match="characteristic must be"):
                betti_gpw(parking_ideal(kite), chars=chars)

    def test_disagreement_raised_again_on_every_call(self):
        ideal = rp2_stanley_reisner_ideal()
        for _ in range(2):
            with pytest.raises(CharacteristicDisagreement) as gpw:
                betti_gpw(ideal)
            assert str(gpw.value) == rp2_disagreement()

    def test_a_core_shared_across_variable_counts_is_reduced_once(self, reductions):
        # on C5, I has 4 variables and K 10, and their lattices share a core
        # of four rows, the hollow tetrahedron: on one memo, in either
        # order, each shared core is reduced once and each sum equals its
        # fresh-memo sum
        c5 = parse_graph(C5_TEXT)
        parking, oriented = parking_ideal(c5), oriented_cutset_ideal(c5)
        fresh = {ideal: betti_gpw(ideal) for ideal in (parking, oriented)}
        keys = {ideal: reduced_core_keys(ideal) for ideal in (parking, oriented)}
        assert (4, (7, 11, 13, 14)) in keys[parking] & keys[oriented]
        for order in ((parking, oriented), (oriented, parking)):
            shared = _ReductionMemo(DEFAULT_CHARS)
            reductions.clear()
            assert [shared.betti_gpw(ideal) for ideal in order] == [fresh[i] for i in order]
            assert len(reductions) == len(keys[parking] | keys[oriented])

    @given(multigraphs())
    def test_matches_uncached_sum_over_every_element(self, G):
        # a fresh memo per element, so no reduction is shared between elements
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            code = ideal.code
            want = uncached_betti(
                ideal, lambda m: _ReductionMemo(DEFAULT_CHARS)._interval_dims(code, code.encode(m))
            )
            assert betti_gpw(ideal) == want, graph_to_text(G)
        ideal = parking_ideal(G)
        code = ideal.code
        want = uncached_betti(
            ideal, lambda m: _ReductionMemo(DEFAULT_CHARS)._koszul_dims(code, code.encode(m))
        )
        assert betti_koszul(ideal) == want, graph_to_text(G)


class TestSharedReductionMemo:
    @pytest.fixture
    def reduced(self, monkeypatch):
        """The complexes reduced, in order, each by the key the memo stores
        it under: (row count, column masks)."""
        keys = []
        init = _ReductionMemo.__init__
        reduce = homology_module.homology_from_faces_multi

        class Recording(dict):
            def __setitem__(self, key, value):
                assert keys[-1] is None  # one store per reduction
                keys[-1] = key
                super().__setitem__(key, value)

        def recording(self, chars):
            init(self, chars)
            self.memo = Recording(self.memo)

        def counted(faces, chars):
            keys.append(None)
            return reduce(faces, chars)

        monkeypatch.setattr(_ReductionMemo, "__init__", recording)
        monkeypatch.setattr(homology_module, "homology_from_faces_multi", counted)
        return keys

    def test_verify_graph_reduces_each_face_family_once(self, kite, reduced):
        report = verify_graph(kite)
        first = list(reduced)
        # once in all: a core both models or several ideals build is
        # reduced by whichever reaches it first
        assert first and len(set(first)) == len(first)
        # nothing survives the call: the second one reduces as much again
        assert verify_graph(kite).to_json_dict(include_audit=True) == report.to_json_dict(
            include_audit=True
        )
        assert reduced[len(first):] == first

        reduced.clear()
        ideal_j = cutset_ideal(kite)
        want = {"gpw-J": betti_gpw(ideal_j)}
        for s in range(kite.n):
            Gs = kite.with_sink(s)
            want[f"gpw-I/sink-v{s + 1}"] = betti_gpw(parking_ideal(Gs))
            want[f"gpw-K/sink-v{s + 1}"] = betti_gpw(oriented_cutset_ideal(Gs))
            want[f"koszul-I/sink-v{s + 1}"] = betti_koszul(parking_ideal(Gs))
        audit = interval_homology_audit(ideal_j, lcm_lattice(ideal_j))
        assert {name: report.betti[name] for name in want} == {
            name: list(vec) for name, vec in want.items()
        }
        assert report.audit == audit
        # separate public calls share nothing, so they reduce more
        assert len(reduced) > len(first)

    def test_models_share_one_key_space(self, reduced):
        # the Koszul masks of I are its crosscut masks transposed, so on one
        # memo, in either order, the second model reduces no core of its
        # own; on a 4-cycle with a pendant vertex, as the kite's 3 variables
        # leave no core of four rows, and C5 has a complex whose two sides
        # get two keys
        ideal = parking_ideal(parse_graph("v:5; a 1 2; b 1 3; c 1 4; d 2 5; e 3 5"))
        for before, after in (("betti_gpw", "betti_koszul"), ("betti_koszul", "betti_gpw")):
            shared = _ReductionMemo(DEFAULT_CHARS)
            reduced.clear()
            assert getattr(shared, before)(ideal) == (7, 14, 11, 3)
            assert reduced
            reduced.clear()
            assert getattr(shared, after)(ideal) == (7, 14, 11, 3)
            assert reduced == []

    def test_disagreement_is_never_stored(self):
        ideal = rp2_stanley_reisner_ideal()
        shared = _ReductionMemo(DEFAULT_CHARS)
        for _ in range(2):
            with pytest.raises(CharacteristicDisagreement) as gpw:
                shared.betti_gpw(ideal)
            assert str(gpw.value) == rp2_disagreement()
            with pytest.raises(CharacteristicDisagreement) as koszul:
                shared.betti_koszul(ideal)
            assert str(koszul.value) == rp2_koszul_disagreement()


def koszul_faces(ideal, m):
    """The relative face family of K^m(ideal) that ``betti_koszul``
    reduces."""
    code = ideal.code
    return relative_faces(_koszul_masks(code, code.encode(m)))


def koszul_facets(ideal, m):
    """The generator facets that the masks of K^m(ideal) encode: facet i
    holds the support variables whose mask has bit i, one facet for each
    generator ``generators[i]`` dividing m."""
    code = ideal.code
    top = code.encode(m)
    masks = _koszul_masks(code, top)
    dividing = [i for i, g in enumerate(code.generators) if not g & ~top]
    return {tuple(k for k, mask in enumerate(masks) if mask >> i & 1) for i in dividing}


def divisor_codes(code):
    """The code of every monomial dividing the lcm of the generators: for
    each field, every exponent from 0 to its width, the low bits set."""
    codes = [0]
    for field in code.masks:
        steps = [0]
        rest = field
        while rest:
            low = rest & -rest
            steps.append(steps[-1] | low)
            rest ^= low
        codes = [c | step for c in codes for step in steps]
    return codes


def support_degree(ideal, m):
    """The exponents of m on its support, in variable order."""
    return {v: m.exponent(v) for v in ideal.variables if m.exponent(v)}


class TestKoszulComplex:
    def test_principal_degree(self):
        ideal = MonomialIdeal(("x1",), (Monomial.of({"x1": 2}),))
        assert koszul_faces(ideal, Monomial.of({"x1": 2})) == {-1: [()]}

    def test_k3_top_degree(self, k3):
        ideal = parking_ideal(k3)
        faces = koszul_faces(ideal, Monomial.of({"x1": 2, "x2": 2}))
        # both strips stay inside the ideal: a full segment, contractible
        assert nonzero(reduced_homology_dims(faces, 2)) == {}

    @given(multigraphs())
    def test_facets_match_membership_oracle(self, G):
        # the facets the masks encode, and the complex they generate,
        # against the per-subset definition at every element of lcm(I),
        # lcm(J) and lcm(K)
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            plain = [dict(g.exps) for g in ideal.generators]
            for m in lcm_lattice(ideal).elements:
                degree = support_degree(ideal, m)
                facets = koszul_facets_oracle(plain, degree)
                assert koszul_facets(ideal, m) == facets, (graph_to_text(G), str(m))
                assert faces_by_dim(facets) == koszul_faces_oracle(plain, degree)
            # a generator less one variable: no minimal generator divides it
            g = ideal.generators[0]
            v, e = g.exps[0]
            below = Monomial.of({**dict(g.exps), v: e - 1})
            assert koszul_facets(ideal, below) == set()
            assert koszul_faces_oracle(plain, dict(below.exps)) == {}

    @given(multigraphs())
    def test_relative_family_matches_oracle(self, G):
        # at every proper element of lcm(I), lcm(J) and lcm(K): the family
        # reduced is the oracle's complex relative to the star of its first
        # vertex, numbered over the vertices that lie in a facet, with the
        # homology of the whole complex
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            plain = [dict(g.exps) for g in ideal.generators]
            lat = lcm_lattice(ideal)
            for m in lat.elements:
                if m == lat.bottom:
                    continue
                full = koszul_faces_oracle(plain, support_degree(ideal, m))
                in_a_facet = sorted({v for fs in full.values() for f in fs for v in f})
                index = {v: i for i, v in enumerate(in_a_facet)}
                want = {
                    d: [tuple(index[v] for v in f) for f in fs]
                    for d, fs in relative_to_star(full).items()
                }
                got = koszul_faces(ideal, m)
                assert got == want, (graph_to_text(G), str(m))
                got_dims = homology_from_faces_multi(got, (32003, 2))
                want_dims = homology_from_faces_multi(full, (32003, 2))
                for char in (32003, 2):
                    assert nonzero(got_dims[char]) == nonzero(want_dims[char]), (
                        graph_to_text(G), str(m)
                    )

    @given(multigraphs())
    def test_holder_masks_match_the_gap_oracle(self, G):
        # at every monomial dividing the lcm of the generators, lattice
        # element or not, for I, J and K: the holder-bitset masks number
        # every generator and the gap oracle only those dividing m, so the
        # two are compared facet by facet, in generator order
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            code = build(G).code
            gens = code.generators
            for top in divisor_codes(code):
                dividing = [i for i, g in enumerate(gens) if not g & ~top]
                assert code.divisors(top) == sum(1 << i for i in dividing)
                masks = _koszul_masks(code, top)
                want = koszul_masks_oracle(list(gens), list(code.masks), top)
                assert len(masks) == len(want)
                assert [[k for k, m in enumerate(masks) if m >> i & 1] for i in dividing] == [
                    [k for k, m in enumerate(want) if m >> j & 1] for j in range(len(dividing))
                ], (graph_to_text(G), _label(code, top))

    def test_first_variable_in_no_facet(self):
        # both generators hold x1 as often as m does, so x1 lies in no
        # facet and is dropped: K^m is the two points x2 and x3
        ideal = MonomialIdeal(("x1", "x2", "x3"), (
            Monomial.of({"x1": 1, "x2": 1}), Monomial.of({"x1": 1, "x3": 1}),
        ))
        m = Monomial.of({"x1": 1, "x2": 1, "x3": 1})
        code = ideal.code
        assert _koszul_masks(code, code.encode(m))[0] == 0
        faces = koszul_faces(ideal, m)
        assert faces == {0: [(1,)]}
        assert nonzero(reduced_homology_dims(faces, 32003)) == {0: 1}
        assert nonzero(reduced_homology_dims(faces, 2)) == {0: 1}


class TestAuditAndEuler:
    def test_concentration_on_small_corpus(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            ideal = cutset_ideal(G)
            lat = lcm_lattice(ideal)
            rows = interval_homology_audit(ideal, lat)
            for row in rows:
                expected = {row["rank"] - 2: abs(row["mobius"])} if row["mobius"] else {}
                assert row["homology"] == expected, (graph_to_text(G), row)

    @given(multigraphs())
    def test_audit_matches_order_complex_oracle(self, G):
        # crosscut audit rows against rows rebuilt from every chain of each
        # interval of lcm(J)
        ideal = cutset_ideal(G)
        lat = lcm_lattice(ideal)
        mu = lat.mobius()
        want = [
            {
                "element": y.to_str(ideal.variables),
                "rank": lat.rank(y),
                "mobius": mu[y],
                "homology": nonzero(chain_homology(lat, y)),
            }
            for y in lat.elements
            if y != lat.bottom
        ]
        assert interval_homology_audit(ideal, lat) == want, graph_to_text(G)

    def test_euler_characteristic_equals_mobius(self, kite):
        lat = lcm_lattice(cutset_ideal(kite))
        mu = lat.mobius()
        for y in lat.elements:
            if y == lat.bottom:
                continue
            dims = chain_homology(lat, y)
            euler = sum((-1) ** d * v for d, v in dims.items())
            assert euler == mu[y]
