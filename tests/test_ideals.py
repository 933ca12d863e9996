import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkbetti import (
    Edge,
    Monomial,
    MonomialCode,
    MonomialIdeal,
    Multigraph,
    apply_substitution,
    cutset_ideal,
    forget_orientation_substitution,
    generate_corpus,
    graph_to_text,
    lcm_closure,
    lcm_lattice,
    minimalize,
    oriented_cutset_ideal,
    parking_ideal,
    parse_graph,
    permute_code,
    shared_vertex_substitution,
    variable_symmetries,
    verify_graph,
)
from parkbetti import graphs as graphs_module

from _oracles import lcm_closure_oracle, lcm_closure_subsets_oracle, permute_monomial
from conftest import multigraphs


@st.composite
def monomial_ideals(draw):
    """Minimal monomial ideals on 1-4 variables with exponents up to 3, so
    most are not squarefree, from at most 7 drawn monomials."""
    variables = tuple(f"x{i + 1}" for i in range(draw(st.integers(1, 4))))
    vectors = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=len(variables), max_size=len(variables)),
        min_size=1, max_size=7,
    ))
    gens = tuple(Monomial.of(dict(zip(variables, vec))) for vec in vectors)
    return minimalize(MonomialIdeal(variables, gens))


def gens(ideal):
    return set(ideal.generator_strings())


class TestMonomial:
    def test_zero_exponents_dropped(self):
        assert Monomial.of({"x1": 0, "x2": 3}) == Monomial.of({"x2": 3})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Monomial.of({"x1": -1})

    def test_variable_named_twice_rejected(self):
        with pytest.raises(ValueError):
            Monomial.of([("x1", 1), ("x1", 2)])

    def test_divides_and_lcm(self):
        a = Monomial.of({"x1": 2})
        b = Monomial.of({"x1": 1, "x2": 1})
        assert not a.divides(b) and not b.divides(a)
        assert a.lcm(b) == Monomial.of({"x1": 2, "x2": 1})
        assert Monomial.of({}).divides(a)

    def test_strings(self):
        m = Monomial.of({"x1": 3, "x3": 1})
        assert m.to_str(("x1", "x2", "x3")) == "x1^3*x3"
        assert Monomial.of({}).to_str() == "1"

    def test_squarefree(self):
        assert Monomial.of({"y_a": 1, "y_b": 1}).is_squarefree
        assert not Monomial.of({"x1": 2}).is_squarefree


class TestMonomialCode:
    def test_exact_past_64_bits(self):
        # codes up to 160 bits wide: a fixed-width integer would wrap or overflow
        variables = ("a", "b", "c", "d")
        gens = [Monomial.of({"a": 70}), Monomial.of({"b": 30, "c": 30}), Monomial.of({"c": 10, "d": 30})]
        code = MonomialCode(variables, gens)
        box = [
            Monomial.of({"a": a, "b": b, "c": c, "d": d})
            for a in (0, 1, 63, 64, 65, 70) for b in (0, 29, 30) for c in (0, 30) for d in (0, 1, 30)
        ]
        codes = [code.encode(m) for m in box]
        assert max(codes).bit_length() == 160
        # the first variable owns the most significant field: a above b, c, d
        assert code.encode(Monomial.of({"a": 70})) == ((1 << 70) - 1) << 90
        assert [code.decode(c) for c in codes] == box
        assert len(set(codes)) == len(box)
        for m, cm in zip(box, codes):
            for n, cn in zip(box, codes):
                assert cm | cn == code.encode(m.lcm(n))
                assert (not cm & ~cn) == m.divides(n)

    def test_squarefree_code_is_a_bitmask(self):
        gens = [Monomial.of({"y_a": 1, "y_c": 1}), Monomial.of({"y_b": 1})]
        code = MonomialCode(("y_a", "y_b", "y_c"), gens)
        assert code.generators == (0b101, 0b010)

    @given(multigraphs())
    def test_lattice_codes_decode_round_trip(self, G):
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            code = MonomialCode(ideal.variables, ideal.generators)
            elements = lcm_lattice(ideal).elements
            codes = [code.encode(m) for m in elements]
            for m, c in zip(elements, codes):
                row = code.decode(c).vector(ideal.variables)
                assert row == m.vector(ideal.variables), (graph_to_text(G), str(m))
                assert code.encode(Monomial.of(dict(zip(ideal.variables, row)))) == c

    @given(multigraphs())
    def test_closure_decodes_to_the_lattice_elements(self, G):
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            code = MonomialCode(ideal.variables, ideal.generators)
            codes = lcm_closure(code)
            assert codes[0] == 0
            assert [code.decode(c) for c in codes] == list(lcm_lattice(ideal).elements), (
                graph_to_text(G), build.__name__
            )

    @pytest.mark.parametrize("text", [
        "v:4; a 1 2; b 1 3; c 1 4; d 2 3; e 3 4",
        "v:3; a 1 2; b 1 2; c 2 3; d 1 3",
        "v:4; a 1 2; b 1 2; c 2 3; d 2 3; e 1 4; f 3 4",
        "v:4; a 1 4; b 2 4; c 3 4; d 3 4; e 1 2",
        "v:5; a 1 2; b 1 3; c 1 4; d 2 5; e 3 5; f 4 5",
    ])
    def test_field_moves_permute_the_variables(self, text):
        # parking fields differ in width when degrees differ, and symmetric
        # variables must share one
        G = parse_graph(text)
        for kind, build in (("x", parking_ideal), ("y", cutset_ideal), ("z", oriented_cutset_ideal)):
            ideal = build(G)
            code = MonomialCode(ideal.variables, ideal.generators)
            symmetries = variable_symmetries(G, kind)
            assert symmetries, (text, kind)
            for mapping in symmetries:
                moves = code.permutation(mapping)
                for c in lcm_closure(code):
                    assert permute_code(c, moves) == code.encode(
                        permute_monomial(code.decode(c), mapping)
                    ), (text, kind, mapping)

    def test_automorphisms_searched_once_per_graph(self, monkeypatch):
        calls = []
        search = graphs_module.sink_fixing_automorphisms

        def counted(G):
            calls.append(G)
            return search(G)

        monkeypatch.setattr(graphs_module, "sink_fixing_automorphisms", counted)
        G = parse_graph("v:4; a 1 2; b 1 3; c 1 4; d 2 3; e 3 4")
        maps = {kind: variable_symmetries(G, kind) for kind in "xyz"}
        assert all(maps.values())
        assert calls == [G]
        # a graph with another sink is another instance, searched again
        variable_symmetries(G.with_sink(0), "x")
        assert variable_symmetries(G, "x") == maps["x"]
        assert len(calls) == 2

    @given(multigraphs(), st.data())
    def test_tops_are_the_highest_bit_of_each_field(self, G, data):
        # the field tops against one field at a time, on the lattice
        # elements and on monomials drawn from the box below the lcm; the
        # parking fields are wide and lie side by side, so a bit of one
        # field shifted into the next is seen
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            code = build(G).code
            box = list(zip(code.variables, (mask.bit_count() for mask in code.masks)))
            drawn = [
                code.encode(Monomial.of({v: data.draw(st.integers(0, w)) for v, w in box}))
                for _ in range(5)
            ]
            for c in lcm_closure(code) + drawn:
                want = 0
                for mask in code.masks:
                    if c & mask:
                        want |= 1 << ((c & mask).bit_length() - 1)
                assert code.tops(c) == want, (graph_to_text(G), code.decode(c))

    def test_one_code_per_ideal(self, monkeypatch):
        builds = []
        init = MonomialCode.__init__

        def counted(self, *args):
            builds.append(self)
            init(self, *args)

        monkeypatch.setattr(MonomialCode, "__init__", counted)
        G = parse_graph("v:4; a 1 2; b 1 3; c 1 4; d 2 3; e 3 4")
        ideal = parking_ideal(G)
        assert ideal.code is ideal.code
        assert len(builds) == 1
        # lcm(J) and its audit and gpw-J share J's code; gpw-I and koszul-I
        # share I's at each sink, and gpw-K reads K's
        builds.clear()
        assert verify_graph(G).passed
        assert len(builds) == 1 + 2 * G.n

    @given(st.data())
    def test_field_widths_are_the_largest_exponents(self, data):
        # declared variables that no generator uses get width 0, so every
        # variable's field is as wide as its largest generator exponent
        variables = tuple(f"x{i}" for i in range(data.draw(st.integers(1, 6))))
        exponents = st.dictionaries(st.sampled_from(variables), st.integers(0, 9), max_size=len(variables))
        gens = [Monomial.of(d) for d in data.draw(st.lists(exponents, max_size=5))]
        code = MonomialCode(variables, gens)
        want = {v: max((g.exponent(v) for g in gens), default=0) for v in variables}
        assert {v: mask.bit_count() for v, mask in zip(variables, code.masks)} == want
        assert [code.decode(c) for c in code.generators] == gens
        v = data.draw(st.sampled_from(variables))
        with pytest.raises(ValueError):
            code.encode(Monomial.of({v: want[v] + 1}))
        with pytest.raises(ValueError):
            code.encode(Monomial.of({"undeclared": 1}))

    def test_generator_with_an_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            MonomialCode(("x1",), [Monomial.of({"x1": 1, "x2": 1})])

    def test_field_moves_need_equal_widths(self):
        code = MonomialCode(("x1", "x2"), [Monomial.of({"x1": 2}), Monomial.of({"x2": 1})])
        with pytest.raises(ValueError):
            code.permutation({"x1": "x2", "x2": "x1"})

    def test_monomial_outside_the_box_rejected(self):
        code = MonomialCode(("x1", "x2"), [Monomial.of({"x1": 2})])
        with pytest.raises(ValueError):
            code.encode(Monomial.of({"x1": 3}))
        with pytest.raises(ValueError):
            code.encode(Monomial.of({"x2": 1}))


class TestIdealConstruction:
    def test_kite_parking(self, kite):
        ideal = parking_ideal(kite)
        assert ideal.variables == ("x1", "x2", "x3")
        assert gens(ideal) == {"x1^3", "x2^2", "x1^2*x2", "x3^3", "x2*x3^2", "x1*x3"}

    def test_k3_p3_parking(self, k3, p3):
        assert gens(parking_ideal(k3)) == {"x1^2", "x1*x2", "x2^2"}
        assert gens(parking_ideal(p3)) == {"x1", "x2"}

    def test_kite_cutset(self, kite):
        ideal = cutset_ideal(kite)
        assert gens(ideal) == {
            "y_a*y_b*y_c", "y_b*y_c*y_d", "y_a*y_d",
            "y_c*y_e", "y_a*y_b*y_e", "y_b*y_d*y_e",
        }
        assert all(g.is_squarefree for g in ideal.generators)

    def test_banana_and_path_cutset(self, p3, banana):
        assert gens(cutset_ideal(banana(3))) == {"y_e1*y_e2*y_e3"}
        assert gens(cutset_ideal(p3)) == {"y_a", "y_b"}

    def test_kite_oriented(self, kite):
        ideal = oriented_cutset_ideal(kite)
        assert gens(ideal) == {
            "z1_a*z1_b*z1_c", "z1_b*z1_c*z1_d", "z2_a*z1_d",
            "z1_c*z1_e", "z2_a*z2_b*z1_e", "z2_b*z2_d*z1_e",
        }

    def test_banana_oriented(self, banana):
        assert gens(oriented_cutset_ideal(banana(2))) == {"z1_e1*z1_e2"}

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(("x1",), (Monomial.of({"x2": 1}),))


class TestMinimalize:
    def test_divisible_dropped(self):
        ideal = MonomialIdeal(("x1", "x2"), (Monomial.of({"x1": 2}), Monomial.of({"x1": 2, "x2": 1})))
        assert minimalize(ideal).generators == (Monomial.of({"x1": 2}),)

    def test_builders_already_minimal(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
                ideal = build(G)
                assert minimalize(ideal).generator_set() == ideal.generator_set()
                assert len(ideal.generator_set()) == len(ideal.generators)

    def test_empty(self):
        ideal = MonomialIdeal(("x1",), ())
        assert minimalize(ideal).generators == ()

    def test_idempotent(self):
        ideal = MonomialIdeal(
            ("x1", "x2"),
            (Monomial.of({"x1": 1}), Monomial.of({"x1": 2}), Monomial.of({"x2": 1, "x1": 1})),
        )
        once = minimalize(ideal)
        assert minimalize(once) == once


class TestLcmLattice:
    def test_k3_parking(self, k3):
        lat = lcm_lattice(parking_ideal(k3))
        names = {m.to_str(("x1", "x2")) for m in lat.elements}
        assert names == {"1", "x1^2", "x1*x2", "x2^2", "x1^2*x2", "x1*x2^2", "x1^2*x2^2"}

    def test_single_generator_chain(self, banana):
        lat = lcm_lattice(parking_ideal(banana(3)))
        assert len(lat) == 2

    def test_atoms_are_generators(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            for build in (parking_ideal, cutset_ideal):
                ideal = build(G)
                lat = lcm_lattice(ideal)
                assert lat.bottom == Monomial.of({})
                assert set(lat.atoms()) == ideal.generator_set()

    def test_join_is_exponentwise_max(self, kite):
        for ideal in (parking_ideal(kite), cutset_ideal(kite)):
            lat = lcm_lattice(ideal)
            elems = lat.elements
            for i, a in enumerate(elems):
                for b in elems[i:]:
                    assert lat.join(a, b) == a.lcm(b)

    @given(multigraphs())
    def test_elements_are_all_subset_lcms(self, G):
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            ideal = build(G)
            want = lcm_closure_oracle([dict(g.exps) for g in ideal.generators])
            elements = lcm_lattice(ideal).elements
            got = {frozenset(m.exps) for m in elements}
            assert got == want, (graph_to_text(G), build.__name__)
            # audit rows follow this order: by degree, then exponent vector
            keys = [(m.degree, m.vector(ideal.variables)) for m in elements]
            assert keys == sorted(keys), (graph_to_text(G), build.__name__)

    @given(multigraphs())
    def test_order_is_divisibility(self, G):
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            lat = lcm_lattice(build(G))
            for a in lat.elements:
                for b in lat.elements:
                    assert lat.leq(a, b) == a.divides(b), (graph_to_text(G), str(a), str(b))

    @given(monomial_ideals())
    def test_closure_is_every_subset_lcm_in_order(self, ideal):
        variables = ideal.variables
        code = MonomialCode(variables, ideal.generators)
        got = [code.decode(c).vector(variables) for c in lcm_closure(code)]
        assert got == lcm_closure_subsets_oracle(variables, [dict(g.exps) for g in ideal.generators])

    @pytest.mark.parametrize("generators", [
        (),
        ({"x1": 1, "x2": 2}, {"x1": 1, "x2": 2}),
        ({"x1": 2}, {"x2": 3}, {"x1": 2, "x2": 1}),
        ({"x1": 2, "x2": 1}, {"x2": 3}, {"x1": 1}),
    ])
    def test_closure_needs_a_minimal_generating_set(self, generators):
        # empty, a duplicate, and a generator dividing a later or an
        # earlier one
        code = MonomialCode(("x1", "x2"), tuple(Monomial.of(g) for g in generators))
        with pytest.raises(ValueError):
            lcm_closure(code)

    def test_requires_minimalized_nonempty(self):
        with pytest.raises(ValueError):
            lcm_lattice(MonomialIdeal(("x1",), ()))
        with pytest.raises(ValueError):
            lcm_lattice(MonomialIdeal(("x1",), (Monomial.of({"x1": 1}), Monomial.of({"x1": 2}))))


class TestSubstitutions:
    def test_kite_vertex_identification_map(self, kite):
        sub = shared_vertex_substitution(kite)
        assert sub.assignments == {
            "z1_a": "x1", "z2_a": "x2",
            "z1_b": "x1", "z2_b": "x3",
            "z1_c": "x1", "z2_c": None,
            "z1_d": "x2", "z2_d": "x3",
            "z1_e": "x3", "z2_e": None,
        }
        assert sub.target_variables == ("x1", "x2", "x3")

    def test_kite_orientation_forgetting_map(self, kite):
        sub = forget_orientation_substitution(kite)
        assert sub.apply_to(Monomial.of({"z2_b": 1})) == Monomial.of({"y_b": 1})
        assert sub.apply_to(Monomial.of({"z2_a": 1, "z1_d": 1})) == Monomial.of(
            {"y_a": 1, "y_d": 1}
        )

    def test_kite_examples(self, kite):
        sub = shared_vertex_substitution(kite)
        triple = Monomial.of({"z1_a": 1, "z1_b": 1, "z1_c": 1})
        assert sub.apply_to(triple) == Monomial.of({"x1": 3})

    def test_specializations_recover_ideals(self):
        for G in generate_corpus(4, max_edges=5, include_multi=True):
            for s in range(G.n):
                Gs = G.with_sink(s)
                K = oriented_cutset_ideal(Gs)
                got_i = apply_substitution(K, shared_vertex_substitution(Gs))
                want_i = parking_ideal(Gs)
                assert got_i.variables == want_i.variables
                assert got_i.generator_set() == want_i.generator_set()
                got_j = apply_substitution(K, forget_orientation_substitution(Gs))
                want_j = cutset_ideal(Gs)
                assert got_j.variables == want_j.variables
                assert got_j.generator_set() == want_j.generator_set()

    def test_custom_orientation_still_specializes(self):
        # reversed orientation on one edge of the triangle
        G = Multigraph(3, (Edge("a", 0, 1), Edge("b", 2, 0), Edge("c", 1, 2)))
        K = oriented_cutset_ideal(G)
        got = apply_substitution(K, shared_vertex_substitution(G))
        want = parking_ideal(G)
        assert got.generator_set() == want.generator_set()
        got_j = apply_substitution(K, forget_orientation_substitution(G))
        assert got_j.generator_set() == cutset_ideal(G).generator_set()

    def test_identity_substitution(self, kite):
        from parkbetti import Substitution

        ideal = parking_ideal(kite)
        identity = Substitution({v: v for v in ideal.variables}, ideal.variables)
        assert apply_substitution(ideal, identity).generator_set() == ideal.generator_set()

    def test_undefined_variable_rejected(self, kite):
        from parkbetti import Substitution

        ideal = parking_ideal(kite)
        partial = Substitution({"x1": "x1"}, ideal.variables)
        with pytest.raises(ValueError):
            apply_substitution(ideal, partial)


def test_ideal_json(kite):
    doc = parking_ideal(kite).to_json_dict()
    assert doc["variables"] == ["x1", "x2", "x3"]
    assert {"x1": 3} in doc["generators"]
    assert {"x1": 1, "x3": 1} in doc["generators"]
