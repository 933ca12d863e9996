"""Monomials, monomial ideals, and the three ideals attached to a graph.

Variable naming is fixed so printed generators are byte-stable: parking
variables are ``x<i>`` (1-based vertex index, sink omitted), cut-set
variables ``y_<edgelabel>``, and oriented half-edge variables
``z1_<edgelabel>`` / ``z2_<edgelabel>`` for the tail and head ends.

Inside the engine monomials are integers (``MonomialCode``). An ideal
builds its code once, on first use of ``MonomialIdeal.code``, and every
lattice computation on that ideal object reads it. Shift arithmetic on the
bit fields stays in ``MonomialCode`` (``MonomialCode.tops``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import Multigraph, cut_set, enumerate_connected_cuts
from .posets import FiniteLattice


@dataclass(frozen=True)
class Monomial:
    """Exponent vector keyed by variable name; zero exponents are dropped."""

    exps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for v, e in self.exps:
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
        if len({v for v, _ in self.exps}) != len(self.exps):
            raise ValueError(f"a variable is named twice in {self.exps}")
        object.__setattr__(self, "exps", tuple(sorted((v, e) for v, e in self.exps if e)))

    @staticmethod
    def of(mapping) -> "Monomial":
        if isinstance(mapping, dict):
            return Monomial(tuple(mapping.items()))
        return Monomial(tuple(mapping))

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.exps)

    def exponent(self, var: str) -> int:
        return self._lookup.get(var, 0)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(v) >= e for v, e in self.exps)

    def lcm(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            if e > merged.get(v, 0):
                merged[v] = e
        return Monomial.of(merged)

    def vector(self, variables: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.exponent(v) for v in variables)

    def to_str(self, variables: tuple[str, ...] | None = None) -> str:
        if not self.exps:
            return "1"
        order = [v for v in variables if self.exponent(v)] if variables else [v for v, _ in self.exps]
        return "*".join(
            v if self.exponent(v) == 1 else f"{v}^{self.exponent(v)}" for v in order
        )

    def __str__(self) -> str:
        return self.to_str()


@dataclass(frozen=True)
class MonomialIdeal:
    """A list of monomial generators over a declared, ordered variable set.

    The list need not be minimal; ``minimalize`` makes it so, and
    ``lcm_closure`` checks it."""

    variables: tuple[str, ...]
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValueError("duplicate variable names")
        for g in self.generators:
            for v, _ in g.exps:
                if v not in declared:
                    raise ValueError(f"generator uses undeclared variable {v!r}")

    def generator_set(self) -> frozenset[Monomial]:
        return frozenset(self.generators)

    def generator_strings(self) -> list[str]:
        return [g.to_str(self.variables) for g in self.generators]

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "generators": [
                {v: g.exponent(v) for v in self.variables if g.exponent(v)}
                for g in self.generators
            ],
        }

    @cached_property
    def code(self) -> "MonomialCode":
        """The ideal's ``MonomialCode``, built on first use and kept."""
        return MonomialCode(self.variables, self.generators)


class MonomialCode:
    """Unary ("thermometer") integer code for the monomials of one ideal.

    Variable v owns a bit field as wide as its largest exponent among the
    generators, and exponent e sets the low e bits of that field. The first
    variable owns the most significant field and the last the least, so for
    two codes of one degree (one popcount) integer order is the
    lexicographic order of their exponent vectors, and
    ``sorted(codes, key=lambda c: (c.bit_count(), c))`` is the
    (degree, exponent vector) order. For every monomial dividing the lcm of
    all generators (so every lcm-lattice element), lcm is bitwise OR, ``a``
    divides ``b`` exactly when ``a & ~b == 0``, and equal codes mean equal
    monomials. For squarefree generators the code is a plain bitmask. Codes
    are Python ints, which never wrap, so the code stays exact however wide
    it grows. Decoding counts the set bits of each field."""

    def __init__(self, variables: tuple[str, ...], generators):
        self.variables = tuple(variables)
        # an undeclared variable gets no field: encoding a generator with it raises
        widths = dict.fromkeys(self.variables, 0)
        for g in generators:
            for v, e in g.exps:
                if v in widths and e > widths[v]:
                    widths[v] = e
        self._fields: dict[str, list[int]] = {}
        self._offsets: dict[str, int] = {}
        offset = sum(widths.values())
        for v, width in widths.items():
            offset -= width
            self._offsets[v] = offset
            self._fields[v] = [((1 << e) - 1) << offset for e in range(width + 1)]
        # the full field of each variable, in variable order
        self.masks = tuple(field[-1] for field in self._fields.values())
        # every bit but the highest of each field
        self._inner = ~0
        for mask in self.masks:
            self._inner &= ~(mask & ~(mask >> 1))
        self.generators = tuple(self.encode(g) for g in generators)

    def encode(self, m: Monomial) -> int:
        code = 0
        for v, e in m.exps:
            field = self._fields.get(v, ())
            if e >= len(field):
                raise ValueError(f"{m} does not divide the lcm of the generators")
            code |= field[e]
        return code

    def tops(self, code: int) -> int:
        """The highest set bit of each nonzero field of ``code``, a code of a
        monomial dividing the lcm of the generators: (code >> 1) moves each
        bit one place down, and masking out the top bit of every field keeps
        a bit of one field from landing in the field below."""
        return code & ~((code >> 1) & self._inner)

    def decode(self, code: int) -> Monomial:
        return Monomial(tuple(
            (v, (code & mask).bit_count()) for v, mask in zip(self.variables, self.masks)
        ))

    def permutation(self, mapping: dict) -> tuple[tuple[int, int], ...]:
        """A variable permutation as moves of whole bit fields, for
        ``permute_code``: (mask, shift) pairs, one per distinct shift, each
        mask the union of the fields that move by that many bits (to the
        left when positive). ``mapping`` must be a bijection of the
        variables that maps each field onto one of the same width."""
        moves: dict[int, int] = {}
        for v, w in mapping.items():
            if len(self._fields[v]) != len(self._fields[w]):
                raise ValueError(
                    f"the map {v} -> {w} joins bit fields of different widths,"
                    " so it does not preserve the generator set"
                )
            shift = self._offsets[w] - self._offsets[v]
            moves[shift] = moves.get(shift, 0) | self._fields[v][-1]
        return tuple((mask, shift) for shift, mask in moves.items() if mask)


def permute_code(code: int, moves: tuple[tuple[int, int], ...]) -> int:
    """Apply a variable permutation, given as ``MonomialCode.permutation``
    field moves, to a code."""
    out = 0
    for mask, shift in moves:
        out |= (code & mask) << shift if shift >= 0 else (code & mask) >> -shift
    return out


def parking_ideal(G: Multigraph) -> MonomialIdeal:
    """One generator per connected cut: each vertex of the non-sink side
    contributes its boundary degree as the exponent of its x-variable.
    These generators are already minimal. The boundary degrees of a cut
    are read in one pass over the edges: an edge leaving U adds 1 to the
    exponent of its endpoint in U."""
    variables = tuple(f"x{v + 1}" for v in G.nonsink_vertices)
    gens = []
    for c in enumerate_connected_cuts(G):
        exps: dict[str, int] = {}
        for e in G.edges:
            tail_in = (c.u_side >> e.tail) & 1
            if tail_in != (c.u_side >> e.head) & 1:
                name = f"x{(e.tail if tail_in else e.head) + 1}"
                exps[name] = exps.get(name, 0) + 1
        gens.append(Monomial.of(exps))
    return MonomialIdeal(variables, tuple(gens))


def cutset_ideal(G: Multigraph) -> MonomialIdeal:
    """One squarefree generator per connected cut-set; sink-independent."""
    variables = tuple(f"y_{e.label}" for e in G.edges)
    gens = tuple(
        Monomial.of({f"y_{label}": 1 for label in cut_set(G, c)})
        for c in enumerate_connected_cuts(G)
    )
    return MonomialIdeal(variables, gens)


def oriented_cutset_ideal(G: Multigraph) -> MonomialIdeal:
    """One squarefree generator per connected cut: an edge leaving the cut
    tail-first contributes its z1-variable, head-first its z2-variable."""
    variables = tuple(f"z{k}_{e.label}" for e in G.edges for k in (1, 2))
    gens = []
    for c in enumerate_connected_cuts(G):
        exps = {}
        for e in G.edges:
            tail_in = (c.u_side >> e.tail) & 1
            head_in = (c.u_side >> e.head) & 1
            if tail_in and not head_in:
                exps[f"z1_{e.label}"] = 1
            elif head_in and not tail_in:
                exps[f"z2_{e.label}"] = 1
        gens.append(Monomial.of(exps))
    return MonomialIdeal(variables, tuple(gens))


def minimalize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Drop every generator divisible by another; idempotent. Generators come
    out sorted by (degree, exponent vector) so output is stable."""
    gens = sorted(set(ideal.generators), key=lambda g: (g.degree, g.vector(ideal.variables)))
    kept: list[Monomial] = []
    for g in gens:
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return MonomialIdeal(ideal.variables, tuple(kept))


def lcm_closure(code: MonomialCode) -> list[int]:
    """Codes of the lcm-lattice elements of the ideal ``code`` was built
    for: all lcms of generator subsets, the constant monomial 0 included,
    sorted by (degree, exponent vector), which ``MonomialCode`` makes
    (popcount, code). Atoms are the generators, so they must be minimal: a
    ``ValueError`` is raised when one generator divides another, duplicates
    included.

    lcm is bitwise OR, and a subset of the first k generators either leaves
    out the k-th or takes it, so the lcms over the first k are those over
    the first k - 1, each kept as is and each OR-ed with the k-th: one pass
    per generator, starting from {0}, the lcm of the empty subset."""
    gens = code.generators
    if not gens:
        raise ValueError("the zero ideal has no lcm-lattice")
    if any(i != j and g & ~h == 0 for i, g in enumerate(gens) for j, h in enumerate(gens)):
        raise ValueError("lcm-lattice requires a minimal generating set")
    found = {0}
    for g in gens:
        found.update([f | g for f in found])
    return sorted(found, key=lambda c: (c.bit_count(), c))


def lcm_lattice(ideal: MonomialIdeal) -> FiniteLattice:
    """Divisibility lattice on all lcms of generator subsets, with the
    constant monomial adjoined as the bottom: the decoded ``lcm_closure``,
    in its order, with the codes as the lattice's codes (divisibility is
    bit inclusion on them). No up-set is built here."""
    code = ideal.code
    codes = lcm_closure(code)
    return FiniteLattice([code.decode(c) for c in codes], codes)


@dataclass(frozen=True, eq=False)
class Substitution:
    """Variable identification closed to canonical representatives: each
    source variable maps to one target variable, or to None meaning it is
    evaluated at the multiplicative identity."""

    assignments: dict
    target_variables: tuple[str, ...]

    def apply_to(self, m: Monomial) -> Monomial:
        out: dict[str, int] = {}
        for v, e in m.exps:
            if v not in self.assignments:
                raise ValueError(f"substitution undefined for variable {v!r}")
            target = self.assignments[v]
            if target is not None:
                out[target] = out.get(target, 0) + e
        return Monomial.of(out)


def shared_vertex_substitution(G: Multigraph) -> Substitution:
    """Identify all half-edge variables meeting at a common non-sink vertex
    with that vertex's parking variable. Half-edges at the sink map to the
    identity: the parking ring carries no sink variable."""
    assignments = {}
    for e in G.edges:
        assignments[f"z1_{e.label}"] = None if e.tail == G.sink else f"x{e.tail + 1}"
        assignments[f"z2_{e.label}"] = None if e.head == G.sink else f"x{e.head + 1}"
    targets = tuple(f"x{v + 1}" for v in G.nonsink_vertices)
    return Substitution(assignments, targets)


def forget_orientation_substitution(G: Multigraph) -> Substitution:
    """Identify both oriented variables of each edge with the edge's
    cut-set variable."""
    assignments = {}
    for e in G.edges:
        assignments[f"z1_{e.label}"] = f"y_{e.label}"
        assignments[f"z2_{e.label}"] = f"y_{e.label}"
    return Substitution(assignments, tuple(f"y_{e.label}" for e in G.edges))


def apply_substitution(ideal: MonomialIdeal, sub: Substitution) -> MonomialIdeal:
    """Rename variables, merge exponents, then minimalize."""
    mapped = MonomialIdeal(
        sub.target_variables, tuple(sub.apply_to(g) for g in ideal.generators)
    )
    return minimalize(mapped)


def variable_symmetries(G: Multigraph, kind: str) -> tuple[dict, ...]:
    """Variable permutations induced by a generating set of the sink-fixing
    graph automorphisms (``Multigraph.sink_automorphisms``, the greedy one),
    for the parking ('x'), cut-set ('y'), or oriented ('z') variable set:
    4 maps on K6 at a sink, where the group has 119 besides the identity.
    The identity is never among them. Parallel edges are matched
    class-to-class in label order; an orientation flip swaps an edge's z1/z2
    variables. Each kind's induced map respects composition, so the maps
    generate the group induced on the variables and give the same orbits
    of monomials as the whole group."""
    if kind not in ("x", "y", "z"):
        raise ValueError(f"unknown variable kind {kind!r}")
    by_pair: dict[tuple[int, int], list] = {}
    for e in G.edges:
        by_pair.setdefault((min(e.tail, e.head), max(e.tail, e.head)), []).append(e)
    for edges in by_pair.values():
        edges.sort(key=lambda e: e.label)
    maps = []
    for sigma in G.sink_automorphisms:
        mapping: dict[str, str] = {}
        if kind == "x":
            for v in G.nonsink_vertices:
                mapping[f"x{v + 1}"] = f"x{sigma[v] + 1}"
        else:
            for pair, edges in by_pair.items():
                tgt_pair = (min(sigma[pair[0]], sigma[pair[1]]), max(sigma[pair[0]], sigma[pair[1]]))
                targets = by_pair[tgt_pair]
                for e, t in zip(edges, targets):
                    if kind == "y":
                        mapping[f"y_{e.label}"] = f"y_{t.label}"
                    else:
                        keeps = sigma[e.tail] == t.tail
                        mapping[f"z1_{e.label}"] = f"z{1 if keeps else 2}_{t.label}"
                        mapping[f"z2_{e.label}"] = f"z{2 if keeps else 1}_{t.label}"
        maps.append(mapping)
    return tuple(maps)
