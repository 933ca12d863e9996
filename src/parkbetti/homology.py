"""The four Betti-number pipelines and their shared homology plumbing.

All Betti vectors are for the quotient ring and start at beta_1; trailing
zeros are trimmed so vectors from different methods compare as plain tuples.
Homology is computed over every characteristic in ``chars`` and must agree;
a disagreement means the answer is field-dependent and is raised, never
averaged.

Every homology computation takes one route, ``_ReductionMemo._reduced``:
the vertex masks of a complex are cut to its strong-collapse core, the
core is looked up in the memo, and only on a miss is one side of it
enumerated as a relative face family {dimension: [index tuples]}
(``relative_faces``) and reduced. Two models feed it, each through one
per-element method of ``_ReductionMemo``. ``_interval_dims`` uses the
crosscut model of the lcm-lattice interval below an element; both
``betti_gpw`` and the concentration audit (``interval_homology_audit``) go
through it, so the audit reports the homology that gpw sums.
``_koszul_dims`` uses the upper Koszul complex at an element;
``betti_koszul`` goes through it. The order complex of an interval (every
chain) and the Koszul complex by its subset definition are kept only as
test oracles.

Both complexes have one shape: a set of vertices is a face exactly when
some facet holds all of them. Each vertex is given by its mask, the
bitmask of the facets that hold it, so a set of vertices is a face exactly
when the AND of its masks is nonzero; the AND of no mask holds every
facet, and every complex here has one, so the empty set is a face. A
vertex whose mask is 0 lies in no facet and is no vertex of the complex.

Interval homology in an lcm-lattice uses the crosscut model: by the
crosscut theorem the open interval (1, y) is homotopy equivalent to the
crosscut complex D on the atoms below y, whose faces are the atom subsets
whose join stays a proper divisor of y. The atoms below y are the
generators dividing y, so the model needs no lattice order. Let T be the
top bit of each nonzero field of y (fields as in the integer codes below),
and call r(b) = b & T the reach of an atom b: the variables where b has
y's exponent. A join of atoms is y exactly when their reaches cover T, so
a set of atoms is a face of D exactly when the masks M(b) = T & ~r(b) of
its atoms share a bit: the facets of D are {b : t in M(b)}, one for each
bit t of T.

The core (``_strong_core``). Read the masks as an incidence matrix, a row
for each vertex and a column for each facet. A row inside another row is a
dominated vertex: every facet that holds it holds the other, and deleting
it is a strong collapse, which keeps the homotopy type (Barmak-Minian,
"Strong homotopy types, nerves and collapses", DCG 47, 2012). A column
inside another column is a facet that is not maximal, and deleting it
leaves the complex as it is. Zero rows are dropped, then the two steps
alternate until neither drops anything, as in Boissonnat-Pritam-Pareek,
"Strong collapse for persistence" (ESA 2018); what is left is the core,
unique up to isomorphism. It has two sides: its rows, and the transposed
complex, whose vertices are the columns, a set of them a face when some
row lies in all of them. That is the nerve of the facets, of the same
homotopy type (Bjorner, "Topological methods", 1995), so a miss enumerates
whichever side has fewer vertices, the rows on a tie. Three rows or
fewer left by the first row step are settled before any column is read,
by which of them share a column: no row is the complex {()}, as below a
generator in both models; one row, or rows that one column holds, is a
point. In a seed-1 ``corpus5`` benchmark pass 17,514 of the 20,586 cores
(85%) are settled so, 5,637 of them with three rows. An atom that
reaches no bit of T has the mask T and makes a cone; for J and K, where
T = y, the atoms form an antichain, so no row is dropped until a column
is.

Degrees are bounded by #variables - 2 in both models: higher degrees
vanish because the quotient's projective dimension is at most the variable
count, and each side of a core has the homotopy type of the complex, so
the bound holds on either. Faces are grown up to #variables vertices, one
dimension more, which truncation (below) shows to be exact, and the dims
are listed in the degrees -1 to #variables - 2.

The Koszul model reads the upper Koszul complex K^m(I), the family of
subsets F of supp m with m / x^F in I (Miller-Sturmfels, Thm 1.34), its
vertices the variables of supp m in variable order. m / x^F lies in I
exactly when some generator g divides m with g_v < m_v for every v in F,
so the facets are {v in supp m : g_v < m_v}, one for each generator g
dividing m: the mask of v has a bit for each g with g_v < m_v, which on
codes is m & ~g having a bit in v's field. At a generator m = g every mask
is 0 and the complex is {()}.

Neither complex is ever assembled. Let a be the first vertex of the side
of the core enumerated, the first with a nonzero mask. Every face that holds a lies in the star of a, the
faces F with F + a a face, which is a cone on a. So the faces outside the
star are the faces of the deletion del(a) (faces without a) outside the
link lk(a) (faces F without a with F + a a face), and the augmented chains
of the complex relative to star(a) and of del(a) relative to lk(a) are one
and the same chain complex. A cone is acyclic over every coefficient ring,
so the reduced homology is H_i(del a, lk a) for every i, over the integers
and every field. The basis of this relative complex is every subset F of
the other vertices whose masks share a bit and share none of a's. The
empty face is among them exactly when no vertex is left: then the complex
is {()}, the star and the link are void, and H~_{-1} = 1. Truncation is
exact too: the relative chains up to dimension d + 1 are those of the
(d + 1)-skeleta (skeleta commute with deletion, link and star), and
homology in degree d reads only degrees d - 1, d and d + 1, so faces of
at most cap vertices give every degree up to cap - 2.

The whole lattice loop of ``betti_gpw`` and ``betti_koszul`` runs on
integer-coded monomials (``MonomialCode``): each variable owns a unary bit
field, so the lcm of two monomials is the OR of their codes and "a divides
b" is ``a & ~b == 0``. The lattice elements are the codes ``lcm_closure``
returns, in the order of ``lcm_lattice``; no ``FiniteLattice`` and no
``Monomial`` is built for them. A symmetry moves whole bit fields
(``MonomialCode.permutation``), so orbits are found on codes too, from the
maps a caller passes: ``verify`` and the CLI pass a generating set of the
sink-fixing group (``variable_symmetries``), which gives the orbits of the
whole group. The atoms below an element and every vertex mask come from
mask tests on codes. Variable names come back only to label a characteristic
disagreement. The audit walks the elements of the lattice it is given and
encodes each once.

Most complexes repeat, inside one lattice and across the lattices of one
graph, so every distinct core is reduced once per ``_ReductionMemo``: the
one object the lattice methods run on. It checks the characteristics once
(at least one) and holds them with a plain dict of the dims computed over
them. Its keys are exact: (model, cap, row count, sorted column masks),
the columns as masks over the rows numbered 0, 1, ..., which fix the
complex on either side, and the cap, which fixes the truncation, so one
memo serves I, J and K, whose variable counts differ. The model's name
keeps two key spaces: a Koszul lookup never reads a crosscut reduction,
nor the reverse. At an element of lcm(I) the two cores are nearly always
one: over every sink of the 401-graph acceptance corpus the keys agree but
for the name at 78,033 of 78,184 elements. ``betti_koszul`` stays an
oracle independent of ``betti_gpw`` on a shared memo because each model
reduces its own core from its own masks: the Koszul masks come from the
gaps m & ~g of the generators dividing m, not from the reaches of the
atoms, so a fault in either mask path shows as two vectors that differ.
Each call of ``betti_gpw``, ``betti_koszul`` and
``interval_homology_audit`` builds its own ``_ReductionMemo`` and drops it
on return; ``verify.verify_graph`` builds one for its whole graph, shared
by every Betti check at every sink and by the audit, and drops it on
return. Nothing is shared between calls, so every call does the same work
whatever ran before it. A characteristic disagreement propagates and is
never stored, so it is raised at the same element, with the same message,
as if there were no memo.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Callable

from .chips import mpf_count
from .graphs import Multigraph, connected_partitions, contract
from .ideals import MonomialCode, MonomialIdeal, lcm_closure, permute_code
from .posets import FiniteLattice
from .simplicial import homology_from_faces_multi

DEFAULT_CHARS = (32003, 2)


class CharacteristicDisagreement(ArithmeticError):
    """Homology dimensions differ between coefficient fields: the complex has
    torsion, so no field-independent Betti number exists."""

    def __init__(self, dims_by_char: dict, context: str = ""):
        self.dims_by_char = dims_by_char
        summary = "; ".join(f"char {c}: {d}" for c, d in dims_by_char.items())
        suffix = f" [{context}]" if context else ""
        super().__init__(f"homology depends on the field ({summary}){suffix}")


def relative_faces(masks: list[int], cap: int) -> dict[int, list[tuple[int, ...]]]:
    """Basis of the relative complex (del a, lk a) of a complex given by
    the facet masks of its vertices, a its first vertex, whose homology is
    the reduced homology of the complex (see the module docstring). The
    complex must have a facet. Zero masks are dropped, since such a vertex
    lies in no facet, and the vertices left are numbered in order; a is
    vertex 0.

    Returns the subsets F of the vertices after a, as index tuples (all
    >= 1), of at most ``cap`` elements, whose masks AND to a nonzero value
    that shares no bit with a's mask, keyed by dimension, each dimension in
    lexicographic order; dimensions without a face are left out. With no
    vertex left the complex is {()}, and so is the result. The deletion
    del(a) is downward closed, because ANDs only shrink, so prefix
    extension over the vertices after a enumerates it exactly, and each
    grown face is kept when it lies outside the link."""
    if 0 in masks:
        masks = [m for m in masks if m]
    if not masks:
        return {-1: [()]}
    first = masks[0]
    count = len(masks)
    limit = min(cap, count - 1)
    faces: dict[int, list[tuple[int, ...]]] = {}
    # the empty face holds every facet, a's among them, so it is never kept
    level: list[tuple[tuple[int, ...], int]] = [((), -1)]
    for size in range(1, limit + 1):
        grown: list[tuple[tuple[int, ...], int]] = []
        for face, shared in level:
            start = face[-1] + 1 if face else 1
            for j in range(start, count):
                common = shared & masks[j]
                if common:
                    grown.append((face + (j,), common))
        if not grown:
            break
        kept = [f for f, common in grown if not common & first]
        if kept:
            faces[size - 1] = kept
        level = grown
    return faces


def _as_vector(betti: dict[int, int]) -> tuple[int, ...]:
    top = max((i for i, v in betti.items() if v), default=0)
    return tuple(betti.get(i, 0) for i in range(1, top + 1))


def betti_wilmes(G: Multigraph) -> tuple[int, ...]:
    """Contraction formula: beta_i totals the maximal-parking-function counts
    of the contractions to connected partitions with i+1 parts."""
    if G.n < 2:
        raise ValueError("needs at least two vertices")
    return _wilmes_sum(connected_partitions(G), lambda p: mpf_count(contract(G, p)))


def _wilmes_sum(partitions, contraction_mpf: Callable) -> tuple[int, ...]:
    """The sum of ``betti_wilmes`` over the given connected partitions, with
    ``contraction_mpf(p)`` the mpf count of the contraction to p: one
    sum for ``betti_wilmes`` and for ``verify.verify_graph``, which reads
    the counts its Mobius check already took."""
    betti: dict[int, int] = defaultdict(int)
    for p in partitions:
        if p.part_count >= 2:
            betti[p.part_count - 1] += contraction_mpf(p)
    return _as_vector(betti)


def _validated_symmetries(code: MonomialCode, symmetries) -> list[tuple]:
    """The field moves (``MonomialCode.permutation``) of each symmetry,
    checked to permute the variables and to fix the generator set."""
    variables = set(code.variables)
    gens = set(code.generators)
    permutations = []
    for mapping in symmetries:
        if set(mapping) != variables or set(mapping.values()) != variables:
            raise ValueError("symmetry is not a permutation of the ideal's variables")
        moves = code.permutation(mapping)
        if {permute_code(g, moves) for g in gens} != gens:
            raise ValueError("symmetry does not preserve the generator set")
        permutations.append(moves)
    return permutations


def _orbit_representatives(codes, permutations) -> list[tuple[int, int]]:
    """Split element codes into orbits under variable permutations, given
    as field moves; returns (representative, orbit size) pairs, each
    representative the first of its orbit in ``codes``. Isomorphic
    intervals share all homology, so one computation covers a whole
    orbit.

    Every orbit stays among the proper elements of the lattice, so no
    image needs checking: each permutation fixes the generator set
    (``_validated_symmetries`` checks it), ``permute_code`` commutes with
    OR, and every proper element is the OR of a nonempty set of
    generators, so its image is the OR of their images, again a nonempty
    set of generators. The search applies every map to every orbit
    element until the orbit is closed, because ``symmetries`` is caller
    input that need not be closed under composition. So a generating set
    of a group gives the same orbits, representatives and sizes as the
    whole group, as ``variable_symmetries`` relies on."""
    if not permutations:
        return [(c, 1) for c in codes]
    seen: set[int] = set()
    out = []
    for c in codes:
        if c in seen:
            continue
        orbit = {c}
        stack = [c]
        while stack:
            x = stack.pop()
            for moves in permutations:
                y = permute_code(x, moves)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        out.append((c, len(orbit)))
    return out


def _lattice_betti(code: MonomialCode, symmetries, dims_at) -> tuple[int, ...]:
    """Shared loop of the lcm-lattice methods: beta_i sums, over the proper
    elements m of lcm(I), the reduced homology dims ``dims_at(m)`` reports
    in degree i-2, computed once per symmetry orbit and weighted by the
    orbit size. Elements are the ``lcm_closure`` codes of ``code``."""
    codes = lcm_closure(code)
    permutations = _validated_symmetries(code, symmetries)
    betti: dict[int, int] = defaultdict(int)
    # codes[0] is the bottom, 0
    for top, weight in _orbit_representatives(codes[1:], permutations):
        for degree, dim in dims_at(top).items():
            if dim:
                betti[degree + 2] += weight * dim
    return _as_vector(betti)


def _label(code: MonomialCode, top: int) -> str:
    """The element with code ``top``, by variable name: used only to label
    a characteristic disagreement."""
    return code.decode(top).to_str(code.variables)


def _crosscut_masks(code: MonomialCode, top: int) -> list[int]:
    """The facet masks of the crosscut complex of (1, y) on every atom below
    y, at the code of y, in generator order: T & ~(b & T) for an atom b, T
    the top bit of each nonzero field of y (see the module docstring)."""
    tops = code.tops(top)
    return [tops & ~a for a in code.generators if not a & ~top]


def _koszul_masks(code: MonomialCode, top: int) -> list[int]:
    """The facet masks of the upper Koszul complex K^m(I), I the ideal of
    ``code`` and m the element with code ``top``: one for each variable v
    of supp m, in variable order, with bit i set when the i-th generator g
    dividing m has g_v < m_v, that is when m & ~g has a bit in v's field
    (see the module docstring)."""
    gaps = [top & ~g for g in code.generators if not g & ~top]
    return [
        sum(1 << i for i, gap in enumerate(gaps) if gap & mask)
        for mask in code.masks
        if top & mask
    ]


def _maximal(masks: list[int]) -> list[int]:
    """The distinct masks inside no other one, in (descending popcount,
    first appearance) order. A mask inside a larger one is inside a
    maximal one, which comes first and is kept, so each mask is compared
    with the kept ones only, until one holds it."""
    kept: list[int] = []
    for mask in sorted(dict.fromkeys(masks), key=int.bit_count, reverse=True):
        for k in kept:
            if not mask & ~k:
                break
        else:
            kept.append(mask)
    return kept


def _transpose(masks) -> list[int]:
    """The incidence read the other way: one mask for each bit set in some
    mask, in order of first appearance, with bit i set when the i-th mask
    holds that bit."""
    flipped: dict[int, int] = {}
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            flipped[low] = flipped.get(low, 0) | 1 << i
            mask ^= low
    return list(flipped.values())


# the core of three rows, none inside another and no column holding all
# three, by how many pairs of them share a column: none, three points;
# one, two points (the pair's rows are left with one maximal column); two,
# a point (the row in both pairs holds the others); three, a hollow triangle
_THREE_ROWS = ((3, (1, 2, 4)), (2, (1, 2)), (1, (1,)), (3, (3, 5, 6)))


def _strong_core(masks: list[int]) -> tuple[int, tuple[int, ...]]:
    """The strong-collapse core of the complex whose vertices have the
    facet masks ``masks`` (see the module docstring): its row count and its
    column masks over the rows, numbered 0, 1, ..., sorted. Zero masks are
    dropped first. Rows inside another row and columns inside another
    column are dropped in turn until neither step drops anything. Three
    rows or fewer left by the first row step are settled at once, by which
    of them share a column: no row is the complex {()}, whose one facet is
    empty; one row, or rows that one column holds, is a point; two that
    share none are two points; three go by ``_THREE_ROWS``."""
    side = _maximal([m for m in masks if m])
    if len(side) <= 2:
        if not side:
            return 0, (0,)
        if len(side) == 2 and not side[0] & side[1]:
            return 2, (1, 2)
        return 1, (1,)
    if len(side) == 3:
        a, b, c = side
        if a & b & c:
            return 1, (1,)
        return _THREE_ROWS[(a & b != 0) + (a & c != 0) + (b & c != 0)]
    flipped = _transpose(side)
    holds_rows = True
    while True:
        pruned = _maximal(flipped)
        if len(pruned) == len(flipped):
            break
        side, flipped = pruned, _transpose(pruned)
        holds_rows = not holds_rows
    if holds_rows:
        return len(side), tuple(sorted(flipped))
    return len(flipped), tuple(sorted(side))


class _ReductionMemo:
    """The one object the lcm-lattice computations run on (see the module
    docstring): the characteristics, checked once, and the memo of dims
    computed over them, whose keys leave the characteristics out."""

    def __init__(self, chars):
        self.chars = tuple(chars)
        if not self.chars:
            raise ValueError("need at least one characteristic")
        self.memo: dict = {}

    def _reduced(
        self, model: str, masks: list[int], cap: int, context: Callable[[], str]
    ) -> dict[int, int]:
        """Reduced homology dims, in degrees -1 to cap - 2, of the complex
        whose vertices have the facet masks ``masks``, over every
        characteristic, required to agree. The masks are cut to their
        strong-collapse core (``_strong_core``) before the memo lookup,
        and the key is (model, cap, row count, column masks). Only on a
        miss is the side of the core with fewer vertices enumerated, as
        faces of at most ``cap`` vertices, and reduced. ``context`` builds
        the label of a disagreement; it is called only when one is raised,
        and a disagreement is never stored."""
        rows, cols = _strong_core(masks)
        key = (model, cap, rows, cols)
        dims = self.memo.get(key)
        if dims is None:
            vertices = list(cols) if len(cols) < rows else _transpose(cols)
            by_char = homology_from_faces_multi(relative_faces(vertices, cap), self.chars)
            by_char = {c: {d: got.get(d, 0) for d in range(-1, cap - 1)} for c, got in by_char.items()}
            dims = by_char[self.chars[0]]
            if any(d != dims for d in by_char.values()):
                raise CharacteristicDisagreement(by_char, context())
            self.memo[key] = dims
        return dims

    def _interval_dims(self, code: MonomialCode, top: int) -> dict[int, int]:
        """Reduced homology of the open interval (1, y) of lcm(I), I the
        ideal of ``code``, at the code of y, in the degrees up to the
        projective-dimension bound: the one interval path, shared by
        ``betti_gpw`` and the audit."""
        return self._reduced(
            "crosscut", _crosscut_masks(code, top), len(code.variables), partial(_label, code, top)
        )

    def _koszul_dims(self, code: MonomialCode, top: int) -> dict[int, int]:
        """Reduced homology of K^m(I), I the ideal of ``code``, at the code
        of m, in the degrees up to the projective-dimension bound: the one
        Koszul path, used by ``betti_koszul``."""
        return self._reduced(
            "koszul", _koszul_masks(code, top), len(code.variables),
            lambda: f"degree {_label(code, top)}",
        )

    def betti_gpw(self, ideal: MonomialIdeal, symmetries=()) -> tuple[int, ...]:
        code = ideal.code
        return _lattice_betti(code, symmetries, partial(self._interval_dims, code))

    def betti_koszul(self, ideal: MonomialIdeal, symmetries=()) -> tuple[int, ...]:
        code = ideal.code
        return _lattice_betti(code, symmetries, partial(self._koszul_dims, code))

    def audit(self, ideal: MonomialIdeal, lattice: FiniteLattice) -> list[dict]:
        code = ideal.code
        mu = lattice.mobius()
        rows = []
        for x in lattice.elements:
            if x == lattice.bottom:
                continue
            rows.append({
                "element": x.to_str(ideal.variables),
                "rank": lattice.rank(x),
                "mobius": mu[x],
                "homology": {
                    d: v for d, v in self._interval_dims(code, code.encode(x)).items() if v
                },
            })
        return rows


def betti_gpw(ideal: MonomialIdeal, chars=DEFAULT_CHARS, symmetries=()) -> tuple[int, ...]:
    """Lcm-lattice method: beta_i sums the reduced homology of the open
    interval below each lattice element, in degree i-2.

    ``symmetries`` may carry variable permutations that fix the generator
    set (for instance from graph automorphisms); intervals in one orbit are
    isomorphic and computed once. Each must map the ideal's variables
    one-to-one onto themselves."""
    return _ReductionMemo(chars).betti_gpw(ideal, symmetries)


def betti_koszul(ideal: MonomialIdeal, chars=DEFAULT_CHARS, symmetries=()) -> tuple[int, ...]:
    """Independent oracle: multigraded Betti numbers of the ideal from the
    upper Koszul complexes at the lcm-lattice elements, totaled coarsely and
    shifted to quotient-ring indexing (quotient beta_i = ideal beta_{i-1},
    so homology in degree d counts toward beta_{d+2})."""
    return _ReductionMemo(chars).betti_koszul(ideal, symmetries)


def betti_mobius(lattice: FiniteLattice) -> tuple[int, ...]:
    """Rank-wise absolute Mobius values. Valid as a Betti computation only
    for geometric lcm-lattices; raises NotGradedError otherwise."""
    mu = lattice.mobius()
    betti: dict[int, int] = defaultdict(int)
    for x in lattice.elements:
        r = lattice.rank(x)
        if r >= 1:
            betti[r] += abs(mu[x])
    return _as_vector(betti)


def interval_homology_audit(
    ideal: MonomialIdeal, lattice: FiniteLattice, chars=DEFAULT_CHARS
) -> list[dict]:
    """Per-element audit rows for the graded lcm-lattice ``lattice`` of
    ``ideal``: label, rank, Mobius value, and the nonzero reduced homology of
    the open interval below the element, from the same crosscut model as
    ``betti_gpw``. Feeds the concentration check and the report output."""
    return _ReductionMemo(chars).audit(ideal, lattice)
