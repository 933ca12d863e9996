"""The four Betti-number pipelines and their shared homology plumbing.

All Betti vectors are for the quotient ring and start at beta_1; trailing
zeros are trimmed so vectors from different methods compare as plain tuples.
Homology is computed over every characteristic in ``chars`` and must agree;
a disagreement means the answer is field-dependent and is raised, never
averaged.

Every homology computation takes one route: the vertex masks of a complex
are cut to its strong-collapse core, the core is looked up in the memo,
and only on a miss is one side of it enumerated as a relative face family
{dimension: [index tuples]} (``relative_faces``) and reduced, by the one
miss handler ``_ReductionMemo._reduce``. Two models feed it: the crosscut
model of the lcm-lattice interval below an element, read by ``betti_gpw``
and by the concentration audit (``interval_homology_audit``, through
``_interval_dims``), so the audit reports the homology that gpw sums; and
the upper Koszul complex at an element, read by ``betti_koszul``. The
order complex of an interval (every chain) and the Koszul complex by its
subset definition are kept only as test oracles.

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
whichever side has fewer vertices, the rows on a tie. As soon as either
side has three or fewer entries, after the first row step or any step
after it, the core is settled by which of them share a column: no row is
the complex {()}, as below a generator in both models; one row, or rows
that one column holds, is a point. These five settled shapes, {()}, a
point, two points, three points and the hollow triangle, are the only
cores of three rows or fewer, since no row of a core lies in another and
no column in another; each is its own transpose, so the cores of three
columns or fewer are the same five, and settling on the column side gives
the key the rows would. In a seed-1 ``corpus5`` benchmark pass 19,143 of
the 20,586 cores (93%) are settled so: 17,514 after the first row step,
5,637 of them with three rows, and 1,629 on a later step. Their reduced
homology is fixed and the same over every field, so every memo starts out
holding it (below), and only a core of four or more rows is enumerated and
reduced. An atom that reaches no bit of T has the mask T and makes a cone.
Where every nonzero field of y is one bit wide, T = y: at every element of
lcm(J) and lcm(K), and at the squarefree elements of lcm(I). There the
atoms are distinct and none divides another, so their masks, the bits of y
outside each, are distinct and none lies inside another: the first row
step only drops the zero mask of the atom y, if y is an atom, and sorts the
rest by popcount, with no pairwise test, and no row is dropped until a
column is. In that pass 8,428 of the 20,586 cores start so, and 9,609
start from two masks or fewer, settled before any step.

The core bounds every degree. For the crosscut model its columns are bits
of T, one for each variable of supp y; for the Koszul model (below) its
rows are the variables of supp m. So the side enumerated has at most
#variables vertices, its relative faces (below) at most #variables - 1,
and no degree above #variables - 2, the projective-dimension bound, can
occur: every face is grown and nothing is truncated.

The Koszul model reads the upper Koszul complex K^m(I), the family of
subsets F of supp m with m / x^F in I (Miller-Sturmfels, Thm 1.34), its
vertices the variables of supp m in variable order. m / x^F lies in I
exactly when some generator g divides m with g_v < m_v for every v in F,
so the facets are {v in supp m : g_v < m_v}, one for each generator g
dividing m: the mask of v has bit i when the i-th generator g divides m
and has g_v < m_v, the bits numbering every generator, those that do not
divide m left clear. Both tests read one table of ``MonomialCode``, kept
per code: for each bit, the generators that hold it (``holders``). A
generator divides m when it holds none of the bits just above m's fields
(``MonomialCode.divisors``), and has g_v < m_v when it lacks the top bit
of m's field of v, so each mask is the divisors minus the holders of one
bit. At a generator m = g every mask is 0 and the complex is {()}.

Neither complex is ever assembled. Let a be the first vertex of the side
of the core enumerated, the first with a nonzero mask. Every face that
holds a lies in the star of a, the faces F with F + a a face, which is a
cone on a. So the faces outside the star are the faces of the deletion
del(a) (faces without a) outside the link lk(a) (faces F without a with
F + a a face), and the augmented chains of the complex relative to star(a)
and of del(a) relative to lk(a) are one and the same chain complex. A cone
is acyclic over every coefficient ring, so the reduced homology is
H_i(del a, lk a) for every i, over the integers and every field. The basis
of this relative complex is every subset F of the other vertices whose
masks share a bit and share none of a's. The empty face is among them
exactly when no vertex is left: then the complex is {()}, the star and the
link are void, and H~_{-1} = 1.

The lattice loop (``_lattice_betti``), one for ``betti_gpw`` and
``betti_koszul``, builds the model's masks at each orbit representative,
cuts them to their core, reduces a miss and adds the orbit size to a tally
kept per key; beta is read once per distinct key. It runs on
integer-coded monomials (``MonomialCode``): each variable owns a unary bit
field, so the lcm of two monomials is the OR of their codes and "a divides
b" is ``a & ~b == 0``. The lattice elements are the codes ``lcm_closure``
returns, in the order of ``lcm_lattice``; no ``FiniteLattice`` and no
``Monomial`` is built for them. A symmetry moves whole bit fields
(``MonomialCode.permutation``), so orbits are found on codes too, from the
maps a caller passes: ``verify`` and the CLI pass a generating set of the
sink-fixing group (``variable_symmetries``), which gives the orbits of the
whole group. The atoms below an element and every vertex mask come from
mask tests on codes. Variable names come back only to label a
characteristic disagreement, on a miss. The audit walks the elements of
the lattice it is given and encodes each once.

A walk of a lattice, the closure and the orbit search over it, depends
only on the generator codes and the field moves of the symmetries, so
``_ReductionMemo`` keeps the orbit representatives and sizes of the last
walk under that key: at each sink ``verify.verify_graph`` runs koszul-I
right after gpw-I, and the two read one walk of lcm(I). Only the last walk
is kept, since an n = 7 graph with no symmetry has a representative for
every element.

Most complexes repeat, inside one lattice, across the lattices of one graph
and across the two models, so every distinct core of four or more rows is
reduced once per ``_ReductionMemo``, the one object the lattice methods run
on, and one lattice pass reads the dims of each key once, from its tally.
It checks the characteristics when it is built (at least one, each 0 or a
prime below 2^31) and holds them with a plain dict of the dims computed
over them, only the nonzero degrees, which starts out holding the five
settled cores. Its key is the core itself: (row count, sorted column
masks), the columns as masks over the rows numbered 0, 1, ..., which fix
the complex on either side. So a hit returns the dims of exactly that
complex, whichever model or ideal first reached it.

At an element m of lcm(I) the Koszul mask of v holds the atom b exactly
when b_v < m_v, that is when b's crosscut mask holds v's top bit, so the
nonzero Koszul masks are the crosscut masks transposed, and over every
sink of the 401-graph acceptance corpus the two keys agree at 78,033 of
78,184 elements. So ``betti_koszul`` checks the mask builders, not the
reduction: a fault in either builder (the holder bitsets, the reaches of
the atoms) shows as two vectors that differ, while a fault in the core, the
enumeration or the ranks gives both models the same wrong dims wherever
their keys agree, and is caught by ``betti_wilmes``, ``betti_mobius`` and
the concentration audit.

Each call of ``betti_gpw``, ``betti_koszul`` and
``interval_homology_audit`` builds its own ``_ReductionMemo`` and drops it
on return; ``verify.verify_graph`` builds one for its whole graph, shared,
with its last walk, by every Betti check at every sink and by the audit,
and drops it on return. Nothing is shared between calls, so every call does
the same work whatever ran before it. A characteristic disagreement
propagates and is never stored, so it is raised at the same element, with
the same message, as if there were no memo.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from .chips import mpf_count
from .graphs import Multigraph, connected_partitions, contract
from .ideals import MonomialCode, MonomialIdeal, lcm_closure, permute_code
from .posets import FiniteLattice
from .simplicial import _check_char, homology_from_faces_multi

DEFAULT_CHARS = (32003, 2)


class CharacteristicDisagreement(ArithmeticError):
    """Homology dimensions differ between coefficient fields: the complex has
    torsion, so no field-independent Betti number exists."""

    def __init__(self, dims_by_char: dict, context: str = ""):
        self.dims_by_char = dims_by_char
        summary = "; ".join(f"char {c}: {d}" for c, d in dims_by_char.items())
        suffix = f" [{context}]" if context else ""
        super().__init__(f"homology depends on the field ({summary}){suffix}")


def relative_faces(masks: list[int]) -> dict[int, list[tuple[int, ...]]]:
    """Basis of the relative complex (del a, lk a) of a complex given by
    the facet masks of its vertices, a its first vertex, whose homology is
    the reduced homology of the complex (see the module docstring). The
    complex must have a facet. Zero masks are dropped, since such a vertex
    lies in no facet, and the vertices left are numbered in order; a is
    vertex 0.

    Returns the subsets F of the vertices after a, as index tuples (all
    >= 1), whose masks AND to a nonzero value that shares no bit with a's
    mask, keyed by dimension, each dimension in lexicographic order;
    dimensions without a face are left out. With no vertex left the
    complex is {()}, and so is the result. The deletion del(a) is downward
    closed, because ANDs only shrink, so prefix extension over the
    vertices after a enumerates it exactly, and each grown face is kept
    when it lies outside the link."""
    if 0 in masks:
        masks = [m for m in masks if m]
    if not masks:
        return {-1: [()]}
    first = masks[0]
    count = len(masks)
    faces: dict[int, list[tuple[int, ...]]] = {}
    # the empty face holds every facet, a's among them, so it is never kept
    level: list[tuple[tuple[int, ...], int]] = [((), -1)]
    for size in range(1, count):
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


def _label(code: MonomialCode, top: int, koszul: bool = False) -> str:
    """The element with code ``top``, by variable name, as a Koszul degree
    with ``koszul``: used only to label a characteristic disagreement."""
    label = code.decode(top).to_str(code.variables)
    return f"degree {label}" if koszul else label


def _crosscut_masks(code: MonomialCode, top: int) -> list[int]:
    """The facet masks of the crosscut complex of (1, y) on every atom below
    y, at the code of y, in generator order: T & ~(b & T) for an atom b, T
    the top bit of each nonzero field of y (see the module docstring)."""
    tops = code.tops(top)
    return [tops & ~a for a in code.generators if not a & ~top]


def _koszul_masks(code: MonomialCode, top: int) -> list[int]:
    """The facet masks of the upper Koszul complex K^m(I), I the ideal of
    ``code`` and m the element with code ``top``: one for each variable v
    of supp m, in variable order, with bit i set when the generator
    ``code.generators[i]`` divides m and has g_v < m_v (see the module
    docstring). Both tests read the holder bitsets of ``code``: the
    generators dividing m are ``code.divisors(top)``, and g_v < m_v
    exactly when g lacks the top bit of m's field of v, so each mask is
    the divisors minus the holders of that bit. The top bits are taken
    from the highest down, which is variable order."""
    divisors = code.divisors(top)
    holders = code.holders
    tops = code.tops(top)
    masks = []
    while tops:
        bit = tops.bit_length() - 1
        masks.append(divisors & ~holders[bit])
        tops ^= 1 << bit
    return masks


def _maximal(masks: list[int]) -> list[int]:
    """The distinct nonzero masks inside no other one, in (descending
    popcount, first appearance) order. A mask inside a larger one is inside
    a maximal one, which comes first and is kept, so each mask is compared
    with the kept ones only, until one holds it. A 0 sorts last, once, and
    is popped there."""
    ordered = sorted(dict.fromkeys(masks), key=int.bit_count, reverse=True)
    if ordered and not ordered[-1]:
        ordered.pop()
    kept: list[int] = []
    for mask in ordered:
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

# the settled cores, the only ones of three rows or fewer, and their reduced
# homology, the same over every field: {()}, a point, two points, three
# points and the hollow triangle
_SETTLED = {
    (0, (0,)): {-1: 1},
    (1, (1,)): {},
    (2, (1, 2)): {0: 1},
    (3, (1, 2, 4)): {0: 2},
    (3, (3, 5, 6)): {1: 1},
}


def _strong_core(masks: list[int], antichain: bool = False) -> tuple[int, tuple[int, ...]]:
    """The strong-collapse core of the complex whose vertices have the
    facet masks ``masks`` (see the module docstring): its row count and its
    column masks over the rows, numbered 0, 1, ..., sorted. Zero masks are
    dropped first. Rows inside another row and columns inside another
    column are dropped in turn until neither step drops anything. As soon
    as either side has three or fewer entries the core is settled, by
    which of them share a column: none is the complex {()}, whose one
    facet is empty; one, or entries that one column holds, is a point;
    two that share none are two points; three go by ``_THREE_ROWS``. The
    five settled shapes are each their own transpose, so settling on the
    column side gives the key the rows would. With ``antichain`` the
    caller vouches that the nonzero masks are distinct and none lies
    inside another, so the first row step only drops zeros and sorts by
    popcount, as ``_maximal`` would, with no pairwise test. A list of two
    masks or fewer is settled before any step, with the zeros in it."""
    side = masks
    if len(side) > 2:
        if antichain:
            side = sorted(masks, key=int.bit_count, reverse=True)
            while side and not side[-1]:
                side.pop()
        else:
            side = _maximal(masks)
        holds_rows = True
        while len(side) > 3:
            flipped = _transpose(side)
            pruned = _maximal(flipped)
            if len(pruned) == len(flipped):
                if holds_rows:
                    return len(side), tuple(sorted(flipped))
                return len(flipped), tuple(sorted(side))
            side = pruned
            holds_rows = not holds_rows
        if len(side) == 3:
            a, b, c = side
            if a & b & c:
                return 1, (1,)
            return _THREE_ROWS[(a & b != 0) + (a & c != 0) + (b & c != 0)]
    a, b = (side[0], side[-1]) if side else (0, 0)
    if a and b and not a & b:
        return 2, (1, 2)
    return (1, (1,)) if a | b else (0, (0,))


class _ReductionMemo:
    """The one object the lcm-lattice computations run on (see the module
    docstring): the characteristics, checked once; the memo of dims
    computed over them, whose keys leave the characteristics out; and the
    last lattice walk taken (``_walk``). The memo starts out holding the
    five settled cores (``_SETTLED``), whose homology no field changes;
    every other core has four or more rows and is reduced on its first
    lookup."""

    def __init__(self, chars):
        self.chars = tuple(chars)
        if not self.chars:
            raise ValueError("need at least one characteristic")
        for c in self.chars:
            _check_char(c)
        self.memo: dict = {key: dict(dims) for key, dims in _SETTLED.items()}
        self.walk_key: tuple | None = None
        self.walk: list[tuple[int, int]] = []

    def _walk(self, code: MonomialCode, symmetries) -> list[tuple[int, int]]:
        """The orbit representatives of the proper elements of lcm(I), I
        the ideal of ``code``, under ``symmetries``, with their orbit sizes
        (``_orbit_representatives`` over the ``lcm_closure`` codes). The
        walk depends only on the generator codes and the field moves of the
        symmetries, so the last one taken is kept under that key, and a
        method run right after another on the same lattice reads it: gpw-I
        and koszul-I at one sink of ``verify.verify_graph``. Only the last
        is kept, and it is dropped before the next is taken, so a memo
        holds at most one walk at a time."""
        permutations = tuple(_validated_symmetries(code, symmetries))
        key = (code.generators, permutations)
        if key != self.walk_key:
            self.walk_key, self.walk = None, []
            # the first code is the bottom, 0
            self.walk = _orbit_representatives(lcm_closure(code)[1:], permutations)
            self.walk_key = key
        return self.walk

    def _lattice_betti(self, code: MonomialCode, symmetries, koszul: bool) -> tuple[int, ...]:
        """The one loop of the lcm-lattice methods: beta_i sums, over the
        proper elements m of lcm(I), the reduced homology in degree i-2 of
        the crosscut complex of (1, m), or with ``koszul`` of K^m(I). Each
        orbit representative of the walk (``_walk``) is cut to its core,
        a miss is reduced (``_reduce``), and the orbit size is tallied
        under the core's key; beta is read once per distinct key."""
        memo = self.memo
        tally: dict = defaultdict(int)
        for top, weight in self._walk(code, symmetries):
            if koszul:
                key = _strong_core(_koszul_masks(code, top))
            else:
                key = _strong_core(_crosscut_masks(code, top), code.tops(top) == top)
            if key not in memo:
                self._reduce(key, lambda: _label(code, top, koszul))
            tally[key] += weight
        betti: dict[int, int] = defaultdict(int)
        for key, weight in tally.items():
            for degree, dim in memo[key].items():
                betti[degree + 2] += weight * dim
        return _as_vector(betti)

    def _reduce(self, key: tuple, context: Callable[[], str]) -> dict[int, int]:
        """The one miss handler: the reduced homology dims, nonzero degrees
        only, of the core ``key``, from its side with fewer vertices, over
        every characteristic, required to agree, and stored. ``context()``
        labels a disagreement, which is raised and never stored."""
        rows, cols = key
        vertices = list(cols) if len(cols) < rows else _transpose(cols)
        by_char = homology_from_faces_multi(relative_faces(vertices), self.chars)
        by_char = {c: {d: v for d, v in got.items() if v} for c, got in by_char.items()}
        dims = by_char[self.chars[0]]
        if any(d != dims for d in by_char.values()):
            raise CharacteristicDisagreement(by_char, context())
        self.memo[key] = dims
        return dims

    def _reduced(
        self, masks: list[int], context: Callable[[], str], antichain: bool = False
    ) -> dict[int, int]:
        """Reduced homology dims of the complex on ``masks``, one at a time,
        for the audit and the tests: its core (``_strong_core``) is looked
        up, and a miss goes to ``_reduce``."""
        key = _strong_core(masks, antichain)
        dims = self.memo.get(key)
        return self._reduce(key, context) if dims is None else dims

    def _interval_dims(self, code: MonomialCode, top: int) -> dict[int, int]:
        """Reduced homology of the open interval (1, y) of lcm(I), I the
        ideal of ``code``, at the code of y, from the masks ``betti_gpw``
        reads: the audit's path. Where every nonzero field of y is one bit
        wide the atoms' masks, the bits of y outside each, are an antichain."""
        return self._reduced(
            _crosscut_masks(code, top), lambda: _label(code, top), code.tops(top) == top
        )

    def _koszul_dims(self, code: MonomialCode, top: int) -> dict[int, int]:
        """Reduced homology of K^m(I), I the ideal of ``code``, at the code
        of m, from the masks ``betti_koszul`` reads."""
        return self._reduced(_koszul_masks(code, top), lambda: _label(code, top, True))

    def betti_gpw(self, ideal: MonomialIdeal, symmetries=()) -> tuple[int, ...]:
        return self._lattice_betti(ideal.code, symmetries, False)

    def betti_koszul(self, ideal: MonomialIdeal, symmetries=()) -> tuple[int, ...]:
        return self._lattice_betti(ideal.code, symmetries, True)

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
                "homology": self._interval_dims(code, code.encode(x)),
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
    """Multigraded Betti numbers of the ideal from the upper Koszul
    complexes at the lcm-lattice elements, totaled coarsely and shifted to
    quotient-ring indexing (quotient beta_i = ideal beta_{i-1}, so homology
    in degree d counts toward beta_{d+2}). Its masks are built apart from
    ``betti_gpw``'s, as theirs transposed, and go through the same core and
    reduction, so it checks the mask builders, not the reduction (see the
    module docstring)."""
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
