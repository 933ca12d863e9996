"""Explicit finite lattices: non-negative integer codes under bit inclusion.

Both lattice families used here are such orders: the divisibility lattice of
monomial lcms (their ``MonomialCode`` codes) and the connected-partition
lattice of a multigraph (one bit per vertex pair sharing a block), whose
order dual complements each code inside the top's. Up-sets are int
bitsets over the element indices, built on first use; they serve covers,
ranks, Mobius values, joins and the lattice isomorphism.
Interval homology uses the crosscut model, which needs only the generators
dividing each element (see ``homology``), so ``betti_gpw`` and
``betti_koszul`` build no lattice at all: they run on the integer codes of
the lcm-lattice elements (``ideals.lcm_closure``).
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from operator import and_, or_
from typing import Callable, Sequence

from .graphs import Multigraph, bits, connected_partitions


class LatticeError(ValueError):
    """The given order data does not describe a lattice."""


class NotGradedError(LatticeError):
    """Maximal chains disagree in length where a graded lattice was required."""


class FiniteLattice:
    """Elements with one non-negative integer code each, under bit
    inclusion: x <= y when x's code is inside y's (``x & ~y == 0``).

    The order is reflexive and transitive by construction, so construction
    checks only, in O(N), distinct elements, distinct codes
    (antisymmetry), and that the AND and the OR of all codes are codes
    (unique bottom and top). ``leq`` reads the codes alone; the up-sets
    are built when anything else is first asked for. A join checks
    uniqueness, so a merely bounded poset is caught the first time a pair
    has no least upper bound. Ranks demand gradedness; Mobius values come
    from the defining recursion in exact integer arithmetic. Both walk the
    elements in popcount order: a code strictly inside another has fewer
    bits.
    """

    def __init__(self, elements: Sequence, codes: Sequence[int]):
        self._elements = list(elements)
        count = len(self._elements)
        if count == 0:
            raise LatticeError("a lattice needs at least one element")
        self._index = {x: i for i, x in enumerate(self._elements)}
        if len(self._index) != count:
            raise LatticeError("duplicate element")
        self._codes = list(codes)
        if len(self._codes) != count:
            raise LatticeError("need one code per element")
        if min(self._codes) < 0:
            raise LatticeError("codes must be non-negative")
        position = {c: i for i, c in enumerate(self._codes)}
        if len(position) != count:
            raise LatticeError("two elements share a code")
        bottom, top = reduce(and_, self._codes), reduce(or_, self._codes)
        if bottom not in position or top not in position:
            raise LatticeError("lattice must have a unique bottom and top")
        self._bottom, self._top = position[bottom], position[top]

    @cached_property
    def _up(self) -> list[int]:
        """One bitset per element: bit j of entry i is set when code i lies
        inside code j. It is the AND, over the bits of code i, of the
        bitsets of the elements holding that bit."""
        holders = [0] * self._codes[self._top].bit_length()
        for i, c in enumerate(self._codes):
            for b in bits(c):
                holders[b] |= 1 << i
        ups = []
        for c in self._codes:
            up = (1 << len(self._codes)) - 1
            for b in bits(c):
                up &= holders[b]
            ups.append(up)
        return ups

    @cached_property
    def _covers(self) -> list[int]:
        # each strict up-set minus its members' strict up-sets; a member
        # already inside that union brings nothing new, so it is skipped
        strict = [up & ~(1 << i) for i, up in enumerate(self._up)]
        covers = []
        for above in strict:
            beyond, rest = 0, above
            while rest:
                low = rest & -rest
                beyond |= strict[low.bit_length() - 1]
                rest = (rest ^ low) & ~beyond
            covers.append(above & ~beyond)
        return covers

    @cached_property
    def _popcount_order(self) -> list[int]:
        return sorted(range(len(self._codes)), key=lambda i: self._codes[i].bit_count())

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteLattice)
            and self._elements == other._elements
            and self._up == other._up
        )

    @property
    def elements(self) -> tuple:
        return tuple(self._elements)

    @property
    def bottom(self):
        return self._elements[self._bottom]

    @property
    def top(self):
        return self._elements[self._top]

    def index_of(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise LatticeError(f"{x!r} is not a lattice element") from None

    def leq(self, x, y) -> bool:
        return not self._codes[self.index_of(x)] & ~self._codes[self.index_of(y)]

    def upper_covers(self, x) -> list:
        return [self._elements[j] for j in bits(self._covers[self.index_of(x)])]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with element j covering element i."""
        return [(i, j) for i, covers in enumerate(self._covers) for j in bits(covers)]

    def atoms(self) -> list:
        return self.upper_covers(self.bottom)

    def join(self, x, y):
        up = self._up
        bounds = up[self.index_of(x)] & up[self.index_of(y)]
        least = [k for k in bits(bounds) if not bounds & ~up[k]]
        if len(least) != 1:
            raise LatticeError(f"no unique join for {x!r} and {y!r}")
        return self._elements[least[0]]

    @cached_property
    def _ranks(self) -> list[int]:
        rank = [0] * len(self._elements)
        for i in self._popcount_order:
            for j in bits(self._covers[i]):
                rank[j] = max(rank[j], rank[i] + 1)
        if any(rank[j] != rank[i] + 1 for i, j in self.cover_pairs()):
            raise NotGradedError("lattice is not graded")
        return rank

    def rank(self, x) -> int:
        """Length of a maximal chain from the bottom to x (graded lattices)."""
        return self._ranks[self.index_of(x)]

    def rank_profile(self) -> tuple[int, ...]:
        """Element counts per rank, bottom upward."""
        return tuple(self._ranks.count(r) for r in range(max(self._ranks) + 1))

    @cached_property
    def _mobius(self) -> list[int]:
        # below[k] sums mu over the strict down-set of k, complete by the
        # time k comes up in popcount order
        mu = [0] * len(self._elements)
        below = [0] * len(self._elements)
        for k in self._popcount_order:
            mu[k] = 1 if k == self._bottom else -below[k]
            for j in bits(self._up[k] & ~(1 << k)):
                below[j] += mu[k]
        return mu

    def mobius(self) -> dict:
        """mu(bottom, x) for every element x, via the defining recursion."""
        return dict(zip(self._elements, self._mobius))

    def dual(self) -> "FiniteLattice":
        """Same elements, reversed order: each code complemented inside the
        top's."""
        top = self._codes[self._top]
        return FiniteLattice(self._elements, [top ^ c for c in self._codes])


def connected_partition_lattice(G: Multigraph) -> FiniteLattice:
    """Lattice of connected partitions under refinement: finer partitions lie
    lower, the all-singletons partition is the bottom, the one-block
    partition the top. A partition's code sets bit u * n + v for each vertex
    pair u < v sharing a block: p refines q exactly when every pair together
    in p is together in q."""
    partitions = connected_partitions(G)
    codes = [
        sum(1 << (u * G.n + v) for block in p.blocks for u, v in combinations(bits(block), 2))
        for p in partitions
    ]
    return FiniteLattice(partitions, codes)


def dual_connected_partition_lattice(G: Multigraph) -> FiniteLattice:
    """Order dual of the connected-partition lattice; its atoms are exactly
    the connected cuts."""
    return connected_partition_lattice(G).dual()


def lattice_isomorphism_failure(L1: FiniteLattice, L2: FiniteLattice, mapping) -> str | None:
    """None when the mapping is an order isomorphism L1 -> L2; otherwise the
    reason: 'not-bijective' or 'order-violation'. The mapping dict must be
    total on L1 and land inside L2."""
    try:
        images = [mapping[x] for x in L1.elements]
    except KeyError as exc:
        raise ValueError(f"mapping is not total: missing {exc.args[0]!r}") from None
    for y in images:
        if y not in L2:
            raise ValueError(f"image {y!r} is not an element of the codomain lattice")
    if len(set(images)) != len(images) or len(images) != len(L2):
        return "not-bijective"
    perm = [L2.index_of(y) for y in images]
    for i, up in enumerate(L1._up):
        if sum(1 << perm[j] for j in bits(up)) != L2._up[perm[i]]:
            return "order-violation"
    return None


def lattice_to_json(L: FiniteLattice) -> dict:
    """Elements, covers, Mobius values, and ranks (when graded) as one dict."""
    mu = L.mobius()
    doc = {
        "elements": [str(x) for x in L.elements],
        "covers": sorted([i, j] for i, j in L.cover_pairs()),
        "mobius": [mu[x] for x in L.elements],
    }
    try:
        doc["ranks"] = [L.rank(x) for x in L.elements]
    except NotGradedError:
        doc["ranks"] = None
    return doc


def lattice_to_dot(L: FiniteLattice, annotate: Callable | None = None) -> str:
    """Hasse diagram in DOT form, bottom at the bottom, Mobius values on
    every node, extra per-node lines via ``annotate``."""
    mu = L.mobius()
    lines = ["digraph lattice {", "  rankdir=BT;", '  node [shape=box];']
    for i, x in enumerate(L.elements):
        text = f"{x}\\nmu={mu[x]}"
        if annotate is not None:
            extra = annotate(x)
            if extra:
                text += "\\n" + "\\n".join(extra)
        lines.append(f'  n{i} [label="{text}"];')
    for i, j in sorted(L.cover_pairs()):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
