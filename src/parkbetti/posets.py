"""Explicit finite lattices: integer vectors under the componentwise order.

Both lattice families used here are such orders: the divisibility lattice of
monomial lcms (exponent vectors) and the connected-partition lattice of a
multigraph (0/1 vectors over vertex pairs), whose order dual negates them.
The N x N order matrix is built on first use; it serves covers, ranks,
Mobius values, joins, meets and the lattice isomorphism. Interval homology
uses the crosscut model, which needs only the generators dividing each
element (see ``homology``), so ``betti_gpw`` and ``betti_koszul`` build no
lattice at all: they run on the integer codes of the lcm-lattice elements
(``ideals.lcm_closure``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .graphs import (
    ConnectedPartition,
    Multigraph,
    bits,
    connected_components,
    connected_partitions,
)


class LatticeError(ValueError):
    """The given order data does not describe a lattice."""


class NotGradedError(LatticeError):
    """Maximal chains disagree in length where a graded lattice was required."""


def _two_step(rel: np.ndarray) -> np.ndarray:
    """Boolean square of a relation: cell (i, j) is True when rel[i, k] and
    rel[k, j] hold for some k.

    It runs as a float32 BLAS product followed by ``> 0``; numpy has no BLAS
    path for bool operands. The result is exact at any size: the entries are
    0 and 1, so each cell is a sum of nonnegative terms, and rounding can
    make such a sum inexact but never turns a positive sum into 0. An
    integer product would wrap instead (uint8 at 256 paths). The float32
    operand and the product take 4 * N^2 bytes each for N elements."""
    square = rel.astype(np.float32)
    return (square @ square) > 0


class FiniteLattice:
    """Elements with one integer vector each, under the componentwise order:
    x <= y when x's vector is <= y's in every coordinate.

    The order is reflexive and transitive by construction, so construction
    checks only, in O(N * k), distinct elements, distinct vectors
    (antisymmetry), and that the componentwise minimum and maximum are
    vectors (unique bottom and top). The order matrix is built when the
    order is first read, the covers (one exact float32 product, see
    ``_two_step``) when covers, atoms or ranks are first asked for. Joins and
    meets check uniqueness, so a merely bounded poset is caught the first
    time a pair has no least upper bound. Ranks demand gradedness; Mobius
    values come from the defining recursion in exact integer arithmetic.
    """

    def __init__(self, elements: Sequence, vectors):
        self._elements = list(elements)
        count = len(self._elements)
        if count == 0:
            raise LatticeError("a lattice needs at least one element")
        self._index = {x: i for i, x in enumerate(self._elements)}
        if len(self._index) != count:
            raise LatticeError("duplicate element")
        vectors = np.asarray(vectors, dtype=np.int64)
        if vectors.ndim != 2 or len(vectors) != count:
            raise LatticeError("need one vector per element")
        if len(set(map(tuple, vectors.tolist()))) != count:
            raise LatticeError("two elements share a vector")
        # the vectors are distinct, so at most one equals each extreme
        bottom, top = ((vectors == end).all(axis=1) for end in (vectors.min(axis=0), vectors.max(axis=0)))
        if not (bottom.any() and top.any()):
            raise LatticeError("lattice must have a unique bottom and top")
        self._vectors = vectors
        self._bottom, self._top = int(bottom.argmax()), int(top.argmax())

    @cached_property
    def _leq(self) -> np.ndarray:
        # one N x N compare per coordinate: an N x N x k array would not fit
        # in memory for the larger 6-vertex lattices
        count = len(self._elements)
        leq = np.ones((count, count), dtype=bool)
        for column in self._vectors.T:
            leq &= column[:, None] <= column[None, :]
        return leq

    @cached_property
    def _strict(self) -> np.ndarray:
        return self._leq & ~np.eye(len(self._elements), dtype=bool)

    @cached_property
    def _covers(self) -> np.ndarray:
        return self._strict & ~_two_step(self._strict)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteLattice)
            and self._elements == other._elements
            and np.array_equal(self._leq, other._leq)
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
        return bool(self._leq[self.index_of(x), self.index_of(y)])

    def upper_covers(self, x) -> list:
        i = self.index_of(x)
        return [self._elements[j] for j in np.flatnonzero(self._covers[i])]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with element j covering element i."""
        ii, jj = np.nonzero(self._covers)
        return list(zip(ii.tolist(), jj.tolist()))

    def atoms(self) -> list:
        return self.upper_covers(self.bottom)

    def join(self, x, y):
        i, j = self.index_of(x), self.index_of(y)
        ub = self._leq[i] & self._leq[j]
        least = [int(k) for k in np.flatnonzero(ub) if self._leq[k][ub].all()]
        if len(least) != 1:
            raise LatticeError(f"no unique join for {x!r} and {y!r}")
        return self._elements[least[0]]

    def meet(self, x, y):
        i, j = self.index_of(x), self.index_of(y)
        lb = self._leq[:, i] & self._leq[:, j]
        greatest = [int(k) for k in np.flatnonzero(lb) if self._leq[lb, k].all()]
        if len(greatest) != 1:
            raise LatticeError(f"no unique meet for {x!r} and {y!r}")
        return self._elements[greatest[0]]

    def _topological_order(self) -> np.ndarray:
        # a strictly larger vector has a strictly larger coordinate sum
        return np.argsort(self._vectors.sum(axis=1), kind="stable")

    @cached_property
    def _ranks(self) -> np.ndarray:
        rank = np.zeros(len(self._elements), dtype=np.int64)
        for k in self._topological_order():
            rank[k] = rank[self._covers[:, k]].max(initial=-1) + 1
        ii, jj = np.nonzero(self._covers)
        if np.any(rank[jj] != rank[ii] + 1):
            raise NotGradedError("lattice is not graded")
        return rank

    def rank(self, x) -> int:
        """Length of a maximal chain from the bottom to x (graded lattices)."""
        return int(self._ranks[self.index_of(x)])

    def rank_profile(self) -> tuple[int, ...]:
        """Element counts per rank, bottom upward."""
        return tuple(np.bincount(self._ranks).tolist())

    @cached_property
    def _mobius(self) -> list[int]:
        mu = [0] * len(self._elements)
        mu[self._bottom] = 1
        for k in self._topological_order():
            k = int(k)
            if k != self._bottom:
                mu[k] = -sum(mu[int(b)] for b in np.flatnonzero(self._strict[:, k]))
        return mu

    def mobius(self) -> dict:
        """mu(bottom, x) for every element x, via the defining recursion."""
        return dict(zip(self._elements, self._mobius))

    def dual(self) -> "FiniteLattice":
        """Same elements, reversed order: the vectors negated."""
        return FiniteLattice(self._elements, -self._vectors)


def connected_partition_lattice(G: Multigraph) -> FiniteLattice:
    """Lattice of connected partitions under refinement: finer partitions lie
    lower, the all-singletons partition is the bottom, the one-block
    partition the top. A partition's vector reads 1 at each vertex pair
    u < v sharing a block: p refines q exactly when every pair together in p
    is together in q."""
    partitions = connected_partitions(G)
    labels = np.zeros((len(partitions), G.n), dtype=np.int64)
    for i, p in enumerate(partitions):
        for b, block in enumerate(p.blocks):
            labels[i, list(bits(block))] = b
    u, v = np.triu_indices(G.n, k=1)
    return FiniteLattice(partitions, labels[:, u] == labels[:, v])


def dual_connected_partition_lattice(G: Multigraph) -> FiniteLattice:
    """Order dual of the connected-partition lattice; its atoms are exactly
    the connected cuts."""
    return connected_partition_lattice(G).dual()


def connected_common_refinement(
    G: Multigraph, p: ConnectedPartition, q: ConnectedPartition
) -> ConnectedPartition:
    """Join in the dual lattice: intersect blocks pairwise, then split each
    intersection into connected components."""
    blocks: list[int] = []
    for b1 in p.blocks:
        for b2 in q.blocks:
            inter = b1 & b2
            if inter:
                blocks.extend(connected_components(G, inter))
    return ConnectedPartition(tuple(blocks))


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
    perm = np.array([L2.index_of(y) for y in images])
    if np.array_equal(L2._leq[np.ix_(perm, perm)], L1._leq):
        return None
    return "order-violation"


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
