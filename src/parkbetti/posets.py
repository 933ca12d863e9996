"""Explicit finite lattices.

One engine covers both lattice families used here: the connected-partition
lattice of a multigraph (and its order dual) and the divisibility lattice of
monomial lcms. It stores the full order matrix, derives covers, ranks, and
Mobius values, and tests candidate order isomorphisms. It builds no order
complexes: interval homology, in the Betti computation and in the audit
alike, uses the crosscut model, which needs only the generators dividing
each element (see ``homology``). The order serves the Mobius values, the
ranks and the lattice isomorphism.

The two order products (the transitivity check and the covers) run as
float32 BLAS matrix products compared with 0, which is exact at every size
(see ``_two_step``). The transitivity check runs on construction; the
covers are derived on first use, so a lattice whose elements are all that
is read never pays for them.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .graphs import (
    ConnectedPartition,
    Multigraph,
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
    """A finite lattice given by an explicit element list and order relation.

    The order is validated on construction (distinct elements; reflexive,
    antisymmetric, transitive; unique bottom and top). Transitivity is
    checked with one float32 product of the order matrix with itself (exact,
    see ``_two_step``). The covers take a second such product and are
    derived the first time covers, atoms or ranks are asked for. Joins and
    meets are computed on demand with a uniqueness check, so a merely
    bounded poset is caught the first time a pair has no least upper bound.
    Ranks are computed lazily from maximal chain lengths and demand
    gradedness; Mobius values come from the defining recursion in exact
    integer arithmetic.
    """

    def __init__(self, elements: Sequence, leq):
        self._elements = list(elements)
        count = len(self._elements)
        if count == 0:
            raise LatticeError("a lattice needs at least one element")
        self._index = {}
        for i, x in enumerate(self._elements):
            if x in self._index:
                raise LatticeError(f"duplicate element {x!r}")
            self._index[x] = i
        if callable(leq):
            rel = np.zeros((count, count), dtype=bool)
            for i, x in enumerate(self._elements):
                for j, y in enumerate(self._elements):
                    rel[i, j] = bool(leq(x, y))
        else:
            rel = np.array(leq, dtype=bool)
            if rel.shape != (count, count):
                raise LatticeError("order matrix shape mismatch")
        if not rel.diagonal().all():
            raise LatticeError("order is not reflexive")
        if np.any(rel & rel.T & ~np.eye(count, dtype=bool)):
            raise LatticeError("order is not antisymmetric")
        if np.any(_two_step(rel) & ~rel):
            raise LatticeError("order is not transitive")
        bottoms = np.flatnonzero(rel.all(axis=1))
        tops = np.flatnonzero(rel.all(axis=0))
        if len(bottoms) != 1 or len(tops) != 1:
            raise LatticeError("lattice must have a unique bottom and top")
        self._leq = rel
        self._bottom = int(bottoms[0])
        self._top = int(tops[0])
        self._strict = rel & ~np.eye(count, dtype=bool)
        self._ranks = None
        self._mobius = None

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
        # strictly-below counts grow along the order, so sorting by them is
        # a valid topological order
        return np.argsort(self._strict.sum(axis=0), kind="stable")

    def _rank_vector(self) -> np.ndarray:
        if self._ranks is None:
            count = len(self._elements)
            rank = np.zeros(count, dtype=np.int64)
            into = [np.flatnonzero(self._covers[:, k]) for k in range(count)]
            for k in self._topological_order():
                if len(into[k]):
                    rank[k] = rank[into[k]].max() + 1
            ii, jj = np.nonzero(self._covers)
            if np.any(rank[jj] != rank[ii] + 1):
                raise NotGradedError("lattice is not graded")
            self._ranks = rank
        return self._ranks

    def rank(self, x) -> int:
        """Length of a maximal chain from the bottom to x (graded lattices)."""
        return int(self._rank_vector()[self.index_of(x)])

    def rank_profile(self) -> tuple[int, ...]:
        """Element counts per rank, bottom upward."""
        ranks = self._rank_vector()
        return tuple(int((ranks == r).sum()) for r in range(int(ranks.max()) + 1))

    def mobius(self) -> dict:
        """mu(bottom, x) for every element x, via the defining recursion."""
        if self._mobius is None:
            mu = [0] * len(self._elements)
            mu[self._bottom] = 1
            for k in self._topological_order():
                k = int(k)
                if k == self._bottom:
                    continue
                below = np.flatnonzero(self._strict[:, k])
                mu[k] = -sum(mu[int(b)] for b in below)
            self._mobius = mu
        return {x: self._mobius[i] for i, x in enumerate(self._elements)}

    def dual(self) -> "FiniteLattice":
        """Same elements, reversed order."""
        return FiniteLattice(self._elements, self._leq.T)


def connected_partition_lattice(G: Multigraph) -> FiniteLattice:
    """Lattice of connected partitions under refinement: finer partitions lie
    lower, the all-singletons partition is the bottom, the one-block
    partition the top."""
    return FiniteLattice(connected_partitions(G), lambda p, q: p.refines(q))


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


def lattice_isomorphism(L1: FiniteLattice, L2: FiniteLattice, mapping) -> bool:
    """True iff the candidate map is a bijection preserving order both ways."""
    return lattice_isomorphism_failure(L1, L2, mapping) is None


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
