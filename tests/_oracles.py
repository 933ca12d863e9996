"""Self-contained brute-force oracles for the test suite.

Everything here recomputes from first principles, reading only the plain
fields of a Multigraph (n, edges, sink). No package algorithm is reused, so
agreement between an oracle and the implementation is meaningful evidence.
The matrix oracle likewise works on plain lists of integers, the boundary
and relative-to-star oracles on plain face lists, the order-complex oracle
on a lattice's elements and pairwise order test only, the facet
expansion on plain vertex collections, the crosscut, lcm-closure and
Koszul oracles on monomials given as plain {variable: exponent} dicts, the
maximal-mask oracle on plain ints, the group oracle on image tuples, and
the permutation oracle on a monomial's variable names. The canonical-form
oracle is the first definition of the multigraph key, kept to pin the
faster one to the same keys, on which corpus order depends. The
automorphism oracle is likewise the first sink-fixing search, trying every
permutation, kept to pin the backtracking search to the same list in the
same order, on which the orbits of the lcm-lattice methods depend. The
cut oracle is likewise the first cut enumerator, testing each sink-free
mask on its own, kept to pin the one subset pass to the same cuts in the
same order, on which generator order depends. The gap-based Koszul mask
builder and the strong-core alternation that settles three rows or fewer
only after its first row step are likewise the first versions of
``homology._koszul_masks`` and ``homology._strong_core``, on plain ints,
kept to pin the holder-bitset masks to the same facets and the early
settling to the same memo keys. The
refinement and common-refinement oracles read partitions as plain block
masks; the latter is the dual connected-partition lattice's join written
as the paper's procedure, kept to pin ``FiniteLattice.join`` to it.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from parkbetti import ConnectedPartition, Cut, Monomial, Multigraph


def pairs_of(G: Multigraph) -> list[tuple[int, int]]:
    return [(e.tail, e.head) for e in G.edges]


def subset_connected(n: int, pairs, subset: frozenset) -> bool:
    if not subset:
        return False
    todo = [next(iter(subset))]
    seen = set(todo)
    while todo:
        v = todo.pop()
        for a, b in pairs:
            if a == v and b in subset and b not in seen:
                seen.add(b)
                todo.append(b)
            elif b == v and a in subset and a not in seen:
                seen.add(a)
                todo.append(a)
    return seen == set(subset)


def components_oracle(G: Multigraph, mask: int) -> tuple[int, ...]:
    """Component masks of the subgraph induced on ``mask``, by breadth-first
    search over the edge list, ascending by lowest vertex."""
    pairs = pairs_of(G)
    left = [v for v in range(G.n) if (mask >> v) & 1]
    out = []
    while left:
        seen = {left[0]}
        frontier = [left[0]]
        while frontier:
            nxt = []
            for v in frontier:
                for a, b in pairs:
                    w = b if a == v else a if b == v else None
                    if w is not None and (mask >> w) & 1 and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        out.append(sum(1 << v for v in seen))
        left = [v for v in left if v not in seen]
    return tuple(out)


def partition_refines(p: ConnectedPartition, q: ConnectedPartition) -> bool:
    """Every block of p sits inside a single block of q."""
    return all(any(not b & ~c for c in q.blocks) for b in p.blocks)


def connected_common_refinement(G: Multigraph, p: ConnectedPartition, q: ConnectedPartition) -> ConnectedPartition:
    """Join in the dual connected-partition lattice: intersect the blocks
    pairwise, then split each intersection into connected components."""
    blocks: list[int] = []
    for b1 in p.blocks:
        for b2 in q.blocks:
            if b1 & b2:
                blocks.extend(components_oracle(G, b1 & b2))
    return ConnectedPartition(tuple(blocks))


def all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in all_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def connected_partitions_oracle(G: Multigraph) -> list[list[frozenset]]:
    pairs = pairs_of(G)
    out = []
    for part in all_partitions(range(G.n)):
        blocks = [frozenset(b) for b in part]
        if all(subset_connected(G.n, pairs, b) for b in blocks):
            out.append(sorted(blocks, key=sorted))
    return out


def connected_cuts_oracle(G: Multigraph) -> list[Cut]:
    """All connected cuts, ordered by the U bitmask as an integer: every
    sink-free mask U is tested on its own, U and its complement each by a
    search over the edge list (``components_oracle``)."""
    full = (1 << G.n) - 1
    candidates = full & ~(1 << G.sink)
    subs = []
    sub = candidates
    while sub:
        subs.append(sub)
        sub = (sub - 1) & candidates
    return [
        Cut(u, full & ~u)
        for u in sorted(subs)
        if len(components_oracle(G, u)) == 1 and len(components_oracle(G, full & ~u)) == 1
    ]


def tree_count_oracle(G: Multigraph) -> int:
    pairs = pairs_of(G)
    if G.n == 1:
        return 1
    count = 0
    for chosen in combinations(range(len(pairs)), G.n - 1):
        sub = [pairs[i] for i in chosen]
        if subset_connected(G.n, sub, frozenset(range(G.n))):
            count += 1
    return count


def out_degree(G: Multigraph, u_set, v) -> int:
    if v not in u_set:
        return 0
    return sum(
        1
        for a, b in pairs_of(G)
        if (a == v and b not in u_set) or (b == v and a not in u_set)
    )


def is_pf_oracle(G: Multigraph, config) -> bool:
    verts = [v for v in range(G.n) if v != G.sink]
    chips = dict(zip(verts, config))
    for r in range(1, len(verts) + 1):
        for u in combinations(verts, r):
            u_set = frozenset(u)
            if not any(chips[v] < out_degree(G, u_set, v) for v in u):
                return False
    return True


def pf_set_oracle(G: Multigraph) -> set[tuple[int, ...]]:
    verts = [v for v in range(G.n) if v != G.sink]
    degs = []
    for v in verts:
        degs.append(sum(1 for a, b in pairs_of(G) if v in (a, b)))
    found = set()

    def scan(prefix):
        if len(prefix) == len(verts):
            if is_pf_oracle(G, prefix):
                found.add(tuple(prefix))
            return
        for c in range(degs[len(prefix)]):
            scan(prefix + [c])

    scan([])
    return found


def mpf_set_oracle(G: Multigraph) -> set[tuple[int, ...]]:
    """The parking functions maximal under coordinatewise dominance."""
    pfs = pf_set_oracle(G)
    return {
        c for c in pfs
        if not any(d != c and all(x <= y for x, y in zip(c, d)) for d in pfs)
    }


def mpf_oracle(G: Multigraph) -> int:
    return len(mpf_set_oracle(G))


def betti_wilmes_oracle(G: Multigraph) -> tuple[int, ...]:
    from parkbetti import Edge

    totals: dict[int, int] = {}
    for blocks in connected_partitions_oracle(G):
        k = len(blocks)
        if k < 2:
            continue
        where = {v: i for i, b in enumerate(blocks) for v in b}
        edges = tuple(
            Edge(f"q{j}", where[a], where[b])
            for j, (a, b) in enumerate(pairs_of(G))
            if where[a] != where[b]
        )
        contracted = Multigraph(k, edges, where[G.sink])
        totals[k - 1] = totals.get(k - 1, 0) + mpf_oracle(contracted)
    top = max(totals)
    return tuple(totals.get(i, 0) for i in range(1, top + 1))


def rank_oracle(rows: list[list[int]], char: int) -> int:
    """Rank by textbook Gauss-Jordan elimination: over GF(char) for a prime
    char, over the rationals (as Fractions) for char 0."""
    if char:
        a = [[x % char for x in row] for row in rows]

        def inverse(x):
            return pow(x, char - 2, char)

        def reduce(x):
            return x % char
    else:
        a = [[Fraction(x) for x in row] for row in rows]

        def inverse(x):
            return 1 / x

        def reduce(x):
            return x
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        scale = inverse(a[rank][col])
        a[rank] = [reduce(x * scale) for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [reduce(x - f * y) for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def boundary_matrices(faces: dict[int, list[tuple[int, ...]]]) -> dict[int, np.ndarray]:
    """Integer boundary matrices of the augmented chain complex spanned by a
    face family, one per dimension d from 0 to the top one; the d = 0
    matrix is the augmentation row. Boundary faces outside the family are
    dropped, so a relative family (a complex minus a subcomplex) gives the
    boundary of its quotient complex, and a dimension without faces gives a
    matrix with no rows or no columns."""
    if not faces:
        return {}
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in faces.items()}
    mats = {}
    for d in range(0, max(faces) + 1):
        rows, cells = index.get(d - 1, {}), faces.get(d, [])
        mat = np.zeros((len(rows), len(cells)), dtype=np.int64)
        for j, f in enumerate(cells):
            for k in range(len(f)):
                i = rows.get(f[:k] + f[k + 1:])
                if i is not None:
                    mat[i, j] = -1 if k % 2 else 1
        mats[d] = mat
    return mats


def faces_by_dim(facets) -> dict[int, list[tuple[int, ...]]]:
    """Every face of the complex generated by ``facets`` (vertex
    collections), as sorted index tuples grouped by dimension, each
    dimension in lexicographic order; the empty face sits at -1. No facets
    give the void complex, {}; the facet () alone gives the empty complex,
    {-1: [()]}. Facets need not be maximal."""
    grouped: dict[int, set] = {}
    for f in {tuple(sorted(set(f))) for f in facets}:
        for r in range(len(f) + 1):
            grouped.setdefault(r - 1, set()).update(combinations(f, r))
    return {d: sorted(fs) for d, fs in sorted(grouped.items())}


def interval_chain_faces(lattice, y) -> dict[int, list[tuple[int, ...]]]:
    """Order complex of the open interval (bottom, y): every chain, keyed by
    dimension, each dimension in lexicographic order. Chain entries are
    positions in the interior sorted by the number of interior elements
    below, a topological order, so the family is deterministic and downward
    closed. Reads only ``elements``, ``bottom`` and ``leq``."""
    if y == lattice.bottom:
        raise ValueError("the open interval below the bottom is undefined")
    interior = [x for x in lattice.elements if x not in (lattice.bottom, y) and lattice.leq(x, y)]
    interior.sort(key=lambda b: sum(lattice.leq(a, b) for a in interior))
    succ = [
        [k for k in range(i + 1, len(interior)) if lattice.leq(interior[i], interior[k])]
        for i in range(len(interior))
    ]
    faces = {-1: [()]}
    level = [(i,) for i in range(len(interior))]
    while level:
        faces[len(level[0]) - 1] = level
        level = [c + (k,) for c in level for k in succ[c[-1]]]
    return faces


def _dict_lcm(a: dict, b: dict) -> dict:
    return {v: max(a.get(v, 0), b.get(v, 0)) for v in a.keys() | b.keys()}


def lcm_closure_oracle(generators: list[dict]) -> set[frozenset]:
    """Lcms of all generator subsets, the empty subset's 1 included, as
    frozensets of (variable, exponent) pairs. Each subset of the first k
    generators either leaves out generator k or takes it, so the lcms of
    the subsets of the first k are those of the first k - 1, each taken
    once as is and once joined with generator k."""
    found = {frozenset()}
    for g in generators:
        found |= {frozenset(_dict_lcm(dict(m), g).items()) for m in found}
    return found


def lcm_closure_subsets_oracle(variables, generators: list[dict]) -> list[tuple[int, ...]]:
    """Exponent vectors of the lcms of every nonempty generator subset,
    each subset joined on its own, plus the vector of 1, distinct and
    sorted by (degree, exponent vector)."""
    found = {tuple(0 for _ in variables)}
    for size in range(1, len(generators) + 1):
        for subset in combinations(generators, size):
            found.add(tuple(max(g.get(v, 0) for g in subset) for v in variables))
    return sorted(found, key=lambda vec: (sum(vec), vec))


def strong_core_oracle(masks: list[int]) -> tuple[list[int], list[int]]:
    """The strong-collapse core of the complex in which vertex i lies in
    facet t exactly when bit t of masks[i] is set, found on explicit sets by
    deleting one dominated vertex (its facets all hold another vertex) or
    one facet inside another at a time. Returns the vertex degrees and the
    facet sizes of the core, each sorted: the core is unique up to
    isomorphism (Barmak-Minian), so these do not depend on the order of the
    deletions. With no vertex the complex is {()}, whose one facet is
    empty."""
    bits = {t for m in masks for t in range(m.bit_length()) if m >> t & 1}
    facets = {frozenset(i for i, m in enumerate(masks) if m >> t & 1) for t in bits} or {frozenset()}
    while True:
        vertices = sorted(set().union(*facets))
        star = {v: {f for f in facets if v in f} for v in vertices}
        dominated = [v for v in vertices if any(w != v and star[v] <= star[w] for w in vertices)]
        if dominated:
            facets = {f - {dominated[0]} for f in facets}
            continue
        inside = [f for f in facets if any(f < g for g in facets)]
        if inside:
            facets.discard(inside[0])
            continue
        return sorted(len(star[v]) for v in vertices), sorted(len(f) for f in facets)


def koszul_masks_oracle(generators: list[int], fields: list[int], top: int) -> list[int]:
    """The facet masks of the upper Koszul complex at the monomial coded
    ``top``, from generator codes and the full bit field of each variable
    in variable order (a thermometer code: exponent e sets the low e bits
    of its field): one mask for each variable v whose field meets top, bit
    i set when the i-th generator g dividing top (``g & ~top == 0``) has
    g_v < top_v, that is when the gap top & ~g has a bit in v's field."""
    gaps = [top & ~g for g in generators if not g & ~top]
    return [
        sum(1 << i for i, gap in enumerate(gaps) if gap & field)
        for field in fields
        if top & field
    ]


def strong_core_alternation_oracle(masks: list[int]) -> tuple[int, tuple[int, ...]]:
    """The memo key of the strong-collapse core of the complex on
    ``masks``: the row count and the sorted column masks over the rows.
    The rows are pruned to the distinct nonzero ones inside no other, in
    (descending popcount, first appearance) order; three or fewer are
    settled at once by which of them share a column. Otherwise the sides
    are transposed (one mask per column, in order of first appearance)
    and pruned in turn until a prune drops nothing, and only then read."""

    def maximal(side):
        ordered = sorted(dict.fromkeys(m for m in side if m), key=int.bit_count, reverse=True)
        kept = []
        for m in ordered:
            if all(m & ~k for k in kept):
                kept.append(m)
        return kept

    def transpose(side):
        flipped = {}
        for i, m in enumerate(side):
            for t in range(m.bit_length()):
                if m >> t & 1:
                    flipped[t] = flipped.get(t, 0) | 1 << i
        return list(flipped.values())

    side = maximal(masks)
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
        shared = (a & b != 0) + (a & c != 0) + (b & c != 0)
        return ((3, (1, 2, 4)), (2, (1, 2)), (1, (1,)), (3, (3, 5, 6)))[shared]
    flipped = transpose(side)
    holds_rows = True
    while True:
        pruned = maximal(flipped)
        if len(pruned) == len(flipped):
            break
        side, flipped = pruned, transpose(pruned)
        holds_rows = not holds_rows
    if holds_rows:
        return len(side), tuple(sorted(flipped))
    return len(flipped), tuple(sorted(side))


def generated_group(generators, degree: int) -> set[tuple[int, ...]]:
    """The group generated by permutations of range(degree), given as image
    tuples: every product of generators, the empty product (the identity)
    included, found by composing on the left until nothing new appears."""
    group = {tuple(range(degree))}
    while True:
        grown = group | {tuple(g[x[i]] for i in range(degree)) for g in generators for x in group}
        if grown == group:
            return group
        group = grown


def crosscut_faces_oracle(atoms: list[dict], top: dict) -> dict[int, list[tuple[int, ...]]]:
    """Crosscut faces of [1, top] by prefix extension on exponent dicts:
    atom index subsets whose lcm differs from top, keyed by dimension, each
    dimension in lexicographic order. Exponent dicts carry no zero entries,
    so equal dicts mean equal monomials."""
    faces = {-1: [()]}
    level = [((), {})]
    for size in range(1, len(atoms) + 1):
        grown = []
        for face, joined in level:
            for j in range(face[-1] + 1 if face else 0, len(atoms)):
                bigger = _dict_lcm(joined, atoms[j])
                if bigger != top:
                    grown.append((face + (j,), bigger))
        if not grown:
            break
        faces[size - 1] = [f for f, _ in grown]
        level = grown
    return faces


def koszul_faces_oracle(generators: list[dict], degree: dict) -> dict[int, list[tuple[int, ...]]]:
    """Faces of the upper Koszul complex at ``degree`` by its definition: the
    subsets F of the support of degree whose quotient degree / x^F some
    generator divides, as index tuples into the support in the key order of
    ``degree``, keyed by dimension, each dimension in lexicographic order.
    With no such subset (the void complex) it returns {}.

    The faces are closed downward, since degree / x^F' divides degree / x^F
    when F is inside F'. So a nonempty face is a face one smaller with one
    index appended, and only the faces of one size are grown to the next,
    each grown subset still tested against every generator by the
    definition."""
    support = [v for v, e in degree.items() if e > 0]

    def is_face(subset):
        quotient = dict(degree)
        for k in subset:
            quotient[support[k]] -= 1
        return any(all(quotient.get(v, 0) >= e for v, e in g.items()) for g in generators)

    faces: dict[int, list[tuple[int, ...]]] = {}
    level = [()] if is_face(()) else []
    while level:
        faces[len(level[0]) - 1] = level
        level = [
            f + (k,)
            for f in level
            for k in range(f[-1] + 1 if f else 0, len(support))
            if is_face(f + (k,))
        ]
    return faces


def koszul_facets_oracle(generators: list[dict], degree: dict) -> set[tuple[int, ...]]:
    """Generator facets of the upper Koszul complex at ``degree``: for each
    generator g dividing degree, the support indices (in the key order of
    ``degree``) of the variables where g's exponent is below degree's. A
    subset F of the support has degree / x^F divisible by g exactly when F
    lies in g's facet. No generator dividing degree gives no facet."""
    support = [v for v, e in degree.items() if e > 0]
    return {
        tuple(k for k, v in enumerate(support) if g.get(v, 0) < degree[v])
        for g in generators
        if all(degree.get(v, 0) >= e for v, e in g.items())
    }


def permute_monomial(m: Monomial, mapping: dict) -> Monomial:
    """Apply a variable permutation to a monomial, by variable name."""
    return Monomial.of({mapping[v]: e for v, e in m.exps})


def relative_to_star(faces: dict[int, list[tuple[int, ...]]]) -> dict[int, list[tuple[int, ...]]]:
    """The family relative to the star of its least vertex v, on plain sets:
    faces holding v are dropped, and so are the faces F with F + v in the
    family (the link of v). Keyed by dimension, each dimension in
    lexicographic order, dimensions without a face left out. A family
    without vertices is returned as it is."""
    family = {f for fs in faces.values() for f in fs}
    v = min((x for f in family for x in f), default=None)
    kept: dict[int, list[tuple[int, ...]]] = {}
    for f in sorted(family):
        if v is None or (v not in f and tuple(sorted(f + (v,))) not in family):
            kept.setdefault(len(f) - 1, []).append(f)
    return kept


def canonical_form_oracle(G: Multigraph) -> tuple:
    """The canonical multigraph key by its first definition: for each
    vertex, scan every vertex pair for its incident multiplicities and
    neighbour degrees, then take the least sorted edge-pair tuple over all
    relabelings that order vertices by that invariant, descending."""
    n = G.n
    pairs = [(min(a, b), max(a, b)) for a, b in pairs_of(G)]
    degrees = [sum(v in pair for pair in pairs) for v in range(n)]
    multiplicity: dict[tuple[int, int], int] = {}
    for p in pairs:
        multiplicity[p] = multiplicity.get(p, 0) + 1
    invariants = []
    for v in range(n):
        incident = sorted(m for (a, b), m in multiplicity.items() if v in (a, b))
        neighbor_degrees = sorted(
            degrees[a if b == v else b] for (a, b) in multiplicity if v in (a, b)
        )
        invariants.append((degrees[v], tuple(incident), tuple(neighbor_degrees)))
    keys = sorted(set(invariants), reverse=True)
    groups = [[v for v in range(n) if invariants[v] == key] for key in keys]
    best = None
    for arrangement in product(*(permutations(g) for g in groups)):
        order = [v for group in arrangement for v in group]
        position = [0] * n
        for pos, v in enumerate(order):
            position[v] = pos
        key = tuple(sorted(
            (min(position[a], position[b]), max(position[a], position[b]))
            for a, b in pairs
        ))
        if best is None or key < best:
            best = key
    return (n, best)


def sink_fixing_automorphisms_oracle(G: Multigraph) -> list[tuple[int, ...]]:
    """Every permutation of the non-sink vertices, in lexicographic order of
    their images, kept when it preserves the degrees and the multiset of
    unordered edge pairs: the first definition of the sink-fixing
    automorphisms, reading only n, edges and sink."""
    n, sink = G.n, G.sink
    pair_counts: dict[tuple[int, int], int] = {}
    for a, b in pairs_of(G):
        pair = (min(a, b), max(a, b))
        pair_counts[pair] = pair_counts.get(pair, 0) + 1
    degrees = [sum(k for pair, k in pair_counts.items() if v in pair) for v in range(n)]
    others = [v for v in range(n) if v != sink]
    autos = []
    for image in permutations(others):
        sigma = list(range(n))
        for v, w in zip(others, image):
            sigma[v] = w
        if any(degrees[v] != degrees[sigma[v]] for v in range(n)):
            continue
        mapped: dict[tuple[int, int], int] = {}
        for (a, b), k in pair_counts.items():
            pair = (min(sigma[a], sigma[b]), max(sigma[a], sigma[b]))
            mapped[pair] = mapped.get(pair, 0) + k
        if mapped == pair_counts:
            autos.append(tuple(sigma))
    return autos
