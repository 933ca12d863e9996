"""Multigraphs with labeled parallel edges and a distinguished sink.

Vertices are 0-based ints internally and rendered 1-based (``v1``, ``v2``,
...) in all user-facing text. Vertex subsets are plain int bitmasks, which
set no size limit. Input is capped at ``MAX_VERTICES`` vertices only because
every enumeration downstream is super-exponential in the vertex count: the
cap never binds at the scales this tool targets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

from .simplicial import bareiss

MAX_VERTICES = 32


class GraphParseError(ValueError):
    """Malformed edge-list or JSON graph document."""


class GraphValidationError(ValueError):
    """Structurally invalid graph: loop, disconnected, bad sink, bad labels."""


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into the indices of its set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Edge:
    """One labeled edge; the (tail, head) order is the edge's orientation."""

    label: str
    tail: int
    head: int


@dataclass(frozen=True)
class Multigraph:
    """Connected loopless multigraph with ordered, labeled edges.

    ``sink`` defaults to the highest-indexed vertex. Parallel edges are
    allowed and distinguished by their labels; loops and disconnected vertex
    sets are rejected outright rather than repaired.
    """

    n: int
    edges: tuple[Edge, ...]
    sink: int | None = None

    def __post_init__(self):
        if not isinstance(self.edges, tuple):
            object.__setattr__(self, "edges", tuple(self.edges))
        if self.n < 1:
            raise GraphValidationError("graph needs at least one vertex")
        if self.n > MAX_VERTICES:
            raise GraphValidationError(f"at most {MAX_VERTICES} vertices supported")
        if self.sink is None:
            object.__setattr__(self, "sink", self.n - 1)
        if not 0 <= self.sink < self.n:
            raise GraphValidationError(f"sink {self.sink + 1} outside 1..{self.n}")
        seen = set()
        for e in self.edges:
            if not (0 <= e.tail < self.n and 0 <= e.head < self.n):
                raise GraphValidationError(f"edge {e.label!r} references a vertex outside 1..{self.n}")
            if e.tail == e.head:
                raise GraphValidationError(f"edge {e.label!r} is a loop")
            if e.label in seen:
                raise GraphValidationError(f"duplicate edge label {e.label!r}")
            seen.add(e.label)
        if _reach_within(self.adjacency_masks, 1, self.full_mask) != self.full_mask:
            raise GraphValidationError("graph is not connected")

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        adj = [0] * self.n
        for e in self.edges:
            adj[e.tail] |= 1 << e.head
            adj[e.head] |= 1 << e.tail
        return tuple(adj)

    @cached_property
    def incident_endpoints(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the far endpoint of each incident edge, in edge
        order: a neighbour appears once per parallel edge."""
        ends: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            ends[e.tail].append(e.head)
            ends[e.head].append(e.tail)
        return tuple(map(tuple, ends))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        return tuple(deg)

    @cached_property
    def nonsink_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if v != self.sink)

    @cached_property
    def sink_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """A generating set of the sink-fixing automorphism group of this
        graph, found once per instance so that every variable kind reads the
        same search: the greedy one of ``automorphism_generators`` over
        ``sink_fixing_automorphisms``. It never holds the identity, so it is
        empty when the group is trivial. On K6 at a sink it is 4 of the 120
        maps."""
        return automorphism_generators(sink_fixing_automorphisms(self))

    @cached_property
    def _components(self) -> dict[int, tuple[int, ...]]:
        """Component masks of each vertex mask asked for so far, filled
        lazily by ``connected_components``: at most one search per mask and
        instance. Nothing is allocated up front, so a few queries on a
        32-vertex graph store a few masks; cut enumeration neither reads
        nor fills it, but ``connected_partitions`` asks for every mask it
        grows a block from, so after ``verify.verify_graph`` the dict holds
        almost all 2^n masks. It lives as long as the graph object;
        ``dataclasses.replace`` starts a new one."""
        return {}

    @cached_property
    def _connectivity(self) -> list[bytearray]:
        """Empty until ``enumerate_connected_cuts`` first runs on this
        graph or a ``with_sink`` copy of it; then it holds the one table
        of ``_connectivity_table``, which every later call reads. Like the
        component cache, it lives as long as the graph object, and
        ``dataclasses.replace`` starts a new one."""
        return []

    def with_sink(self, sink: int) -> "Multigraph":
        """Same graph, same orientation, different sink (0-based index).
        Components and connected vertex masks do not depend on the sink, so
        the copy shares this graph's component cache and its connectivity
        table: a mask searched at one sink is not searched again at
        another, and the table is built once for the graph and its sink
        copies."""
        G = replace(self, sink=sink)
        object.__setattr__(G, "_components", self._components)
        object.__setattr__(G, "_connectivity", self._connectivity)
        return G


def _reach_within(adjacency_masks, start: int, within: int) -> int:
    """Mask of the vertices reachable from the vertex mask ``start`` along
    paths that stay inside the vertex mask ``within``."""
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adjacency_masks[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def is_connected_induced(G: Multigraph, subset: int) -> bool:
    """True iff the subgraph induced on the non-empty bitmask ``subset`` is
    connected; read from the graph's component cache
    (``connected_components``)."""
    if subset == 0:
        raise ValueError("subset must be non-empty")
    return len(connected_components(G, subset)) == 1


def connected_components(G: Multigraph, mask: int) -> tuple[int, ...]:
    """Vertex masks of the connected components of the subgraph induced on
    ``mask``, ascending by lowest vertex; () for the empty mask. Each mask
    is searched once per graph and kept in its component cache, which its
    ``with_sink`` copies share."""
    if mask & ~G.full_mask:
        raise ValueError("subset contains vertices outside the graph")
    components = G._components.get(mask)
    if components is None:
        found = []
        remaining = mask
        while remaining:
            component = _reach_within(G.adjacency_masks, remaining & -remaining, mask)
            found.append(component)
            remaining &= ~component
        components = G._components[mask] = tuple(found)
    return components


@dataclass(frozen=True)
class Cut:
    """A 2-part connected partition with the sink side split out."""

    u_side: int
    w_side: int


def _connectivity_table(G: Multigraph) -> bytearray:
    """Which vertex masks of ``G`` induce connected subgraphs: entry m is 1
    exactly when mask m does, found in one pass over all 2^n masks in
    increasing order. A single vertex is connected; a mask of two or more
    vertices is connected exactly when some vertex of it is adjacent to the
    rest and the rest is connected (a leaf of a spanning tree is such a
    vertex), and the rest is a smaller mask, already decided."""
    full = G.full_mask
    adjacency = G.adjacency_masks
    connected = bytearray(full + 1)
    for mask in range(1, full + 1):
        if not mask & (mask - 1):
            connected[mask] = 1
            continue
        left = mask
        while left:
            low = left & -left
            rest = mask ^ low
            if connected[rest] and adjacency[low.bit_length() - 1] & rest:
                connected[mask] = 1
                break
            left ^= low
    return connected


def enumerate_connected_cuts(G: Multigraph) -> list[Cut]:
    """All cuts {U, W} with the sink in W and both sides inducing connected
    subgraphs, ordered by the U bitmask as an integer.

    Both sides of every sink-free mask are read from the graph's
    connectivity table (``_connectivity_table``), built on the first call
    for the graph or any of its ``with_sink`` copies and kept on the graph
    (``Multigraph._connectivity``); the component cache is neither read
    nor filled."""
    slot = G._connectivity
    if not slot:
        slot.append(_connectivity_table(G))
    connected = slot[0]
    full = G.full_mask
    sink = 1 << G.sink
    return [
        Cut(u, full ^ u)
        for u in range(1, full + 1)
        if not u & sink and connected[u] and connected[full ^ u]
    ]


def boundary_degree(G: Multigraph, u_side: int, v: int) -> int:
    """Number of edges from v leaving U; zero when v is outside U."""
    if not (u_side >> v) & 1:
        return 0
    count = 0
    for e in G.edges:
        if e.tail == v and not (u_side >> e.head) & 1:
            count += 1
        elif e.head == v and not (u_side >> e.tail) & 1:
            count += 1
    return count


def cut_set(G: Multigraph, cut: Cut) -> frozenset[str]:
    """Labels of the edges with one endpoint on each side of the cut."""
    return frozenset(
        e.label
        for e in G.edges
        if ((cut.u_side >> e.tail) & 1) != ((cut.u_side >> e.head) & 1)
    )


@dataclass(frozen=True)
class ConnectedPartition:
    """Partition of the vertex set, stored as sorted block bitmasks.

    Disjointness and non-emptiness are enforced here; block connectivity is
    relative to a graph and is validated where it matters (contraction,
    lattice construction).
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks))
        object.__setattr__(self, "blocks", blocks)
        union = 0
        for b in blocks:
            if b == 0:
                raise ValueError("partition blocks must be non-empty")
            if union & b:
                raise ValueError("partition blocks overlap")
            union |= b

    @staticmethod
    def singletons(n: int) -> "ConnectedPartition":
        return ConnectedPartition(tuple(1 << v for v in range(n)))

    @staticmethod
    def whole(n: int) -> "ConnectedPartition":
        return ConnectedPartition(((1 << n) - 1,))

    @property
    def part_count(self) -> int:
        return len(self.blocks)

    def block_containing(self, v: int) -> int:
        for b in self.blocks:
            if (b >> v) & 1:
                return b
        raise ValueError(f"vertex {v} not covered by the partition")

    def __str__(self) -> str:
        return "{" + " | ".join(
            " ".join(f"v{v + 1}" for v in bits(b)) for b in self.blocks
        ) + "}"


def is_connected_partition(G: Multigraph, partition: ConnectedPartition) -> bool:
    """Blocks cover all vertices and each induces a connected subgraph."""
    union = 0
    for b in partition.blocks:
        union |= b
    if union != G.full_mask:
        return False
    return all(is_connected_induced(G, b) for b in partition.blocks)


def connected_partitions(G: Multigraph) -> list[ConnectedPartition]:
    """Every partition of the vertices into connected blocks.

    The block containing the smallest unassigned vertex is grown directly
    from connected supersets, so disconnected partitions are never generated.
    Sorted by part count, then block masks."""
    results = []

    def grow(unassigned: int, acc: list[int]):
        if not unassigned:
            results.append(ConnectedPartition(tuple(acc)))
            return
        v_bit = unassigned & -unassigned
        rest = unassigned ^ v_bit
        choices = [v_bit]
        sub = rest
        while sub:
            block = sub | v_bit
            if is_connected_induced(G, block):
                choices.append(block)
            sub = (sub - 1) & rest
        for block in choices:
            acc.append(block)
            grow(unassigned & ~block, acc)
            acc.pop()

    grow(G.full_mask, [])
    results.sort(key=lambda p: (p.part_count, p.blocks))
    return results


def separating_edges(G: Multigraph, partition: ConnectedPartition) -> frozenset[str]:
    """Labels of the edges whose endpoints lie in different blocks."""
    return frozenset(
        e.label
        for e in G.edges
        if partition.block_containing(e.tail) != partition.block_containing(e.head)
    )


def contract(G: Multigraph, partition: ConnectedPartition) -> Multigraph:
    """Collapse each block to a single vertex.

    Edges inside a block disappear; all others keep their labels, with
    endpoints mapped through the collapse. The new sink is the block holding
    the old one."""
    if not is_connected_partition(G, partition):
        raise GraphValidationError("not a connected partition of the graph")
    where = {}
    for i, b in enumerate(partition.blocks):
        for v in bits(b):
            where[v] = i
    edges = tuple(
        Edge(e.label, where[e.tail], where[e.head])
        for e in G.edges
        if where[e.tail] != where[e.head]
    )
    return Multigraph(partition.part_count, edges, where[G.sink])


def sink_fixing_automorphisms(G: Multigraph) -> list[tuple[int, ...]]:
    """Vertex permutations that fix the sink and preserve every edge
    multiplicity, as image tuples: the identity first, then in
    lexicographic order of the images of the non-sink vertices.

    Found by backtracking: the sink is placed first, then the non-sink
    vertices in index order, each trying its free images in ascending
    order. An image is kept only when its degree matches and its edge
    multiplicity to every vertex already placed matches, so a partial map
    that no automorphism extends is cut at the first vertex that breaks it
    (the plainest form of the individualisation search in McKay–Piperno,
    "Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014)."""
    n, degrees = G.n, G.degrees
    multiplicity = [[0] * n for _ in range(n)]
    for e in G.edges:
        multiplicity[e.tail][e.head] += 1
        multiplicity[e.head][e.tail] += 1
    order = G.nonsink_vertices
    sigma = list(range(n))
    placed = [G.sink]
    autos = []

    def extend(i: int, used: int):
        if i == len(order):
            autos.append(tuple(sigma))
            return
        v = order[i]
        row = multiplicity[v]
        for w in order:
            if (used >> w) & 1 or degrees[w] != degrees[v]:
                continue
            image_row = multiplicity[w]
            if all(row[u] == image_row[sigma[u]] for u in placed):
                sigma[v] = w
                placed.append(v)
                extend(i + 1, used | 1 << w)
                placed.pop()

    extend(0, 0)
    return autos


def automorphism_generators(group: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """A generating set of the permutation group ``group`` (image tuples,
    closed under composition), chosen greedily: walking ``group`` in order,
    a map is kept only when the group generated by the maps kept so far
    misses it. So the identity is never kept, and each kept map at least
    doubles the generated subgroup (Lagrange): at most log2 |group| maps.

    Orbits under the generators are the orbits under the group, since a
    finite group's inverses are powers; a search that closes each orbit
    under the maps it is given (``homology._orbit_representatives``) needs
    no more."""
    if not group:
        return ()
    generated = {tuple(range(len(group[0])))}
    gens: list[tuple[int, ...]] = []
    for sigma in group:
        if sigma in generated:
            continue
        gens.append(sigma)
        stack = list(generated)
        while stack:
            x = stack.pop()
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in generated:
                    generated.add(y)
                    stack.append(y)
    return tuple(gens)


def spanning_tree_count(G: Multigraph) -> int:
    """Exact spanning-tree count: integer determinant of the Laplacian with
    the sink row and column removed (fraction-free elimination)."""
    keep = [v for v in range(G.n) if v != G.sink]
    pos = {v: i for i, v in enumerate(keep)}
    m = len(keep)
    lap = [[0] * m for _ in range(m)]
    for v in keep:
        lap[pos[v]][pos[v]] = G.degrees[v]
    for e in G.edges:
        if e.tail in pos and e.head in pos:
            lap[pos[e.tail]][pos[e.head]] -= 1
            lap[pos[e.head]][pos[e.tail]] -= 1
    rank, pivot = bareiss(lap)
    return pivot if rank == m else 0


def parse_graph(text: str) -> Multigraph:
    """Parse the edge-list format.

    Statements are separated by newlines or semicolons: a ``v:<n>`` header,
    edge lines ``<label> <i> <j>`` with 1-based endpoints, an optional
    ``sink:<i>`` line, and ``#`` comments. Edge order and labels are
    preserved; endpoint pairs are normalized to the default orientation
    (smaller index first)."""
    n = None
    sink = None
    raw_edges = []
    for stmt in _statements(text):
        if stmt.startswith("v:"):
            if n is not None:
                raise GraphParseError("duplicate v: header")
            n = _parse_int(stmt[2:], stmt)
        elif stmt.startswith("sink:"):
            if sink is not None:
                raise GraphParseError("duplicate sink: line")
            sink = _parse_int(stmt[5:], stmt)
        else:
            parts = stmt.split()
            if len(parts) != 3:
                raise GraphParseError(f"malformed statement: {stmt!r}")
            raw_edges.append((parts[0], _parse_int(parts[1], stmt), _parse_int(parts[2], stmt)))
    if n is None:
        raise GraphParseError("missing v:<n> header")
    return _graph_from_rows(n, raw_edges, sink)


def _graph_from_rows(n: int, rows, sink) -> Multigraph:
    """Validated graph from 1-based ``(label, i, j)`` edge rows and an
    optional 1-based sink, shared by both input formats; ``Multigraph``
    validates them."""
    edges = tuple(Edge(label, min(i, j) - 1, max(i, j) - 1) for label, i, j in rows)
    return Multigraph(n, edges, None if sink is None else sink - 1)


def _statements(text: str):
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if stmt:
                yield stmt


def _parse_int(token: str, context: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise GraphParseError(f"expected an integer in {context!r}") from None


def graph_to_text(G: Multigraph) -> str:
    """Canonical one-line edge-list form, sink always explicit."""
    parts = [f"v:{G.n}"]
    parts += [f"{e.label} {e.tail + 1} {e.head + 1}" for e in G.edges]
    parts.append(f"sink:{G.sink + 1}")
    return "; ".join(parts)


def graph_to_json(G: Multigraph) -> dict:
    """JSON mirror of the edge-list schema (1-based indices)."""
    return {
        "vertices": G.n,
        "edges": [[e.label, e.tail + 1, e.head + 1] for e in G.edges],
        "sink": G.sink + 1,
    }


def graph_from_json(doc) -> Multigraph:
    """Build a graph from the JSON mirror (a dict or a JSON string)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise GraphParseError("JSON graph document needs a 'vertices' field")
    edges = doc.get("edges", [])
    arrays = (list, tuple)
    if not isinstance(edges, arrays) or not all(isinstance(row, arrays) for row in edges):
        raise GraphParseError("JSON 'edges' must be an array of [label, i, j] arrays")
    try:
        n = _json_int(doc["vertices"])
        rows = [(_json_label(label), _json_int(i), _json_int(j)) for label, i, j in edges]
        sink = None if doc.get("sink") is None else _json_int(doc["sink"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphParseError(f"malformed JSON graph document: {exc}") from None
    return _graph_from_rows(n, rows, sink)


def _json_int(value) -> int:
    """``int()`` of a JSON field, rejecting a dropped fraction (1.5 is not 1)
    and booleans (true is not 1)."""
    number = int(value)
    if isinstance(value, bool) or not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _json_label(label) -> str:
    """An edge label the edge-list format can carry, so that
    ``graph_to_text`` of the graph parses back: a non-empty string without
    whitespace, ';' or '#' that does not start a header statement."""
    if (
        not isinstance(label, str)
        or label.split() != [label]
        or ";" in label
        or "#" in label
        or label.startswith(("v:", "sink:"))
    ):
        raise ValueError(f"edge label {label!r} cannot be written in the edge-list format")
    return label
