"""Whole-graph verification and the small-graph corpus generator.

``verify_graph`` runs every structural identity the engine promises on one
graph, sweeping sink-dependent constructions over all sink choices, and
returns a report whose JSON form is byte-stable. The report always keeps the
check timings and the per-interval homology-concentration audit;
``to_json_dict`` includes either only on request. ``generate_corpus``
produces the deterministic universes of small connected graphs the
acceptance suite sweeps.

One ``verify_graph`` call computes each per-graph quantity once and shares
it between its checks:
- the reduction memo (``homology._ReductionMemo``), read by every Betti
  check at every sink and by the concentration audit;
- the mpf count of the contraction to each connected partition, taken on
  first use; mobius-vs-mpf and the Wilmes sum of betti-methods-agree read
  the same counts;
- the graph's component cache (``graphs.connected_components``), which
  its sink copies share, so the connected partitions and contraction
  validation search each vertex set once. Cut enumeration does not use
  it: each call decides every vertex mask in one subset pass of its own
  (``graphs.enumerate_connected_cuts``).
The memo and the counts are dropped on return. The component cache fills
lazily, but the connected partitions ask for nearly every vertex mask, so
after one call it holds almost all 2^n masks; it belongs to the graph
object and lives as long as it does, and a ``dataclasses.replace`` copy
starts with an empty one.
What depends on the sink stays independent at each sink: its parking and
oriented cut-set ideals and their Betti vectors, its parking-function
enumeration and spanning-tree count, and its own mpf count, which
mpf-sink-invariance takes afresh rather than from a contraction.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, field

from .chips import enumerate_parking_functions, mpf_count
from .graphs import (
    Edge,
    Multigraph,
    bits,
    contract,
    enumerate_connected_cuts,
    graph_to_text,
    separating_edges,
    spanning_tree_count,
)
from .homology import (
    DEFAULT_CHARS,
    CharacteristicDisagreement,
    _ReductionMemo,
    _wilmes_sum,
    betti_mobius,
)
from .ideals import (
    Monomial,
    apply_substitution,
    cutset_ideal,
    forget_orientation_substitution,
    lcm_lattice,
    oriented_cutset_ideal,
    parking_ideal,
    shared_vertex_substitution,
    variable_symmetries,
)
from .posets import dual_connected_partition_lattice, lattice_isomorphism_failure

CHECK_NAMES = (
    "cuts-vs-atoms",
    "pf-count-vs-trees",
    "mpf-sink-invariance",
    "mobius-vs-mpf",
    "cutset-lattice-duality",
    "parking-specialization",
    "cutset-specialization",
    "betti-methods-agree",
    "homology-concentration",
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class VerificationReport:
    graph: str
    checks: list[CheckResult]
    betti: dict
    audit: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self, include_timings: bool = False, include_audit: bool = False) -> dict:
        doc = {
            "graph": self.graph,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
            "betti": self.betti,
        }
        if include_audit:
            doc["audit"] = self.audit
        if include_timings:
            doc["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return doc


def verify_graph(G: Multigraph, chars=DEFAULT_CHARS) -> VerificationReport:
    """Run every check on one graph. Failures become report entries carrying
    a minimal witness, never exceptions: a check that runs out of memory or
    recursion depth fails, its witness naming the exception."""
    if G.n < 2:
        raise ValueError("verification needs at least two vertices")
    checks: list[CheckResult] = []
    timings: dict[str, float] = {}
    betti_doc: dict[str, list[int]] = {}
    audit_rows: list[dict] = []

    def run(name, fn):
        start = time.perf_counter()
        try:
            witness = fn()
        except CharacteristicDisagreement as exc:
            witness = str(exc)
        except (MemoryError, RecursionError) as exc:
            witness = f"{name} raised {exc!r}"
        timings[name] = time.perf_counter() - start
        checks.append(CheckResult(name, witness is None, witness))

    lattice_dual = dual_connected_partition_lattice(G)
    cuts = enumerate_connected_cuts(G)
    ideal_j = cutset_ideal(G)
    lat_j = lcm_lattice(ideal_j)
    per_sink = {s: G.with_sink(s) for s in range(G.n)}
    parking = {s: parking_ideal(Gs) for s, Gs in per_sink.items()}
    oriented = {s: oriented_cutset_ideal(Gs) for s, Gs in per_sink.items()}
    # one memo for every lcm-lattice computation below, dropped on return
    reductions = _ReductionMemo(chars)
    # mpf count of the contraction to each connected partition, taken on
    # first use: the Mobius check and the Wilmes sum read the same counts
    contraction_mpfs: dict = {}

    def contraction_mpf(p):
        count = contraction_mpfs.get(p)
        if count is None:
            count = contraction_mpfs[p] = mpf_count(contract(G, p))
        return count

    def check_cuts_vs_atoms():
        atom_blocks = {p.blocks for p in lattice_dual.atoms()}
        cut_blocks = {tuple(sorted((c.u_side, c.w_side))) for c in cuts}
        if atom_blocks != cut_blocks:
            return (
                f"{len(atom_blocks)} lattice atoms vs {len(cut_blocks)} connected cuts: "
                f"{sorted(atom_blocks ^ cut_blocks)}"
            )
        return None

    def check_pf_counts():
        for s, Gs in per_sink.items():
            pf = len(enumerate_parking_functions(Gs))
            trees = spanning_tree_count(Gs)
            if pf != trees:
                return f"sink v{s + 1}: {pf} parking functions vs {trees} spanning trees"
        return None

    def check_mpf_invariance():
        counts = {s: mpf_count(Gs) for s, Gs in per_sink.items()}
        if len(set(counts.values())) != 1:
            return "mpf by sink: " + ", ".join(f"v{s + 1}: {c}" for s, c in counts.items())
        return None

    def check_mobius_vs_mpf():
        mu = lattice_dual.mobius()
        for p in lattice_dual.elements:
            expected = (-1) ** (p.part_count - 1) * contraction_mpf(p)
            if mu[p] != expected:
                return f"{p}: mu={mu[p]} but signed mpf of the contraction is {expected}"
        return None

    def check_cutset_duality():
        phi = {
            p: Monomial.of({f"y_{label}": 1 for label in separating_edges(G, p)})
            for p in lattice_dual.elements
        }
        reason = lattice_isomorphism_failure(lattice_dual, lat_j, phi)
        if reason is not None:
            return f"edge-separation map is not an isomorphism: {reason}"
        # an order isomorphism preserves joins, and the join in lcm(J) is the
        # lcm, the union of separated edges: nothing is left to check pairwise
        return None

    def check_parking_specialization():
        for s, Gs in per_sink.items():
            ideal_i = parking[s]
            got = apply_substitution(oriented[s], shared_vertex_substitution(Gs))
            if got.variables != ideal_i.variables or got.generator_set() != ideal_i.generator_set():
                return f"sink v{s + 1}: specialized generators {sorted(got.generator_strings())}"
        return None

    def check_cutset_specialization():
        for s, Gs in per_sink.items():
            got = apply_substitution(oriented[s], forget_orientation_substitution(Gs))
            if got.variables != ideal_j.variables or got.generator_set() != ideal_j.generator_set():
                return f"sink v{s + 1}: specialized generators {sorted(got.generator_strings())}"
        return None

    def check_betti_agreement():
        results: dict[str, tuple[int, ...]] = {
            "wilmes": _wilmes_sum(lattice_dual.elements, contraction_mpf),
            "mobius": betti_mobius(lattice_dual),
            "gpw-J": reductions.betti_gpw(ideal_j, variable_symmetries(G, "y")),
        }
        for s, Gs in per_sink.items():
            sym_x = variable_symmetries(Gs, "x")
            sym_z = variable_symmetries(Gs, "z")
            results[f"gpw-I/sink-v{s + 1}"] = reductions.betti_gpw(parking[s], sym_x)
            results[f"gpw-K/sink-v{s + 1}"] = reductions.betti_gpw(oriented[s], sym_z)
            results[f"koszul-I/sink-v{s + 1}"] = reductions.betti_koszul(parking[s], sym_x)
        betti_doc.update({name: list(vec) for name, vec in results.items()})
        if len(set(results.values())) != 1:
            return "methods disagree: " + ", ".join(
                f"{name}={list(vec)}" for name, vec in sorted(results.items())
            )
        return None

    def check_concentration():
        rows = reductions.audit(ideal_j, lat_j)
        audit_rows.extend(rows)
        for row in rows:
            expected = {row["rank"] - 2: abs(row["mobius"])} if row["mobius"] else {}
            if row["homology"] != expected:
                return (
                    f"interval below {row['element']} (rank {row['rank']}, "
                    f"mu {row['mobius']}) has homology {row['homology']}"
                )
        return None

    for name, fn in zip(CHECK_NAMES, (
        check_cuts_vs_atoms,
        check_pf_counts,
        check_mpf_invariance,
        check_mobius_vs_mpf,
        check_cutset_duality,
        check_parking_specialization,
        check_cutset_specialization,
        check_betti_agreement,
        check_concentration,
    ), strict=True):
        run(name, fn)

    return VerificationReport(
        graph=graph_to_text(G),
        checks=checks,
        betti=betti_doc,
        audit=audit_rows,
        timings=timings,
    )


def verify_corpus(graphs, chars=DEFAULT_CHARS, jobs: int = 1) -> list[VerificationReport]:
    """Verify a list of graphs, optionally across processes; report order
    always follows input order. No more workers than graphs are started,
    since the pool may start all of them at once. The pool gets the graphs
    by descending edge count, ties in input order, so the heaviest start
    first instead of last in an edge-ordered corpus."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(graphs))
    if workers <= 1:
        return [verify_graph(G, chars) for G in graphs]
    # imported only here, so that a run without a pool never pays for it
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(graphs)), key=lambda i: -len(graphs[i].edges))
    reports: list = [None] * len(graphs)
    ordered = [graphs[i] for i in order]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for i, report in zip(order, pool.map(verify_graph, ordered, itertools.repeat(chars))):
            reports[i] = report
    return reports


def canonical_form(G: Multigraph) -> tuple:
    """Isomorphism-invariant key for a multigraph: the least edge multiset
    over all vertex relabelings that sort a cheap vertex invariant."""
    n = G.n
    degrees = G.degrees
    pairs = [(min(e.tail, e.head), max(e.tail, e.head)) for e in G.edges]
    multiplicity: dict[tuple[int, int], int] = defaultdict(int)
    for p in pairs:
        multiplicity[p] += 1
    incident: list[list[int]] = [[] for _ in range(n)]
    neighbor_degrees: list[list[int]] = [[] for _ in range(n)]
    for (a, b), m in multiplicity.items():
        incident[a].append(m)
        incident[b].append(m)
        neighbor_degrees[a].append(degrees[b])
        neighbor_degrees[b].append(degrees[a])
    invariants = [
        (degrees[v], tuple(sorted(incident[v])), tuple(sorted(neighbor_degrees[v])))
        for v in range(n)
    ]
    keys = sorted(set(invariants), reverse=True)
    groups = [[v for v in range(n) if invariants[v] == key] for key in keys]
    # an edge between positions p < q is coded p * n + q, which orders
    # like the pair (p, q), so sorted code lists compare like pair tuples
    best = None
    position = [0] * n
    for arrangement in itertools.product(*(itertools.permutations(g) for g in groups)):
        for pos, v in enumerate(itertools.chain.from_iterable(arrangement)):
            position[v] = pos
        key = []
        for a, b in pairs:
            p, q = position[a], position[b]
            key.append(p * n + q if p < q else q * n + p)
        key.sort()
        if best is None or key < best:
            best = key
    # from a list, so that each kept key tuple is allocated at its exact size
    return (n, tuple([divmod(c, n) for c in best or ()]))


def _graph_from_pairs(n: int, pairs) -> Multigraph:
    ordered = sorted(pairs)
    edges = tuple(Edge(f"e{i + 1}", a, b) for i, (a, b) in enumerate(ordered))
    return Multigraph(n, edges)


def generate_corpus(max_vertices: int, max_edges: int, include_multi: bool = False) -> list[Multigraph]:
    """All connected simple graphs on 2..max_vertices vertices with at most
    max_edges edges, one per isomorphism class, optionally joined by their
    parallel-edge variants (per-edge multiplicity up to 3, same total edge
    budget). Edges are labeled e1, e2, ... in sorted endpoint order; output
    order is deterministic."""
    if not 2 <= max_vertices <= 7:
        raise ValueError("max_vertices must be between 2 and 7")
    if max_edges < 1:
        raise ValueError("max_edges must be positive")

    # connected simple graphs by vertex-augmentation, deduped by canonical form
    simple: dict[tuple, tuple[int, list[tuple[int, int]]]] = {}
    level: list[list[tuple[int, int]]] = [[(0, 1)]]
    seed = _graph_from_pairs(2, level[0])
    simple[canonical_form(seed)] = (2, level[0])
    for n in range(3, max_vertices + 1):
        next_level: dict[tuple, list[tuple[int, int]]] = {}
        for base in level:
            for neighborhood in range(1, 1 << (n - 1)):
                pairs = base + [(v, n - 1) for v in bits(neighborhood)]
                key = canonical_form(_graph_from_pairs(n, pairs))
                if key not in next_level:
                    next_level[key] = pairs
        for key, pairs in next_level.items():
            simple[key] = (n, pairs)
        level = list(next_level.values())

    chosen: dict[tuple, tuple[int, tuple[tuple[int, int], ...]]] = {}
    for key, (n, pairs) in simple.items():
        if len(pairs) <= max_edges:
            chosen[key] = (n, tuple(sorted(pairs)))

    if include_multi:
        for n, pairs in list(chosen.values()):
            for mults in itertools.product((1, 2, 3), repeat=len(pairs)):
                if sum(mults) > max_edges or all(m == 1 for m in mults):
                    continue
                fat = []
                for pair, m in zip(pairs, mults):
                    fat.extend([pair] * m)
                graph = _graph_from_pairs(n, fat)
                key = canonical_form(graph)
                if key not in chosen:
                    chosen[key] = (n, tuple(sorted(fat)))

    ordered = sorted(chosen.items(), key=lambda item: (item[1][0], len(item[1][1]), item[0]))
    return [_graph_from_pairs(n, list(pairs)) for _, (n, pairs) in ordered]


def verification_corpus(max_vertices: int, max_edges: int = 8, include_multi: bool = True) -> list[Multigraph]:
    """Every connected simple graph on up to ``max_vertices`` vertices, then
    (``include_multi``) the parallel-edge variants on up to 5 vertices within
    ``max_edges`` edges not isomorphic to one already listed.
    ``verification_corpus(5)`` is the 401-graph acceptance corpus."""
    cap = max_vertices * (max_vertices - 1) // 2
    graphs = {canonical_form(G): G for G in generate_corpus(max_vertices, max_edges=cap)}
    if include_multi:
        for G in generate_corpus(min(max_vertices, 5), max_edges, include_multi=True):
            graphs.setdefault(canonical_form(G), G)
    return list(graphs.values())


def export_figure(G: Multigraph, format: str = "dot") -> str:
    """Dual connected-partition lattice with Mobius annotations and, on each
    atom, its three ideal generators (parking, cut-set, oriented)."""
    from .posets import lattice_to_dot, lattice_to_json

    lat = dual_connected_partition_lattice(G)
    mu = lat.mobius()
    cuts = enumerate_connected_cuts(G)
    ideal_i = parking_ideal(G)
    ideal_k = oriented_cutset_ideal(G)
    ideal_j = cutset_ideal(G)
    triples = {}
    for idx, c in enumerate(cuts):
        blocks = tuple(sorted((c.u_side, c.w_side)))
        triples[blocks] = (
            ideal_i.generators[idx].to_str(ideal_i.variables),
            ideal_j.generators[idx].to_str(ideal_j.variables),
            ideal_k.generators[idx].to_str(ideal_k.variables),
        )

    def annotate(p):
        triple = triples.get(p.blocks)
        if triple is None:
            return []
        return [f"I: {triple[0]}", f"J: {triple[1]}", f"K: {triple[2]}"]

    if format == "dot":
        return lattice_to_dot(lat, annotate=annotate)
    if format == "json":
        import json as _json

        doc = lattice_to_json(lat)
        by_rank: dict[int, list[int]] = defaultdict(list)
        for x in lat.elements:
            by_rank[lat.rank(x)].append(mu[x])
        doc["mobius_by_rank"] = [by_rank[r] for r in sorted(by_rank)]
        doc["atom_generators"] = {
            str(p): list(triples[p.blocks]) for p in lat.atoms()
        }
        return _json.dumps(doc, indent=2, sort_keys=True)
    raise ValueError(f"unsupported format {format!r}")
