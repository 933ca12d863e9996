"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The corpus sweep (criteria 2-7) covers every connected simple graph
on up to 5 vertices plus parallel-edge variants (per-edge multiplicity up to
3 within an 8-edge budget), with every check swept over all sink choices.
"""

import hashlib
import time
from itertools import product

import pytest

from parkbetti import (
    Monomial,
    betti_gpw,
    betti_koszul,
    betti_mobius,
    betti_wilmes,
    cutset_ideal,
    dual_connected_partition_lattice,
    enumerate_connected_cuts,
    generate_corpus,
    is_parking_function,
    lcm_lattice,
    minimalize,
    oriented_cutset_ideal,
    parking_ideal,
    parse_graph,
    verification_corpus,
    verify_graph,
)
from parkbetti.cli import verify_json

from _oracles import boundary_matrices, interval_chain_faces, is_pf_oracle
from conftest import KITE_TEXT

CORPUS_TIME_BUDGET = 600.0  # seconds, single-threaded
# sha256 of the stdout of ``parkbetti verify --corpus 5``, and with --audit
CORPUS_SHA256 = "b5fa900141bad54e8ebd04d732a5853ad2f3e89c3a1b7ebcb0c211c2b927858e"
CORPUS_AUDIT_SHA256 = "5e9ac244e0d42949b97ab54d121545da15d9d84c2ccd6e9ed15ad89679602664"


def report_line(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {criterion}] {status} {detail}".rstrip(), flush=True)
    assert passed, f"acceptance {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus_reports():
    graphs = verification_corpus(5)
    start = time.perf_counter()
    reports = [verify_graph(G) for G in graphs]
    elapsed = time.perf_counter() - start
    return graphs, reports, elapsed


def failing(reports, check_name):
    out = []
    for r in reports:
        for c in r.checks:
            if c.name == check_name and not c.passed:
                out.append((r.graph, c.witness))
    return out


def test_criterion_1_kite_reproduction():
    kite = parse_graph(KITE_TEXT)
    start = time.perf_counter()

    cuts = enumerate_connected_cuts(kite)
    ideal_i = parking_ideal(kite)
    ideal_j = cutset_ideal(kite)
    ideal_k = oriented_cutset_ideal(kite)
    lattice = dual_connected_partition_lattice(kite)
    mu = lattice.mobius()
    report = verify_graph(kite)

    ok = len(cuts) == 6
    ok &= set(ideal_i.generator_strings()) == {
        "x1^3", "x1^2*x2", "x2^2", "x1*x3", "x2*x3^2", "x3^3"
    }
    ok &= set(ideal_j.generator_strings()) == {
        "y_a*y_b*y_c", "y_b*y_c*y_d", "y_a*y_d", "y_c*y_e", "y_a*y_b*y_e", "y_b*y_d*y_e"
    }
    ok &= set(ideal_k.generator_strings()) == {
        "z1_a*z1_b*z1_c", "z1_b*z1_c*z1_d", "z2_a*z1_d",
        "z1_c*z1_e", "z2_a*z2_b*z1_e", "z2_b*z2_d*z1_e"
    }
    ok &= lattice.rank_profile() == (1, 6, 5, 1)
    by_rank = {}
    for x in lattice.elements:
        by_rank.setdefault(lattice.rank(x), []).append(mu[x])
    ok &= sorted(by_rank[0]) == [1]
    ok &= sorted(by_rank[1]) == [-1] * 6
    ok &= sorted(by_rank[2]) == [1, 2, 2, 2, 2]
    ok &= sorted(by_rank[3]) == [-4]
    ok &= report.passed
    ok &= all(tuple(vec) == (6, 9, 4) for vec in report.betti.values())

    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report_line("1 kite-reproduction", ok, f"({elapsed:.2f}s)")


def test_criterion_2_betti_method_equality(corpus_reports):
    graphs, reports, elapsed = corpus_reports
    bad = failing(reports, "betti-methods-agree")
    within_budget = elapsed < CORPUS_TIME_BUDGET
    detail = f"({len(graphs)} graphs, all sinks, {elapsed:.0f}s)"
    if bad:
        detail += f" first failure: {bad[0]}"
    if not within_budget:
        detail += " over time budget"
    report_line("2 betti-equality-corpus", not bad and within_budget, detail)


@pytest.mark.parametrize(
    "audit, want", [(False, CORPUS_SHA256), (True, CORPUS_AUDIT_SHA256)], ids=["default", "audit"]
)
def test_criterion_2_corpus_output_is_pinned(corpus_reports, audit, want):
    # the document `verify --corpus 5` prints, trailing newline included
    _, reports, _ = corpus_reports
    printed = verify_json(reports, audit=audit) + "\n"
    got = hashlib.sha256(printed.encode()).hexdigest()
    report_line("2 corpus-output-pinned", got == want, f"(audit={audit}, sha256 {got[:12]})")


def test_criterion_3_mobius_formula(corpus_reports):
    _, reports, _ = corpus_reports
    bad = failing(reports, "mobius-vs-mpf")
    report_line("3 mobius-vs-mpf", not bad, str(bad[:1]) if bad else "")


def test_criterion_4_cutset_duality(corpus_reports):
    _, reports, _ = corpus_reports
    bad = failing(reports, "cutset-lattice-duality")
    report_line("4 cutset-lattice-duality", not bad, str(bad[:1]) if bad else "")


def test_criterion_5_specializations(corpus_reports):
    _, reports, _ = corpus_reports
    bad = failing(reports, "parking-specialization") + failing(reports, "cutset-specialization")
    report_line("5 oriented-specializations", not bad, str(bad[:1]) if bad else "")


def test_criterion_6_homology_concentration(corpus_reports):
    _, reports, _ = corpus_reports
    bad = failing(reports, "homology-concentration")
    report_line("6 homology-concentration", not bad, str(bad[:1]) if bad else "")


def test_criterion_7_sanity_invariants(corpus_reports):
    _, reports, _ = corpus_reports
    bad = failing(reports, "pf-count-vs-trees") + failing(reports, "mpf-sink-invariance")
    recognizers_agree = True
    witness = ""
    for G in generate_corpus(4, max_edges=6, include_multi=True):
        for s in range(G.n):
            Gs = G.with_sink(s)
            box = [range(Gs.degrees[v]) for v in Gs.nonsink_vertices]
            for config in product(*box):
                if is_parking_function(Gs, config) != is_pf_oracle(Gs, config):
                    recognizers_agree = False
                    witness = f"{Gs} sink v{s+1} config {config}"
                    break
    report_line(
        "7 sanity-invariants",
        not bad and recognizers_agree,
        str(bad[:1]) if bad else witness,
    )


def test_criterion_8_property_suite():
    import numpy as np

    ok = True
    detail = ""

    # boundary maps compose to zero on assembled complexes
    kite = parse_graph(KITE_TEXT)
    lat_j = lcm_lattice(cutset_ideal(kite))
    for y in lat_j.elements:
        if y == lat_j.bottom:
            continue
        mats = boundary_matrices(interval_chain_faces(lat_j, y))
        for d in mats:
            if d + 1 in mats and mats[d].size and mats[d + 1].size:
                if np.any(mats[d] @ mats[d + 1]):
                    ok, detail = False, f"boundary square nonzero at {y}"

    # lcm-lattice joins are exponentwise maxima
    for G in generate_corpus(4, max_edges=5, include_multi=True):
        for build in (parking_ideal, cutset_ideal, oriented_cutset_ideal):
            lat = lcm_lattice(build(G))
            elems = lat.elements
            for i, a in enumerate(elems):
                for b in elems[i:]:
                    if lat.join(a, b) != a.lcm(b):
                        ok, detail = False, f"join mismatch in {build.__name__}"

    # minimalize is idempotent
    for G in generate_corpus(4, max_edges=5, include_multi=True):
        ideal = parking_ideal(G)
        once = minimalize(ideal)
        if minimalize(once) != once:
            ok, detail = False, "minimalize not idempotent"

    # Mobius recursion residuals vanish
    for G in generate_corpus(4, max_edges=5, include_multi=True):
        lattice = dual_connected_partition_lattice(G)
        mu = lattice.mobius()
        for x in lattice.elements:
            if x == lattice.bottom:
                continue
            if sum(mu[y] for y in lattice.elements if lattice.leq(y, x)) != 0:
                ok, detail = False, f"Mobius residual nonzero at {x}"

    report_line("8 property-suite", ok, detail)
