"""The committed goldens cover each whole population and agree with routes
independent of the code that produced them."""

import pytest

import workloads


@pytest.fixture(scope="module")
def goldens():
    return {w: workloads.load_goldens(w) for w in workloads.PLANS}


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_goldens_cover_the_population(pb, goldens, workload):
    population = workloads.population_ops(workload, pb)
    assert {op.key for op in population} == set(goldens[workload])


def test_population_sizes(pb):
    assert len(workloads.population_ops("corpus5", pb)) == 401
    assert len(workloads.population_ops("gpw6", pb)) == 38
    stages = [op.stage for op in workloads.population_ops("lattice-mpf6", pb)]
    assert {s: stages.count(s) for s in set(stages)} == {
        "wilmes": 112, "mobius": 112, "lcm-I": 60, "lcm-K": 60}


def test_corpus_goldens_all_passed(goldens):
    assert all(entry["answer"]["passed"] for entry in goldens["corpus5"].values())


def test_gpw6_vectors_equal_wilmes(pb, goldens):
    for key, entry in goldens["gpw6"].items():
        G = pb.parse_graph(key.split("|", 1)[1])
        assert entry["answer"] == list(pb.betti_wilmes(G)), key


def test_mobius_goldens_equal_wilmes_goldens(goldens):
    ops = goldens["lattice-mpf6"]
    for key, entry in ops.items():
        stage, graph = key.split("|", 1)
        if stage == "mobius":
            assert entry["answer"] == ops[f"wilmes|{graph}"]["answer"], graph


def test_lcm_of_cutset_ideal_matches_dual_partition_lattice(pb, goldens):
    """lcm(J) is built by lcm closure, the dual partition lattice by
    enumerating connected partitions: their sizes must agree."""
    graphs = {key.split("|", 1)[1] for key in goldens["lattice-mpf6"]}
    assert len(graphs) == 112
    for text in sorted(graphs):
        G = pb.parse_graph(text)
        assert len(pb.lcm_lattice(pb.cutset_ideal(G))) == len(pb.dual_connected_partition_lattice(G)), text


def test_lcm_goldens_recompute(pb, goldens):
    """Spot-check the lcm digests on the sparsest graphs."""
    ops = goldens["lattice-mpf6"]
    keys = sorted((k for k in ops if k.startswith("lcm-")), key=lambda k: ops[k]["cost_s"])[:10]
    for key in keys:
        stage, text = key.split("|", 1)
        result = workloads.compute(pb, stage, pb.parse_graph(text))
        assert workloads.answer(stage, result) == ops[key]["answer"], key
