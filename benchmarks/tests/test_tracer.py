"""The outside-in tracer: it changes no output, reaches every boundary
through every binding, and tolerates boundaries that no longer exist."""

import json

import tracer
import workloads

STAGES = ("verify", "gpw", "wilmes", "mobius", "lcm-I", "lcm-K")


def outputs(pb, G, t=None):
    out = {}
    for i, stage in enumerate(STAGES):
        if t is None:
            result = workloads.compute(pb, stage, G)
        else:
            result = t.op(i, stage, workloads.compute, pb, stage, G)
        if stage == "verify":
            doc = result.to_json_dict(include_audit=True)
        else:
            doc = workloads.answer(stage, result)
        out[stage] = json.dumps(doc, sort_keys=True)
    return out


def test_traced_outputs_are_byte_identical(pb, kite):
    plain = outputs(pb, kite)
    with tracer.Tracer() as t:
        traced = outputs(pb, kite, t)
    assert traced == plain
    assert t.spans


def test_every_boundary_records_a_call(pb, kite):
    with tracer.Tracer() as t:
        t.op(0, "verify", pb.verify_graph, kite, (32003, 2, 0))
        t.op(1, "wilmes", pb.betti_wilmes, kite)
    assert not t.absent
    metrics = t.metrics()
    missing = [b for b in t.boundary_names() if metrics[f"{b}.calls"][0] < 1]
    assert not missing
    for counter in tracer.COUNTERS:
        assert metrics[counter][0] > 0, counter
    assert 0 < metrics["homology.orbit_share"][0] <= 1
    assert 0 < metrics["chips.pf_yield"][0] <= 1


def test_reimported_bindings_are_wrapped_and_restored(pb, kite):
    original = pb.ideals.lcm_lattice
    with tracer.Tracer() as t:
        wrapped = pb.ideals.lcm_lattice
        assert wrapped is not original
        for module in (pb, pb.homology, pb.verify):
            assert module.lcm_lattice is wrapped
        t.op(0, "verify", pb.verify_graph, kite)
    for module in (pb, pb.ideals, pb.homology, pb.verify):
        assert module.lcm_lattice is original
    parents = {
        next((s[3] for s in t.spans if s[0] == span[1]), None)
        for span in t.spans if span[3] == "ideals.lcm_lattice"
    }
    assert "verify" in parents  # called by verify_graph itself
    assert {"homology.betti_gpw", "homology.betti_koszul"} <= parents


def test_missing_boundary_is_reported_absent(pb, kite, monkeypatch):
    monkeypatch.delattr(pb.simplicial, "collapse_faces")
    with tracer.Tracer() as t:
        t.op(0, "wilmes", pb.betti_wilmes, kite)
    assert t.absent == ["simplicial.collapse_faces"]
    assert t.metrics()["simplicial.collapse_faces.calls"] == (0, "count")


def test_self_times_add_up_to_the_op_spans(pb, kite):
    with tracer.Tracer() as t:
        t.op(0, "verify", pb.verify_graph, kite)
    total_self = sum(t.self_s.values())
    assert abs(total_self - t.top_level_seconds()) < 1e-6
    ids = [span[0] for span in t.spans]
    assert len(set(ids)) == len(ids)
