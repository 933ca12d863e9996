"""The runner: sampling, failure accounting, metrics and the contract with
BENCHMARK.json."""

import json
import shutil
import subprocess
import sys

import pytest

import calibration
import run
import tracer
import workloads

STAGES = ("wilmes", "mobius", "lcm-I")


@pytest.fixture
def lattice_goldens():
    return workloads.load_goldens("lattice-mpf6")


def small_ops(goldens):
    """The cheapest op of each of three stages."""
    ops = []
    for stage in STAGES:
        keys = [k for k in goldens if k.startswith(stage + "|")]
        ops.append(workloads.Op(*min(keys, key=lambda k: goldens[k]["cost_s"]).split("|", 1)))
    return ops


def small_setup(pb, goldens, ops):
    return run.Setup(pb, ops, [pb.parse_graph(op.graph) for op in ops], goldens, 0.0)


def test_small_ops_match_goldens(pb, lattice_goldens):
    ops = small_ops(lattice_goldens)
    plain, traced, _ = run.run_passes(small_setup(pb, lattice_goldens, ops), seconds=0.0)
    assert len(plain) == run.MIN_PASSES and not traced
    assert all(p.failed == 0 for p in plain)
    assert all(len(p.cal) == len(ops) + 1 and min(p.cal) > 0 for p in plain)


def test_corrupted_golden_and_raising_op_count_as_failures(pb, lattice_goldens, monkeypatch):
    ops = small_ops(lattice_goldens)
    goldens = dict(lattice_goldens)
    goldens[ops[0].key] = {"answer": [0], "cost_s": 0.0}
    real_compute = workloads.compute

    def compute(pb_, stage, G):
        if stage == "mobius":
            raise RuntimeError("injected")
        return real_compute(pb_, stage, G)

    monkeypatch.setattr(workloads, "compute", compute)
    errors = []
    plain, _, _ = run.run_passes(small_setup(pb, goldens, ops), seconds=0.0, errors=errors)
    attempted = sum(len(p.latencies) for p in plain)
    failed = sum(p.failed for p in plain)
    assert attempted == run.MIN_PASSES * len(ops)
    assert failed == 2 * run.MIN_PASSES  # the run went on after both failures
    assert errors


def test_check_names_match_the_library(pb):
    assert workloads.CHECK_NAMES == pb.verify.CHECK_NAMES


def test_verify_op_must_pass():
    answer = {"sha256": "x", "passed": False}
    assert not workloads.check("verify", answer, dict(answer))
    assert workloads.check("verify", dict(answer, passed=True), dict(answer, passed=True))


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_sampling_is_seeded(pb, workload):
    population = workloads.population_ops(workload, pb)
    goldens = workloads.load_goldens(workload)
    first = workloads.sample_ops(workload, population, goldens, 7)
    assert first == workloads.sample_ops(workload, population, goldens, 7)
    assert first != workloads.sample_ops(workload, population, goldens, 8)
    assert len({op.key for op in first}) == len(first)
    assert all(op.key in goldens for op in first)


def test_stratified_sample_spans_cost_order():
    import random

    ops = list(range(100))
    picked = workloads.stratified_sample(ops, 0.1, random.Random(3))
    assert len(picked) == 10
    assert [p // 10 for p in picked] == list(range(10))
    assert workloads.stratified_sample(ops, 1.0, random.Random(3)) == ops


def test_tail_quantile_leaves_ten_latencies_beyond():
    for m in (5, 11, 20, 51, 56, 500, 10_000):
        q = run.tail_quantile(m)
        assert q == 0.5 or m * (1 - q) >= run.TAIL_MIN_BEYOND
    assert run.tail_quantile(100) == 0.9
    assert run.tail_quantile(11) == 0.5


def ref_pass(latencies, kernel_s):
    """A pass whose calibration kernel took ``kernel_s`` around every op."""
    return run.PassResult(sum(latencies), latencies, 0, {}, [kernel_s] * (len(latencies) + 1))


def test_timings_pool_every_latency_and_scale_to_reference_speed():
    passes = [ref_pass([0.1, 0.2, 0.9], calibration.REF_S),
              ref_pass([0.2, 0.4, 1.8], 2 * calibration.REF_S)]  # the same ops at half speed
    plain = run.timings([p.latencies for p in passes], 0.8, "")
    assert plain["op_p50_s"][0] == pytest.approx(0.3)
    assert plain["op_tail_s"][0] == pytest.approx(0.9)
    assert plain["wall_s"][0] == pytest.approx(1.8)
    ref = run.end_to_end(passes, 0.5, 0.8)
    assert ref["op_p50_ref_s"][0] == pytest.approx(0.2)
    assert ref["op_tail_ref_s"][0] == pytest.approx(0.9)
    assert ref["wall_ref_s"][0] == pytest.approx(1.2)
    assert ref["setup_s"][0] == 0.5


def test_reference_speed_follows_the_kernel_around_each_op():
    fast, slow = calibration.REF_S, 2 * calibration.REF_S
    samples = [fast] * 6 + [slow] * 7  # the machine slows down after op 5
    scaled = calibration.to_ref([1.0] * 12, samples)
    assert scaled[:3] == [1.0] * 3
    assert scaled[-3:] == [0.5] * 3
    assert calibration.local_speed(samples, 0) == fast  # window is clipped at the ends


def test_setup_probe_failure_is_reported_not_raised(monkeypatch):
    def fail(*args, **kwargs):
        raise subprocess.TimeoutExpired(args[0], run.PROBE_TIMEOUT_S)

    monkeypatch.setattr(run.subprocess, "run", fail)
    probes, error = run.probe_setup("gpw6", 1)
    assert probes == [] and "TimeoutExpired" in error


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert run.percentile([1.0, 2.0], 0.75) == 1.75


def test_benchmark_json_names_the_metrics_the_runner_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks"]
    listed = {w["name"] for w in doc["workloads"]}
    assert len(listed) >= 2 and listed <= set(workloads.PLANS)
    e2e = run.end_to_end([ref_pass([0.1, 0.2], calibration.REF_S)], 0.5, 0.5)
    assert [m["name"] for m in doc["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in doc["end_to_end"])
    t = tracer.Tracer()
    layers = run.per_layer([run.PassResult(1.0, [0.1], 0, {})], [run.PassResult(1.1, [0.1], 0, {})], [t])
    assert [m["name"] for m in doc["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in doc["per_layer"])


def test_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    runner exits non-zero without printing a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gpw6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_make_goldens_keeps_recorded_costs(lattice_goldens, monkeypatch):
    import make_goldens

    ops = small_ops(lattice_goldens)[:2]
    monkeypatch.setattr(workloads, "population_ops", lambda name, pb_: ops)
    doc = make_goldens.build("lattice-mpf6", {ops[0].key: 123.0})
    assert doc["ops"][ops[0].key]["cost_s"] == 123.0
    assert doc["ops"][ops[1].key]["cost_s"] < 123.0  # not recorded, so timed now
    assert all(doc["ops"][op.key]["answer"] == lattice_goldens[op.key]["answer"] for op in ops)
