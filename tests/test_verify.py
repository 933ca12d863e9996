import concurrent.futures
import json
import multiprocessing
import os
import uuid

import pytest
from hypothesis import given, settings

from parkbetti import (
    CheckResult,
    VerificationReport,
    betti_wilmes,
    canonical_form,
    connected_partitions,
    export_figure,
    generate_corpus,
    graph_to_text,
    parse_graph,
    verification_corpus,
    verify_corpus,
    variable_symmetries,
    verify_graph,
)
from parkbetti import cli as cli_module
from parkbetti import graphs as graphs_module
from parkbetti import homology as homology_module
from parkbetti import verify as verify_module
from parkbetti.verify import CHECK_NAMES
from parkbetti.cli import main

from _oracles import canonical_form_oracle
from conftest import KITE_TEXT, multigraphs


class TestCorpusGeneration:
    def test_simple_counts(self):
        corpus = generate_corpus(6, max_edges=15)
        by_n = {}
        for G in corpus:
            by_n[G.n] = by_n.get(G.n, 0) + 1
        assert by_n == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

    def test_bananas(self):
        corpus = generate_corpus(2, max_edges=3, include_multi=True)
        assert [len(G.edges) for G in corpus] == [1, 2, 3]

    def test_three_vertex_multis(self):
        corpus = generate_corpus(3, max_edges=9, include_multi=True)
        paths = [G for G in corpus if G.n == 3 and len({(e.tail, e.head) for e in G.edges}) == 2]
        triangles = [G for G in corpus if G.n == 3 and len({(e.tail, e.head) for e in G.edges}) == 3]
        # multiplicity multisets: 6 for the path (unordered pair), 10 for the triangle
        assert len(paths) == 6
        assert len(triangles) == 10

    def test_edge_budget_respected(self):
        corpus = generate_corpus(4, max_edges=5, include_multi=True)
        assert all(len(G.edges) <= 5 for G in corpus)

    def test_deterministic(self):
        a = generate_corpus(4, max_edges=6, include_multi=True)
        b = generate_corpus(4, max_edges=6, include_multi=True)
        assert a == b

    def test_bounds(self):
        with pytest.raises(ValueError):
            generate_corpus(1, max_edges=3)
        with pytest.raises(ValueError):
            generate_corpus(8, max_edges=3)

    def test_verification_corpus(self):
        corpus = verification_corpus(5)
        keys = [canonical_form(G) for G in corpus]
        assert len(corpus) == 401 and len(set(keys)) == 401
        simple = generate_corpus(5, max_edges=10)
        assert corpus[: len(simple)] == simple
        assert verification_corpus(5, include_multi=False) == simple

    def test_canonical_form_keys_unchanged_on_the_corpus(self):
        for G in generate_corpus(5, 8, True):
            assert canonical_form(G) == canonical_form_oracle(G), graph_to_text(G)

    @given(multigraphs())
    def test_canonical_form_keys_unchanged(self, G):
        assert canonical_form(G) == canonical_form_oracle(G)

    def test_canonical_form_invariance(self):
        G1 = parse_graph("v:3; a 1 2; b 2 3")
        G2 = parse_graph("v:3; p 1 3; q 2 3")
        assert canonical_form(G1) == canonical_form(G2)
        G3 = parse_graph("v:3; a 1 2; b 2 3; c 1 3")
        assert canonical_form(G1) != canonical_form(G3)


class TestVerifyGraph:
    def test_kite_passes(self, kite):
        report = verify_graph(kite)
        assert report.passed
        assert {c.name for c in report.checks} == {
            "cuts-vs-atoms", "pf-count-vs-trees", "mpf-sink-invariance",
            "mobius-vs-mpf", "cutset-lattice-duality", "parking-specialization",
            "cutset-specialization", "betti-methods-agree", "homology-concentration",
        }
        assert all(vec == [6, 9, 4] for vec in report.betti.values())

    def test_small_graphs_pass(self, k3, banana):
        assert verify_graph(k3).passed
        assert verify_graph(banana(2)).passed

    def test_report_determinism(self, kite):
        a = json.dumps(verify_graph(kite).to_json_dict(), sort_keys=True)
        b = json.dumps(verify_graph(kite).to_json_dict(), sort_keys=True)
        assert a == b

    def test_one_mpf_count_per_contraction(self, kite, monkeypatch):
        # the Mobius check and the Wilmes sum read one count per partition
        contracted, counted = [], []

        def logged(f, calls):
            def wrapped(*args):
                calls.append(args[-1])
                return f(*args)
            return wrapped

        for module in (verify_module, homology_module):
            monkeypatch.setattr(module, "contract", logged(module.contract, contracted))
            monkeypatch.setattr(module, "mpf_count", logged(module.mpf_count, counted))
        report = verify_graph(kite)
        assert report.passed
        partitions = connected_partitions(kite)
        assert sorted(contracted, key=lambda p: p.blocks) == sorted(partitions, key=lambda p: p.blocks)
        # one per contraction, and one per sink for mpf-sink-invariance
        assert len(counted) == len(partitions) + kite.n
        assert list(betti_wilmes(kite)) == report.betti["wilmes"]

    def test_one_lattice_walk_per_ideal(self, kite, monkeypatch):
        # gpw-J, then at each sink one walk that gpw-I and koszul-I share
        # and one for gpw-K
        walked = []
        closure = homology_module.lcm_closure

        def counted(code):
            walked.append(code)
            return closure(code)

        monkeypatch.setattr(homology_module, "lcm_closure", counted)
        assert verify_graph(kite).passed
        assert len(walked) == 1 + 2 * kite.n

    def test_one_connectivity_table_per_graph(self, kite, monkeypatch):
        # the cuts, J, and I and K at every sink read one table
        built = []
        table = graphs_module._connectivity_table

        def counted(G):
            built.append(G)
            return table(G)

        monkeypatch.setattr(graphs_module, "_connectivity_table", counted)
        assert verify_graph(kite).passed
        assert built == [kite]

    def test_memory_error_fails_one_check(self, kite, monkeypatch):
        # the check that ran out of memory fails and names the exception;
        # every other check still runs and passes
        def out_of_memory(self, ideal, symmetries=()):
            raise MemoryError

        monkeypatch.setattr(homology_module._ReductionMemo, "betti_koszul", out_of_memory)
        report = verify_graph(kite)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["betti-methods-agree"]
        assert failed[0].witness == "betti-methods-agree raised MemoryError()"
        assert len(report.checks) == 9

    def test_koszul_checks_its_own_mask_builder(self, kite, monkeypatch):
        # koszul-I builds its masks apart from gpw-I, so a fault in the
        # Koszul builder shows as koszul-I differing from gpw-I at every sink
        koszul_masks = homology_module._koszul_masks
        monkeypatch.setattr(
            homology_module, "_koszul_masks", lambda code, top: koszul_masks(code, top)[1:]
        )
        report = verify_graph(kite)
        assert [c.name for c in report.checks if not c.passed] == ["betti-methods-agree"]
        assert report.betti["koszul-I/sink-v1"] == [6, 3]
        for s in range(1, kite.n + 1):
            assert report.betti[f"gpw-I/sink-v{s}"] == [6, 9, 4]
            assert report.betti[f"koszul-I/sink-v{s}"] != [6, 9, 4]

    def test_a_fault_in_the_shared_core_is_caught_by_wilmes_and_mobius(self, kite, monkeypatch):
        # koszul-I and gpw-I reduce one core, so a fault there gives both the
        # same wrong vector: only the methods without a core tell it apart.
        # The hollow triangle is settled as a point, losing its 1-cycle.
        three_rows = homology_module._THREE_ROWS
        monkeypatch.setattr(homology_module, "_THREE_ROWS", three_rows[:3] + ((1, (1,)),))
        report = verify_graph(kite)
        assert not {c.name: c.passed for c in report.checks}["betti-methods-agree"]
        assert report.betti["wilmes"] == report.betti["mobius"] == [6, 9, 4]
        for s in range(1, kite.n + 1):
            assert report.betti[f"koszul-I/sink-v{s}"] == report.betti[f"gpw-I/sink-v{s}"] == [6, 9]

    def test_report_failure_shape(self):
        report = VerificationReport(
            graph="g", checks=[CheckResult("x", False, "bad")], betti={}
        )
        assert not report.passed
        doc = report.to_json_dict()
        assert doc["checks"][0]["witness"] == "bad"
        assert "timings" not in doc

    def test_verify_corpus_parallel(self, k3, p3):
        reports = verify_corpus([k3, p3], jobs=2)
        assert [r.graph for r in reports] == [
            "v:3; a 1 2; b 1 3; c 2 3; sink:3",
            "v:3; a 1 2; b 2 3; sink:3",
        ]
        assert all(r.passed for r in reports)

    def test_verify_corpus_caps_workers_at_graph_count(self, k3, p3, banana, monkeypatch):
        pools = []
        submitted = []

        class RecordingPool:
            # runs the jobs in-process, so no worker is ever started
            def __init__(self, max_workers):
                pools.append(max_workers)
                submitted.append([])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, G, *rest):
                submitted[-1].append(graph_to_text(G))
                future = concurrent.futures.Future()
                future.set_result(fn(G, *rest))
                return future

        # verify_corpus imports the pool class from its module when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        graphs = [p3, k3, banana(2)]  # 2, 3 and 2 edges
        reports = verify_corpus(graphs, jobs=3)
        assert pools == [3]
        # descending edge count, ties in input order; reports in input order
        assert submitted == [[graph_to_text(G) for G in (k3, p3, banana(2))]]
        assert [r.graph for r in reports] == [graph_to_text(G) for G in graphs]
        assert all(r.passed for r in reports)
        assert [r.passed for r in verify_corpus([k3, p3], jobs=3)] == [True, True]
        assert pools == [3, 2]
        assert [r.passed for r in verify_corpus([k3], jobs=3)] == [True]
        assert pools == [3, 2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the replaced verify_graph reaches the workers only when they are forked",
    )
    def test_verify_corpus_keeps_reports_when_a_worker_dies(self, k3, p3, kite, banana, monkeypatch):
        # the worker verifying the kite exits at once, in the pool of two
        # and again in the pool of its own: the kite gets a failed report,
        # and every other report is the one a serial run gives
        verify = verify_module.verify_graph
        graphs = [k3, kite, p3, banana(2)]

        def dies_on_the_kite(G, chars):
            if graph_to_text(G) == graph_to_text(kite):
                os._exit(1)
            return verify(G, chars)

        monkeypatch.setattr(verify_module, "verify_graph", dies_on_the_kite)
        reports = verify_corpus(graphs, jobs=2)
        assert [r.graph for r in reports] == [graph_to_text(G) for G in graphs]
        lost = reports[1]
        assert not lost.passed and lost.betti == {}
        assert [c.name for c in lost.checks] == list(CHECK_NAMES)
        assert all(c.witness.startswith("the worker verifying this graph died") for c in lost.checks)
        for G, report in zip(graphs, reports):
            if G is not kite:
                assert json.dumps(report.to_json_dict()) == json.dumps(verify(G).to_json_dict())

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the replaced verify_graph reaches the workers only when they are forked",
    )
    def test_verify_corpus_verifies_again_only_the_graphs_lost(
        self, k3, p3, kite, banana, monkeypatch, tmp_path
    ):
        # pool order: the kite, k3, p3, then banana(2). One worker holds the
        # kite until banana has started on the other, by then past k3 and
        # p3, whose reports are sent; then the kite's worker exits, and
        # banana's, held, is lost with it. Each verification leaves a marker
        # file; a graph verified again runs as usual
        verify = verify_module.verify_graph
        graphs = [k3, kite, p3, banana(2)]
        names = dict(zip(map(graph_to_text, graphs), ("k3", "kite", "p3", "banana")))
        banana_started = multiprocessing.Semaphore(0)
        never = multiprocessing.Semaphore(0)

        def counted(G, chars):
            name = names[graph_to_text(G)]
            again = any(tmp_path.glob(f"{name}-*"))
            (tmp_path / f"{name}-{uuid.uuid4().hex}").touch()
            if not again and name == "kite":
                assert banana_started.acquire(timeout=120)
                os._exit(1)
            if not again and name == "banana":
                banana_started.release()
                never.acquire(timeout=120)  # ended by the broken pool
            return verify(G, chars)

        monkeypatch.setattr(verify_module, "verify_graph", counted)
        reports = verify_corpus(graphs, jobs=2)
        runs = {name: len(list(tmp_path.glob(f"{name}-*"))) for name in names.values()}
        assert runs == {"k3": 1, "kite": 2, "p3": 1, "banana": 2}
        for G, report in zip(graphs, reports):
            assert json.dumps(report.to_json_dict()) == json.dumps(verify(G).to_json_dict())

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_verify_corpus_rejects_fewer_than_one_job(self, k3, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            verify_corpus([k3], jobs=jobs)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            verify_graph(parse_graph("v:1"))

    def test_audit_rows_included_on_request(self, k3):
        report = verify_graph(k3)
        assert report.audit
        assert {row["rank"] for row in report.audit} == {1, 2}
        assert "audit" not in report.to_json_dict()
        assert report.to_json_dict(include_audit=True)["audit"] == report.audit

    @settings(max_examples=30)
    @given(multigraphs())
    def test_random_multigraphs_pass(self, G):
        assert verify_graph(G).passed, graph_to_text(G)

    def test_six_vertex_tree(self):
        G = parse_graph("v:6; a 1 2; b 2 3; c 3 4; d 4 5; e 5 6")
        assert verify_graph(G).passed


class TestFigureExport:
    def test_kite_dot(self, kite):
        dot = export_figure(kite, format="dot")
        assert dot.count("[label=") == 13
        assert "x1^3" in dot and "y_a*y_b*y_c" in dot and "z1_a*z1_b*z1_c" in dot
        assert "mu=-4" in dot

    def test_kite_json(self, kite):
        doc = json.loads(export_figure(kite, format="json"))
        assert doc["mobius_by_rank"][0] == [1]
        assert doc["mobius_by_rank"][1] == [-1] * 6
        assert sorted(doc["mobius_by_rank"][2]) == [1, 2, 2, 2, 2]
        assert doc["mobius_by_rank"][3] == [-4]
        assert len(doc["atom_generators"]) == 6

    def test_single_edge_json(self):
        doc = json.loads(export_figure(parse_graph("v:2; a 1 2"), format="json"))
        assert len(doc["elements"]) == 2

    def test_bad_format(self, kite):
        with pytest.raises(ValueError):
            export_figure(kite, format="svg")


class TestCli:
    def write(self, tmp_path, text=KITE_TEXT):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        return str(path)

    def test_parse(self, tmp_path, capsys):
        assert main(["parse", self.write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "v:4; a 1 2; b 1 3; c 1 4; d 2 3; e 3 4; sink:4"

    def test_parse_json_input(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices": 2, "edges": [["a", 1, 2]]}')
        assert main(["parse", str(path)]) == 0
        assert "a 1 2" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        pytest.param("v:3; a 1 1", "loop", id="loop"),
        pytest.param("v:x", "expected an integer", id="parse"),
    ])
    def test_parse_error_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["parse", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_ideal(self, tmp_path, capsys):
        assert main(["ideal", self.write(tmp_path), "--which", "I"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "x1^3" in out and "x1*x3" in out

    def test_ideal_json(self, tmp_path, capsys):
        assert main(["ideal", self.write(tmp_path), "--which", "J", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["generators"]) == 6

    def test_mpf(self, tmp_path, capsys):
        assert main(["mpf", self.write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "count: 4" in out

    def test_mpf_sink_override(self, tmp_path, capsys):
        assert main(["mpf", self.write(tmp_path), "--sink", "1"]) == 0
        assert "count: 4" in capsys.readouterr().out

    def test_betti_methods(self, tmp_path, capsys):
        path = self.write(tmp_path)
        for method in ("wilmes", "gpw", "koszul", "mobius"):
            args = ["betti", path, "--method", method]
            if method in ("gpw", "koszul"):
                args += ["--ideal", "I"]
            assert main(args) == 0
            assert json.loads(capsys.readouterr().out) == [6, 9, 4]

    @pytest.mark.parametrize("method", ["gpw", "koszul"])
    @pytest.mark.parametrize("which, kind", [("I", "x"), ("J", "y"), ("K", "z")])
    def test_betti_passes_the_graph_symmetries(self, tmp_path, capsys, monkeypatch, method, which, kind):
        # swapping v1 and v3 fixes the kite's sink v4, so the call gets one
        # nonidentity symmetry; the vector is the one found without it
        seen = []
        compute = getattr(cli_module, f"betti_{method}")

        def spy(ideal, chars, symmetries=()):
            seen.append(symmetries)
            return compute(ideal, chars, symmetries=symmetries)

        monkeypatch.setattr(cli_module, f"betti_{method}", spy)
        assert main(["betti", self.write(tmp_path), "--method", method, "--ideal", which]) == 0
        assert json.loads(capsys.readouterr().out) == [6, 9, 4]
        assert seen == [variable_symmetries(parse_graph(KITE_TEXT), kind)]
        assert len(seen[0]) == 1

    def test_betti_char_zero(self, tmp_path, capsys):
        assert main(["betti", self.write(tmp_path), "--method", "gpw", "--ideal", "J", "--char", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == [6, 9, 4]

    @pytest.mark.parametrize("command", ["betti", "verify"])
    def test_char_not_an_integer_is_a_usage_error(self, tmp_path, capsys, command):
        args = [command, self.write(tmp_path), "--char", "x"]
        if command == "betti":
            args += ["--method", "gpw"]
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        assert "argument --char: invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["wilmes", "mobius"])
    def test_char_without_homology_is_a_usage_error(self, tmp_path, capsys, method):
        # these methods compute no homology, so a characteristic would be
        # ignored, valid or not
        for char in ("4", "2"):
            with pytest.raises(SystemExit) as exit_info:
                main(["betti", self.write(tmp_path), "--method", method, "--char", char])
            assert exit_info.value.code == 2
            assert f"argument --char: not allowed with --method {method}" in capsys.readouterr().err

    def test_lattice_text(self, tmp_path, capsys):
        assert main(["lattice", self.write(tmp_path), "--dual", "--mobius"]) == 0
        out = capsys.readouterr().out
        assert "mu=-4" in out and out.count("rank") == 13

    def test_lattice_json(self, tmp_path, capsys):
        assert main(["lattice", self.write(tmp_path), "--dual", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["elements"]) == 13

    def test_verify_single(self, tmp_path, capsys):
        assert main(["verify", self.write(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True

    def test_verify_audit_and_timings(self, tmp_path, capsys):
        assert main(["verify", self.write(tmp_path), "--audit", "--timings"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert len(report["audit"]) == 12
        assert set(report["timings"]) == set(CHECK_NAMES)

    def test_verify_pretty(self, tmp_path, capsys):
        assert main(["verify", self.write(tmp_path), "--pretty"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_corpus_small(self, capsys):
        assert main(["verify", "--corpus", "3", "--max-edges", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["graphs"] > 0 and doc["all_passed"] is True

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_verify_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", self.write(tmp_path), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        pytest.param(["/nonexistent/file.txt", "--corpus", "2"],
                     "--corpus: not allowed with a graph file", id="file"),
        pytest.param(["--corpus", "2", "--sink", "9"],
                     "--sink: not allowed with --corpus", id="sink"),
    ])
    def test_verify_corpus_takes_no_graph_input(self, capsys, args, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", *args])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_verify_needs_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify"])

    def test_figure(self, tmp_path, capsys):
        assert main(["figure", self.write(tmp_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mobius_by_rank"][-1] == [-4]
