import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relpick
from relpick import oracle, pruner, simgraph
from relpick.cli import build_parser, main
from relpick.dataspec import (
    SELECTION_RULES,
    write_matrix_binary,
    write_vector_binary,
    write_vector_text,
)

from conftest import boundary_pair


@pytest.fixture
def fixture_files(tmp_path):
    """Three mutually orthogonal rows with confidences (0.9, 0.5, 0.1)."""
    emb = tmp_path / "e.bin"
    conf = tmp_path / "c.txt"
    write_matrix_binary(emb, np.eye(3, dtype=np.float32))
    write_vector_text(conf, np.array([0.9, 0.5, 0.1]))
    return tmp_path, str(emb), str(conf)


def no_payload(*args):
    raise AssertionError("the graph cache payload was read")


def masked(payload: str) -> str:
    data = json.loads(payload)
    data["wall_times"] = None
    return json.dumps(data, sort_keys=True)


class TestGraphCommand:
    def test_build_and_stats(self, fixture_files, capsys):
        tmp, emb, _ = fixture_files
        out = tmp / "g.bin"
        rc = main(["graph", "--embeddings", emb, "--tau", "0.5", "--out", str(out)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["m"] == 3 and stats["degree"] == {"min": 0, "mean": 0.0, "max": 0}
        assert out.exists()

    def test_cache_is_bit_identical_across_runs(self, fixture_files, capsys):
        tmp, emb, _ = fixture_files
        a, b = tmp / "a.bin", tmp / "b.bin"
        main(["graph", "--embeddings", emb, "--tau", "0.5", "--out", str(a)])
        main(["graph", "--embeddings", emb, "--tau", "0.5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tau_out_of_range_exits_2(self, tmp_path, capsys):
        # refused before the file is read: a missing file exited 3
        assert main(["graph", "--embeddings", str(tmp_path / "missing.bin"),
                     "--tau", "1.5"]) == 2
        assert capsys.readouterr().err == "relpick: error: tau must lie in (0, 1], got 1.5\n"

    def test_average_groups_checked_before_the_file_is_read(self, tmp_path, capsys):
        rc = main(["graph", "--embeddings", str(tmp_path / "missing.bin"), "--tau", "0.5",
                   "--average-groups", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "relpick: error: average_groups must be >= 1\n"

    def test_bad_embedding_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        assert main(["graph", "--embeddings", str(bad), "--tau", "0.5"]) == 3


class TestSelectCommand:
    def test_orthogonal_fixture(self, fixture_files, capsys):
        _, emb, conf = fixture_files
        rc = main([
            "select", "--embeddings", emb, "--confidences", conf,
            "--budget", "2", "--tau", "0.5", "--rule", "exact", "--utility", "identity",
        ])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["order"] == [0, 1]
        assert result["objective_trace"][-1] == pytest.approx(1.4, abs=1e-12)

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    def test_every_selection_rule_is_a_choice(self, fixture_files, capsys, rule):
        _, emb, conf = fixture_files
        rc = main([
            "select", "--embeddings", emb, "--confidences", conf,
            "--budget", "2", "--tau", "0.5", "--rule", rule,
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["config"]["rule"] == rule

    @pytest.mark.parametrize("balanced", [False, True])
    def test_lazy_writes_the_exact_result(self, tmp_path, capsys, balanced):
        # lazy and exact are one CELF computation: the results differ only
        # in their wall times and in the rule they record
        E, C, labels, _ = oracle.random_instance(2, m=80, d=6, c=3, cluster_spread=0.3)
        emb, conf, lab = tmp_path / "e.bin", tmp_path / "c.txt", tmp_path / "y.txt"
        write_matrix_binary(emb, E.data)
        write_vector_text(conf, C.values)
        lab.write_text("".join(f"{y}\n" for y in labels.values.tolist()))
        argv = ["select", "--embeddings", str(emb), "--confidences", str(conf),
                "--budget", "20", "--tau", "0.6"]
        if balanced:
            argv += ["--balanced", "--labels", str(lab)]
        results = []
        for rule in ("exact", "lazy"):
            assert main(argv + ["--rule", rule]) == 0
            result = json.loads(masked(capsys.readouterr().out))
            assert result["config"].pop("rule") == rule
            results.append(json.dumps(result, sort_keys=True))
        assert results[0] == results[1]

    def test_balanced_without_labels_exits_2(self, fixture_files):
        _, emb, conf = fixture_files
        rc = main([
            "select", "--embeddings", emb, "--confidences", conf,
            "--budget", "2", "--tau", "0.5", "--balanced",
        ])
        assert rc == 2

    @pytest.mark.parametrize("bad, code", [
        (["--budget", "0"], 2),
        (["--budget", "1", "--balanced"], 2),  # no --labels
        (["--budget", "1", "--tau", "1.5"], 2),
        (["--budget", "1", "--labels", "short"], 3),
        (["--budget", "1", "--confidences", "short"], 3),
    ])
    @pytest.mark.parametrize("cached", [False, True])
    def test_inputs_checked_before_the_graph(self, fixture_files, monkeypatch, capsys,
                                             bad, code, cached):
        tmp, emb, conf = fixture_files
        write_vector_text(tmp / "short", np.array([1.0, 0.0]))  # 2 values for 3 examples

        def no_graph(*args):
            raise AssertionError("the graph was built or loaded before the inputs were checked")
        monkeypatch.setattr(simgraph, "build_graph", no_graph)
        monkeypatch.setattr(simgraph, "ball_stage", no_graph)
        monkeypatch.setattr(simgraph, "load_graph", no_graph)
        monkeypatch.setattr(pruner, "ball_stage", no_graph)
        monkeypatch.setattr(pruner, "_similarity_scan", no_graph)
        bad = [str(tmp / a) if a == "short" else a for a in bad]
        argv = ["select", "--embeddings", emb] + bad
        if "--confidences" not in bad:
            argv += ["--confidences", conf]
        if cached:
            argv += ["--graph", str(tmp / "g.bin")]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith("relpick: error: ")

    def test_graph_cache_of_another_size_exits_3(self, fixture_files, monkeypatch, capsys):
        tmp, emb, conf = fixture_files
        other = tmp / "e4.bin"
        write_matrix_binary(other, np.eye(4, dtype=np.float32))
        assert main(["graph", "--embeddings", str(other), "--tau", "0.5",
                     "--out", str(tmp / "g4.bin")]) == 0
        capsys.readouterr()
        monkeypatch.setattr(simgraph, "load_graph", no_payload)  # refused from the header
        rc = main(["select", "--embeddings", emb, "--confidences", conf, "--budget", "1",
                   "--graph", str(tmp / "g4.bin")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "relpick: error: graph size 4 does not match 3 embeddings\n")

    def test_graph_cache_of_another_tau_exits_2(self, fixture_files, monkeypatch, capsys):
        tmp, emb, conf = fixture_files
        assert main(["graph", "--embeddings", emb, "--tau", "0.5",
                     "--out", str(tmp / "g.bin")]) == 0
        capsys.readouterr()
        monkeypatch.setattr(simgraph, "load_graph", no_payload)  # refused from the header
        rc = main(["select", "--embeddings", emb, "--confidences", conf, "--budget", "1",
                   "--graph", str(tmp / "g.bin"), "--tau", "0.25"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "relpick: error: --tau 0.25 differs from the graph cache's tau 0.5\n")

    @pytest.mark.parametrize("flag", ["--confidences", "--labels"])
    def test_length_mismatch_message(self, fixture_files, capsys, flag):
        tmp, emb, conf = fixture_files
        write_vector_text(tmp / "long", np.array([1.0, 0.0, 1.0, 0.0]))
        argv = ["select", "--embeddings", emb, "--budget", "1", flag, str(tmp / "long")]
        if flag != "--confidences":
            argv += ["--confidences", conf]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"relpick: error: {flag[2:-1]} length 4 does not match 3 examples\n")

    def test_relgrph1_cache_exits_3(self, fixture_files, capsys):
        tmp, emb, conf = fixture_files
        old = tmp / "g.bin"
        old.write_bytes(b"RELGRPH1" + b"\x00" * 24)
        rc = main(["select", "--embeddings", emb, "--graph", str(old), "--confidences", conf,
                   "--budget", "1"])
        assert rc == 3
        assert "rebuild" in capsys.readouterr().err

    def test_budget_over_population_warns(self, fixture_files, capsys):
        _, emb, conf = fixture_files
        rc = main([
            "select", "--embeddings", emb, "--confidences", conf,
            "--budget", "9", "--tau", "0.5",
        ])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert sorted(result["order"]) == [0, 1, 2]
        assert any("clamped" in w for w in result["warnings"])

    def test_deterministic_output(self, fixture_files, capsys):
        _, emb, conf = fixture_files
        argv = [
            "select", "--embeddings", emb, "--confidences", conf,
            "--budget", "2", "--tau", "0.5",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert masked(first) == masked(second)

    def test_probs_input_with_metric(self, tmp_path, capsys):
        emb = tmp_path / "e.bin"
        probs = tmp_path / "p.csv"
        write_matrix_binary(emb, np.eye(3, dtype=np.float32))
        probs.write_text("0.7,0.3\n0.5,0.5\n0.9,0.1\n")
        rc = main([
            "select", "--embeddings", str(emb), "--probs", str(probs),
            "--metric", "diffprob", "--budget", "1", "--tau", "0.5",
        ])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["order"] == [2]  # largest top-2 gap

    def test_inputs_recognized_by_content(self, fixture_files, capsys):
        tmp, emb, conf = fixture_files
        csv, conf_bin = tmp / "e.csv", tmp / "c.bin"
        csv.write_text("1,0,0\n0,1,0\n0,0,1\n")
        write_vector_binary(conf_bin, np.array([0.9, 0.5, 0.1]))
        orders = []
        for e, c in ((emb, conf), (str(csv), conf), (emb, str(conf_bin))):
            assert main(["select", "--embeddings", e, "--confidences", c,
                         "--budget", "2", "--tau", "0.5"]) == 0
            orders.append(json.loads(capsys.readouterr().out)["order"])
        assert orders == [[0, 1]] * 3

    @pytest.mark.parametrize("flag", ["--embeddings", "--confidences", "--labels", "--probs"])
    def test_undecodable_text_exits_3(self, fixture_files, flag):
        tmp, emb, conf = fixture_files
        labels, bad = tmp / "y.txt", tmp / "bad.txt"
        labels.write_text("0\n1\n0\n")
        bad.write_bytes(b"0.5\n\xff\xfe\x00\x81\n0.5\n")
        inputs = {"--embeddings": emb, "--confidences": conf, "--labels": str(labels)}
        if flag == "--probs":
            del inputs["--confidences"]  # the two are mutually exclusive
        inputs[flag] = str(bad)
        argv = ["select", "--budget", "1", "--tau", "0.5"]
        for name, path in inputs.items():
            argv += [name, path]
        assert main(argv) == 3

    def test_format_flag_is_gone(self, fixture_files):
        _, emb, conf = fixture_files
        with pytest.raises(SystemExit) as exit_:
            main(["select", "--embeddings", emb, "--confidences", conf, "--budget", "1",
                  "--format", "csv"])
        assert exit_.value.code == 2

    def test_graph_cache_roundtrip(self, fixture_files, capsys):
        tmp, emb, conf = fixture_files
        cache = tmp / "g.bin"
        main(["graph", "--embeddings", emb, "--tau", "0.5", "--out", str(cache)])
        capsys.readouterr()
        rc = main([
            "select", "--embeddings", emb, "--graph", str(cache), "--confidences", conf,
            "--budget", "2", "--tau", "0.5",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["order"] == [0, 1]

    def test_graph_cache_tau_is_used_and_recorded(self, fixture_files, capsys):
        tmp, emb, conf = fixture_files
        cache = tmp / "g.bin"
        main(["graph", "--embeddings", emb, "--tau", "0.3", "--out", str(cache)])
        capsys.readouterr()
        argv = ["select", "--embeddings", emb, "--graph", str(cache), "--confidences", conf,
                "--budget", "2"]
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["tau"] == 0.3
        assert "seed" not in config
        assert main(argv + ["--tau", "0.95"]) == 2

    @pytest.mark.parametrize("source", ["built", "cache", "scan"])
    def test_result_records_graph_provenance(self, tmp_path, monkeypatch, capsys, source):
        emb, conf, cache = tmp_path / "e.bin", tmp_path / "c.txt", tmp_path / "g.bin"
        write_matrix_binary(emb, np.array([[1, 0], [2, 0], [0, 1]], dtype=np.float32))
        write_vector_text(conf, np.array([0.9, 0.5, 0.1]))
        argv = ["select", "--embeddings", str(emb), "--confidences", str(conf), "--budget", "2"]
        if source == "cache":
            main(["graph", "--embeddings", str(emb), "--tau", "0.3", "--out", str(cache)])
            argv += ["--graph", str(cache)]
        else:
            argv += ["--tau", "0.3"]
        if source == "built":  # the scan's cut at one pick, and the rows never paying
            monkeypatch.setattr(pruner, "_PREFETCH_ROWS", 2)
            monkeypatch.setattr(pruner, "_ROWS_SHARE", 0.0)
        capsys.readouterr()
        assert main(argv) == 0
        # the build multiplies the ball {0, 1} by itself and the loose row 2
        # by itself: 2 * 2 + 1 pairs; a cache multiplies none, and a scan of
        # 2 picks, below the scan's cut, builds no graph to summarize
        summary = {"tau": 0.3, "edges": 5, "degree": {"min": 0, "mean": 2 / 3, "max": 1}}
        assert json.loads(capsys.readouterr().out)["graph"] == {
            "built": {"source": "built", **summary, "pairs": 5},
            "cache": {"source": "cache", **summary},
            "scan": {"source": "scan", "tau": 0.3}}[source]

    @pytest.mark.parametrize("budget", [1, 2])
    def test_rows_result_records_rows_edges_and_pairs(self, tmp_path, monkeypatch, capsys,
                                                      budget):
        # 16 orthogonal rows, one loose group: one pick's row costs 16 pairs
        # against the build's one block of 16 by 16, so past the scan's cut
        # (here at one pick) the rows are computed on demand, up to 2 per
        # call and no more than the picks left: the pick and, at budget 2,
        # the row of next highest gain
        monkeypatch.setattr(pruner, "_PREFETCH_ROWS", 2)
        emb, conf = tmp_path / "e.bin", tmp_path / "c.txt"
        write_matrix_binary(emb, np.eye(16, dtype=np.float32))
        write_vector_text(conf, np.linspace(0.1, 0.9, 16))
        assert main(["select", "--embeddings", str(emb), "--confidences", str(conf),
                     "--budget", str(budget), "--tau", "0.3"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["graph"] == {"source": "rows", "tau": 0.3, "rows": budget,
                                   "edges": budget, "pairs": budget * 16}
        assert result["order"] == [15, 14][:budget]

    @pytest.mark.parametrize("balanced", [False, True])
    def test_rows_and_build_paths_write_the_same_result(self, tmp_path, monkeypatch, capsys,
                                                        balanced):
        E, C, labels, _ = oracle.random_instance(0, m=600, d=16, c=4, cluster_spread=0.1,
                                                 noise_fraction=0.2)
        emb, conf, lab = tmp_path / "e.bin", tmp_path / "c.txt", tmp_path / "l.txt"
        write_matrix_binary(emb, E.data)
        write_vector_text(conf, C.values)
        write_vector_text(lab, labels.values)
        argv = ["select", "--embeddings", str(emb), "--confidences", str(conf), "--budget", "60",
                "--tau", "0.9"] + (["--balanced", "--labels", str(lab)] if balanced else [])
        monkeypatch.setattr(pruner, "_PREFETCH_ROWS", 120)  # its half, the scan's cut: 60
        results = {}
        for rows in (False, True):  # the rows always or never paying
            monkeypatch.setattr(pruner, "_ROWS_SHARE", math.inf if rows else 0.0)
            assert main(argv) == 0
            results[rows] = json.loads(masked(capsys.readouterr().out))
        assert [r["graph"]["source"] for r in results.values()] == ["built", "rows"]
        for r in results.values():
            del r["graph"]
        assert results[False] == results[True]

    def test_cache_of_float32_boundary_pair_loads(self, tmp_path, capsys):
        emb, conf, cache = tmp_path / "e.bin", tmp_path / "c.txt", tmp_path / "g.bin"
        write_matrix_binary(emb, boundary_pair(0.9).data)
        write_vector_text(conf, np.array([0.9, 0.5]))
        assert main(["graph", "--embeddings", str(emb), "--tau", "0.9", "--out", str(cache)]) == 0
        rc = main(["select", "--embeddings", str(emb), "--graph", str(cache),
                   "--confidences", str(conf), "--budget", "1"])
        assert rc == 0


class TestOracleCommand:
    def test_ratio_at_least_1_minus_1_over_e(self, fixture_files, capsys):
        tmp, emb, conf = fixture_files
        result_path = tmp / "r.json"
        main([
            "select", "--embeddings", emb, "--confidences", conf,
            "--budget", "2", "--tau", "0.5", "--rule", "exact",
            "--out", str(result_path),
        ])
        capsys.readouterr()
        rc = main([
            "oracle", "--embeddings", emb, "--confidences", conf,
            "--budget", "2", "--tau", "0.5", "--result", str(result_path),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] >= 1 - 1 / np.e

    def test_full_budget_ratio_exactly_one(self, fixture_files, capsys):
        tmp, emb, conf = fixture_files
        result_path = tmp / "r.json"
        main([
            "select", "--embeddings", emb, "--confidences", conf,
            "--budget", "3", "--tau", "0.5", "--out", str(result_path),
        ])
        capsys.readouterr()
        main([
            "oracle", "--embeddings", emb, "--confidences", conf,
            "--budget", "3", "--tau", "0.5", "--result", str(result_path),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] == 1.0

    @pytest.mark.parametrize("content", [
        '{"order": [0, 0]}',  # duplicated id
        '{"order": [-1]}',    # negative id
        '{"order": [3]}',     # id >= m
        '{"order": [0.5]}',   # not an integer
        'not json',
        '{"gains": [1.0]}',   # no order key
    ])
    def test_bad_result_file_exits_3(self, fixture_files, capsys, content):
        tmp, emb, conf = fixture_files
        bad = tmp / "r.json"
        bad.write_text(content)
        rc = main(["oracle", "--embeddings", emb, "--confidences", conf,
                   "--budget", "2", "--tau", "0.5", "--result", str(bad)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("relpick: error: ")

    def test_short_confidence_file_exits_3(self, fixture_files, monkeypatch, capsys):
        tmp, emb, _ = fixture_files
        write_vector_text(tmp / "short", np.array([1.0, 0.0]))  # 2 values for 3 examples

        def no_graph(*args):
            raise AssertionError("the graph was built before the confidences were checked")
        monkeypatch.setattr(simgraph, "build_graph", no_graph)
        rc = main(["oracle", "--embeddings", emb, "--confidences", str(tmp / "short"),
                   "--budget", "1", "--tau", "0.5"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "relpick: error: confidence length 2 does not match 3 examples\n")

    def test_result_of_another_size_exits_3(self, tmp_path, monkeypatch, capsys):
        # a 6-pick result scored against the best 3-subset read a ratio of 1.19
        E, C, _, _ = oracle.random_instance(1, m=12, d=4, c=3, cluster_spread=0.3,
                                            noise_fraction=0.2)
        emb, conf, res = tmp_path / "e.bin", tmp_path / "c.txt", tmp_path / "r.json"
        write_matrix_binary(emb, E.data)
        write_vector_text(conf, C.values)
        assert main(["select", "--embeddings", str(emb), "--confidences", str(conf),
                     "--budget", "6", "--tau", "0.5", "--out", str(res)]) == 0

        def no_build(*_):
            raise AssertionError("graph built before the result size was checked")
        monkeypatch.setattr(simgraph, "build_graph", no_build)
        assert main(["oracle", "--embeddings", str(emb), "--confidences", str(conf),
                     "--budget", "3", "--tau", "0.5", "--result", str(res)]) == 3
        assert capsys.readouterr().err == (
            f"relpick: error: {res}: result holds 6 picks, not --budget 3\n")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_exits_2_before_any_file_is_read(self, fixture_files, capsys,
                                                              budget):
        # oracle exited 3 ("subset size 0 out of range [1, 3]") where select exits 2
        tmp, emb, conf = fixture_files
        assert main(["select", "--embeddings", emb, "--confidences", conf,
                     "--budget", str(budget), "--tau", "0.5"]) == 2
        said = capsys.readouterr().err
        missing = str(tmp / "missing")
        assert main(["oracle", "--embeddings", missing, "--confidences", missing,
                     "--budget", str(budget), "--tau", "0.5"]) == 2
        assert capsys.readouterr().err == said == (
            f"relpick: error: budget must be >= 1, got {budget}\n")

    def test_tau_out_of_range_exits_2_before_the_size_guard(self, tmp_path, capsys):
        # exited 4 with the size guard's message, which the bad tau never reached
        emb, conf = tmp_path / "e.bin", tmp_path / "c.txt"
        rows = np.random.default_rng(0).standard_normal((300, 4)).astype(np.float32)
        write_matrix_binary(emb, rows)
        write_vector_text(conf, np.full(300, 0.5))
        assert main(["oracle", "--embeddings", str(emb), "--confidences", str(conf),
                     "--budget", "10", "--tau", "2"]) == 2
        assert capsys.readouterr().err == "relpick: error: tau must lie in (0, 1], got 2.0\n"

    def test_budget_above_m_exits_3(self, fixture_files, capsys):
        _, emb, conf = fixture_files
        assert main(["oracle", "--embeddings", emb, "--confidences", conf,
                     "--budget", "4", "--tau", "0.5"]) == 3
        assert capsys.readouterr().err == "relpick: error: subset size 4 out of range [1, 3]\n"

    def test_oversize_instance_exits_4(self, tmp_path):
        emb = tmp_path / "e.bin"
        conf = tmp_path / "c.txt"
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((50, 4)).astype(np.float32)
        write_matrix_binary(emb, rows)
        write_vector_text(conf, rng.uniform(0, 1, 50))
        rc = main([
            "oracle", "--embeddings", str(emb), "--confidences", str(conf),
            "--budget", "20", "--tau", "0.5",
        ])
        assert rc == 4

    @pytest.mark.parametrize("budget,confidence,code", [(20, 0.5, 4), (2, 9.0, 3)])
    def test_checks_run_before_the_build(self, tmp_path, monkeypatch, budget, confidence, code):
        # an oversize budget and an out-of-range confidence need no graph
        emb, conf = tmp_path / "e.bin", tmp_path / "c.txt"
        rows = np.random.default_rng(0).standard_normal((50, 4)).astype(np.float32)
        write_matrix_binary(emb, rows)
        write_vector_text(conf, np.full(50, confidence))

        def no_build(*_):
            raise AssertionError("graph built before the checks")
        monkeypatch.setattr(simgraph, "build_graph", no_build)
        assert main(["oracle", "--embeddings", str(emb), "--confidences", str(conf),
                     "--budget", str(budget), "--tau", "0.5"]) == code


class TestMetricFlag:
    """--metric derives confidences from --probs and means nothing without it."""

    @pytest.mark.parametrize("command", ["select", "oracle"])
    def test_metric_with_confidences_exits_2(self, tmp_path, capsys, command):
        # refused before any file is read: a missing embeddings file exited 3
        missing = str(tmp_path / "missing")
        rc = main([command, "--embeddings", missing, "--confidences", missing,
                   "--metric", "maxprob", "--budget", "1", "--tau", "0.5"])
        assert rc == 2
        assert capsys.readouterr().err == "relpick: error: --metric applies only to --probs\n"

    @pytest.mark.parametrize("command", ["select", "oracle"])
    def test_probs_default_to_maxprob(self, tmp_path, capsys, command):
        emb, probs = tmp_path / "e.bin", tmp_path / "p.csv"
        write_matrix_binary(emb, np.eye(3, dtype=np.float32))
        probs.write_text("0.6,0.4\n0.5,0.5\n0.55,0.45\n")
        outs = []
        for metric in ([], ["--metric", "maxprob"]):
            assert main([command, "--embeddings", str(emb), "--probs", str(probs), "--budget",
                         "1", "--tau", "0.5"] + metric) == 0
            outs.append(capsys.readouterr().out)
        assert masked(outs[0]) == masked(outs[1])


def test_readme_commands_parse():
    # every `relpick ...` line of README's sh blocks, continuation lines
    # joined and comments dropped, so documented flags track the parser
    text = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["relpick"]:
                commands.append(argv[1:])
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on an unknown or malformed flag


class TestFileErrors:
    def test_missing_input_exits_3(self, fixture_files, capsys):
        tmp, _, conf = fixture_files
        rc = main(["select", "--embeddings", str(tmp / "missing.bin"), "--confidences", conf,
                   "--budget", "1"])
        assert rc == 3
        assert "missing.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "graph"])
    def test_unwritable_out_exits_3(self, fixture_files, capsys, command):
        tmp, emb, conf = fixture_files
        argv = ["--embeddings", emb, "--tau", "0.5", "--out", str(tmp / "no-such-dir" / "o")]
        if command == "select":
            argv += ["--confidences", conf, "--budget", "1"]
        assert main([command] + argv) == 3
        assert capsys.readouterr().err.startswith("relpick: error: ")

    @pytest.mark.parametrize("flag, text, message", [
        ("--labels", "0\n1e20\n1\n", "labels must be integers"),
        ("--labels", "0\nnan\n1\n", "labels must be integers"),
        ("--embeddings", "1,0\n1e300,1\n0,1\n", "embedding matrix contains non-finite values"),
        ("--probs", "1,0\n1e300,0\n0,1\n", "probability matrix contains non-finite values"),
    ], ids=["labels-1e20", "labels-nan", "embeddings-1e300", "probs-1e300"])
    def test_unrepresentable_value_is_one_error_line(self, fixture_files, flag, text, message):
        # a child process, so that a numpy warning would reach its real
        # stderr instead of pytest's warning capture
        tmp, emb, conf = fixture_files
        bad = tmp / "bad.txt"
        bad.write_text(text)
        inputs = {"--embeddings": emb, "--confidences": conf, flag: str(bad)}
        if flag == "--probs":
            del inputs["--confidences"]  # the two are mutually exclusive
        src = str(Path(relpick.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "relpick.cli", "select", "--budget", "1",
             *(arg for pair in inputs.items() for arg in pair)],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 3
        prefix = f"{bad}: " if flag == "--labels" else ""
        assert run.stderr == f"relpick: error: {prefix}{message}\n"


class TestBenchCommand:
    def test_refuses_tiny_populations(self):
        assert main(["bench", "--sizes", "64", "--steps", "8"]) == 2

    def test_every_size_is_checked_before_any_runs(self, monkeypatch, capsys):
        def no_instance(*args, **kwargs):
            raise AssertionError("a size ran before every size was checked")
        monkeypatch.setattr(oracle, "random_instance", no_instance)
        assert main(["bench", "--sizes", "512,64", "--steps", "8"]) == 2
        assert "got 64" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["2048,abc", ""])
    def test_malformed_sizes_exit_2(self, capsys, sizes):
        assert main(["bench", "--sizes", sizes, "--steps", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("relpick: error: ") and captured.out == ""

    @pytest.mark.parametrize("bad", [["--tau", "2"], ["--steps", "0"], ["--seed", "-1"],
                                     ["--d", "0"]])
    def test_bad_selection_config_exits_2(self, capsys, bad):
        assert main(["bench", "--sizes", "512", "--d", "8", *bad]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("relpick: error: ") and captured.out == ""

    def test_small_smoke_run(self, capsys):
        rc = main(["bench", "--sizes", "512", "--steps", "10", "--d", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "algorithm,m,step,seconds"
        algos = {line.split(",")[0] for line in lines[1:]}
        assert algos == {"prune4rel", "kcenter"}
