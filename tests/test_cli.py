"""End-to-end tests of the verify command, report schema, and graph export."""

import json
import sys
from pathlib import Path

import networkx as nx
import pytest

from conesym.autgrp import automorphism_group
from conesym.cli import (
    CHECK_ORDER,
    ConfigError,
    RunConfig,
    exit_code,
    export_graphs,
    main,
    render_text,
    run_verify,
)
from conesym.cones import adjacency_agreement

DATA = Path(__file__).parent / "data"


def scrub_timing(report: dict) -> str:
    clone = json.loads(json.dumps(report))
    for rec in clone["checks"]:
        rec["seconds"] = 0.0
    return json.dumps(clone, indent=2)


class TestConfig:
    def test_range_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(n_min=3, n_max=5).validate()
        with pytest.raises(ConfigError):
            RunConfig(n_min=6, n_max=5).validate()

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(checks=("cuts", "nonsense")).validate()

    def test_bound_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(hypermetric_bound=0).validate()


class TestRunVerify:
    def test_all_checks_pass_n4_to_n5(self):
        report = run_verify(RunConfig(n_min=4, n_max=5))
        assert report["summary"]["fail"] == 0
        assert report["summary"]["error"] == 0
        assert exit_code(report) == 0

    def test_n4_report_carries_both_144_orders(self):
        report = run_verify(RunConfig(n_min=4, n_max=4, checks=("theorem1", "reflect4")))
        by_check = {rec["check"]: rec for rec in report["checks"]}
        assert by_check["theorem1"]["details"]["aut_order"] == 144
        assert by_check["reflect4"]["details"]["matrix_order"] == 144
        assert by_check["reflect4"]["outcome"] == "pass"

    def test_n6_gamma_reports_order_pair(self):
        report = run_verify(RunConfig(n_min=6, n_max=6, checks=("gamma",)))
        rec = report["checks"][0]
        assert rec["outcome"] == "pass"
        assert rec["details"]["aut_gamma6"] == 1440
        assert rec["details"]["aut_gbar6"] == 720

    def test_check_selection_preserves_canonical_order(self):
        report = run_verify(RunConfig(n_min=5, n_max=5, checks=("aut", "cuts")))
        assert [rec["check"] for rec in report["checks"]] == ["cuts", "aut"]

    def test_every_record_has_claim_and_witness_field(self):
        report = run_verify(RunConfig(n_min=4, n_max=4, checks=("cuts", "gamma")))
        for rec in report["checks"]:
            assert rec["claim"]
            assert "witness" in rec
            if rec["outcome"] == "pass":
                assert rec["witness"] is None

    def test_resource_cap_surfaces_as_skip(self):
        report = run_verify(RunConfig(n_min=5, n_max=5, checks=("aut",), aut_vertex_cap=10))
        rec = report["checks"][0]
        assert rec["outcome"] == "skip"
        assert "cap" in rec["details"]["reason"]
        assert exit_code(report) == 0

    def test_deterministic_apart_from_timing(self):
        cfg = RunConfig(n_min=4, n_max=5)
        assert scrub_timing(run_verify(cfg)) == scrub_timing(run_verify(cfg))

    def test_render_text_has_summary_line(self):
        report = run_verify(RunConfig(n_min=4, n_max=4, checks=("cuts",)))
        text = render_text(report)
        assert "summary: 1 pass, 0 fail" in text


# Recorded reports with the `seconds` fields removed.  Between them they
# cover every check, the aut/theorem1 vertex-cap skips, the n=7 adjacency
# skip with theorem2's note, and reflect4's resource-limit skip.
GOLDEN = {
    "default": RunConfig(),
    "n4_7_cap40": RunConfig(n_min=4, n_max=7, aut_vertex_cap=40),
    "n4_cap10": RunConfig(n_min=4, n_max=4, aut_vertex_cap=10),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_report_matches_recorded_report(name):
    report = run_verify(GOLDEN[name])
    for rec in report["checks"]:
        del rec["seconds"]
    expected = json.loads((DATA / f"report_{name}.json").read_text())
    # Compared as JSON text, so the key order inside `details` counts too.
    got = [json.dumps(rec) for rec in report["checks"]]
    assert got == [json.dumps(rec) for rec in expected["checks"]]
    assert json.dumps(report) == json.dumps(expected)


def count_calls(monkeypatch, fn):
    """Wrap fn in every loaded conesym namespace that binds it; the returned
    list collects the positional arguments of each call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "conesym":
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


class TestSharedWork:
    def test_each_automorphism_group_computed_once(self, monkeypatch):
        calls = count_calls(monkeypatch, automorphism_group)
        report = run_verify(RunConfig(n_min=6, n_max=6, checks=("gamma", "aut", "theorem1")))
        assert report["summary"]["pass"] == 3
        assert sorted(graph.n for graph, *_ in calls) == [20, 60]  # Gamma6 and Gbar6

    def test_adjacency_sweep_shared_with_theorem2(self, monkeypatch):
        calls = count_calls(monkeypatch, adjacency_agreement)
        report = run_verify(RunConfig(n_min=5, n_max=5, checks=("adjacency", "theorem2")))
        assert report["summary"]["pass"] == 2
        assert len(calls) == 1


class TestExitCodes:
    def test_failure_maps_to_1(self):
        report = {"summary": {"pass": 0, "fail": 1, "skip": 0, "error": 0}}
        assert exit_code(report) == 1

    def test_error_maps_to_2(self):
        report = {"summary": {"pass": 1, "fail": 0, "skip": 0, "error": 1}}
        assert exit_code(report) == 2

    def test_export_failure_maps_to_2(self):
        report = {"summary": {"pass": 1, "fail": 0, "skip": 0, "error": 0}}
        assert exit_code(report, export_failed=True) == 2


class TestMain:
    def test_text_run(self, capsys):
        code = main(["verify", "--n-min", "4", "--n-max", "4", "--checks", "cuts,facets"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cuts" in out and "facets" in out

    def test_json_run_parses(self, capsys):
        code = main(
            ["verify", "--n-min", "4", "--n-max", "4", "--checks", "cuts", "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["schema_version"] == 1
        assert report["checks"][0]["check"] == "cuts"

    def test_bad_config_exits_2(self, capsys):
        assert main(["verify", "--n-min", "3", "--n-max", "5"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_export_exits_2_but_checks_run(self, capsys):
        code = main(
            ["verify", "--n-min", "4", "--n-max", "4", "--checks", "cuts",
             "--export", "/proc/definitely-not-writable"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "export error" in captured.err
        assert "cuts" in captured.out  # verification itself still reported


class TestExport:
    def test_n5_exports_three_graphs_and_manifest(self, tmp_path):
        cfg = RunConfig(n_min=5, n_max=5, export_dir=str(tmp_path))
        manifest = export_graphs(cfg)
        assert {f["graph"] for f in manifest["files"]} == {"ridge", "complement", "gamma"}
        assert (tmp_path / "manifest.json").exists()
        for entry in manifest["files"]:
            for key in ("graph6", "edge_list", "labels"):
                assert (tmp_path / entry[key]).exists()

    def test_n4_omits_gamma_with_note(self, tmp_path):
        cfg = RunConfig(n_min=4, n_max=4, export_dir=str(tmp_path))
        manifest = export_graphs(cfg)
        assert {f["graph"] for f in manifest["files"]} == {"ridge", "complement"}
        assert manifest["omitted"][0]["graph"] == "gamma"
        assert not (tmp_path / "gamma_n4.g6").exists()

    def test_graph6_files_parse_with_networkx(self, tmp_path):
        cfg = RunConfig(n_min=5, n_max=5, export_dir=str(tmp_path))
        export_graphs(cfg)
        g = nx.from_graph6_bytes((tmp_path / "complement_n5.g6").read_text().strip().encode())
        assert g.number_of_nodes() == 30
        assert all(d == 10 for _, d in g.degree())

    def test_edge_list_matches_graph6(self, tmp_path):
        cfg = RunConfig(n_min=5, n_max=5, export_dir=str(tmp_path))
        export_graphs(cfg)
        g6 = nx.from_graph6_bytes((tmp_path / "ridge_n5.g6").read_text().strip().encode())
        listed = {
            tuple(map(int, line.split()))
            for line in (tmp_path / "ridge_n5.edges").read_text().splitlines()
        }
        assert listed == set(g6.edges())

    def test_labels_cover_all_vertices(self, tmp_path):
        cfg = RunConfig(n_min=5, n_max=5, export_dir=str(tmp_path))
        export_graphs(cfg)
        lines = (tmp_path / "gamma_n5.labels").read_text().splitlines()
        assert len(lines) == 10
        assert [int(line.split()[0]) for line in lines] == list(range(10))
