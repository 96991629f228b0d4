"""End-to-end tests of the verify command, report schema, and graph export."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

import conesym
from conesym import cli, cones, reflections
from conesym.autgrp import (
    AUT_VERTEX_CAP,
    automorphism_group,
    clique_chain_groups,
    induced_point_generators,
    is_graph_automorphism,
)
from conesym.cli import (
    HYPERMETRIC_BOUND_MAX,
    ConfigError,
    RunConfig,
    build_parser,
    exit_code,
    export_graphs,
    main,
    render_text,
    run_verify,
)
from conesym.cones import (
    _facet_incidence_masks,
    adjacency_agreement,
    hypermetric_sweep,
    triangle_incidence_bound,
)
from conesym.core import cut_correlations, cut_members, cut_stars, enumerate_triangle_facets
from conesym.ridge import (
    Graph,
    StructureError,
    build_complement,
    build_triangle_graph,
    find_triangles,
    intersection_array,
    verify_johnson_isomorphism,
    verify_rook_neighborhood,
)

from references import cut_order_star_reference, edges_reference
from test_autgrp import count_walks, toggled, with_one_point_meetings

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

    def test_string_check_list_rejected(self):
        # A string would be read character by character.
        with pytest.raises(ConfigError, match="got the string 'aut'"):
            RunConfig(checks="aut").validate()

    def test_non_string_check_id_named_by_repr(self):
        with pytest.raises(ConfigError, match=r"^unknown checks: 5, b'gamma'$"):
            RunConfig(checks=("aut", 5, b"gamma")).validate()

    def test_n_max_above_max_n_rejected(self):
        RunConfig(n_min=cli.MAX_N, n_max=cli.MAX_N, checks=("facets",)).validate()
        with pytest.raises(ConfigError, match=f"n_max {cli.MAX_N + 1} is above {cli.MAX_N}"):
            RunConfig(n_max=cli.MAX_N + 1).validate()

    @pytest.mark.parametrize(
        "argv",
        [["--n-min", "41", "--n-max", "41", "--checks", "triangles"],
         ["--n-min", "4", "--n-max", "200000", "--checks", "reflect4"]],
        ids=["triangles", "reflect4"],
    )
    def test_n_max_above_max_n_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        assert main(["verify", *argv]) == 2
        assert time.perf_counter() - start < 1
        assert f"is above {cli.MAX_N}" in capsys.readouterr().err

    def test_export_above_export_max_n_exits_2_before_writing(self, tmp_path, capsys):
        n = cli.EXPORT_MAX_N + 1
        RunConfig(n_min=4, n_max=n - 1, export_dir=str(tmp_path)).validate()
        start = time.perf_counter()
        assert main(["verify", "--n-min", str(n), "--n-max", str(n), "--checks", "facets",
                     "--export", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 1
        assert f"export at n_max {n} is above {cli.EXPORT_MAX_N}" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="export at n_max"):
            export_graphs(RunConfig(n_min=n, n_max=n, export_dir=str(tmp_path)))
        assert list(tmp_path.iterdir()) == []

    def test_empty_check_list_rejected(self):
        with pytest.raises(ConfigError):
            run_verify(RunConfig(checks=()))

    def test_bound_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(hypermetric_bound=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(hypermetric_bound=HYPERMETRIC_BOUND_MAX + 1).validate()
        RunConfig(hypermetric_bound=HYPERMETRIC_BOUND_MAX).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_min", 4.0),
            ("n_max", 6.0),
            ("hypermetric_bound", 2.5),
            ("aut_vertex_cap", 50.5),
            ("aut_vertex_cap", True),
        ],
    )
    def test_non_integer_field_refused(self, field, value):
        # Unchecked, a float n reaches `range` as a TypeError, a fractional
        # bound turns every hypermetric record into an error, and a bool
        # serves as a cap.
        with pytest.raises(ConfigError, match=rf"^{field} must be an integer, got {value!r}$"):
            run_verify(RunConfig(**{field: value}))

    def test_cli_defaults_are_the_config_defaults(self):
        # The recorded default report pins RunConfig's values; the CLI must
        # give the same configuration when no flag is passed.
        args = vars(build_parser().parse_args(["verify"]))
        assert {name: args[name] for name in RunConfig._fields} == RunConfig()._asdict()

    def test_every_flag_lands_in_its_config_field(self):
        args = build_parser().parse_args(
            ["verify", "--n-min", "5", "--n-max", "7", "--checks", " cuts, aut ,,",
             "--hypermetric-bound", "2", "--aut-vertex-cap", "40",
             "--format", "json", "--export", "out"]
        )
        assert {name: getattr(args, name) for name in RunConfig._fields} == RunConfig(
            5, 7, ("cuts", "aut"), 2, 40, "json", "out"
        )._asdict()


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
        # The only selected check was skipped, so nothing was certified.
        assert exit_code(report) == 2

    def test_deterministic_apart_from_timing(self):
        cfg = RunConfig(n_min=4, n_max=5)
        assert scrub_timing(run_verify(cfg)) == scrub_timing(run_verify(cfg))

    def test_render_text_has_summary_line(self):
        report = run_verify(RunConfig(n_min=4, n_max=4, checks=("cuts",)))
        text = render_text(report)
        assert "summary: 1 pass, 0 fail" in text


def run_python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports this checkout's conesym."""
    src = str(Path(conesym.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return proc.stdout


def cold_import_loads(modules: list[str]) -> list[str]:
    """Those of `modules` that `import conesym.cli` loads in a fresh
    interpreter; -S keeps `site` from importing modules of its own first."""
    src = str(Path(conesym.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import conesym.cli\n"
        f"print(*sorted(set({modules!r}) & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout.split()


class TestColdImport:
    def test_import_loads_no_dataclasses_inspect_or_argparse(self):
        assert cold_import_loads(["dataclasses", "inspect", "argparse"]) == []

    def test_import_loads_no_fractions_decimal_or_numbers(self):
        # Every certificate runs on integers.
        assert cold_import_loads(["fractions", "decimal", "numbers"]) == []


class TestWithoutNumpy:
    def test_import_leaves_numpy_unloaded(self):
        code = "import sys, conesym.cli; print('numpy' in sys.modules)"
        assert run_python(code).strip() == "False"

    def test_verify_runs_with_numpy_blocked(self):
        # A None entry in sys.modules makes every `import numpy` raise
        # ImportError, so a check that needs numpy would report an error.
        code = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from conesym.cli import RunConfig, run_verify\n"
            "print(json.dumps(run_verify(RunConfig(n_min=4, n_max=5))))\n"
        )
        blocked = json.loads(run_python(code))
        assert {rec["outcome"] for rec in blocked["checks"]} == {"pass", "skip"}
        assert scrub_timing(blocked) == scrub_timing(run_verify(RunConfig(n_min=4, n_max=5)))


# Recorded reports with the `seconds` fields removed.  Between them they
# cover every check, the aut/theorem1 vertex-cap skips, the n=7 adjacency
# skip with theorem2's note, and reflect4's resource-limit skip; `symmetry`
# pins the automorphism orders and the Triangle quotient at n = 9..10,
# `n4_8` every check up to n = 8, `sweeps_b4` the bounded sweeps at
# coefficient bound 4, and `n11_12_sym` the seeded searches past the default
# vertex cap.
GOLDEN = {
    "default": RunConfig(),
    "n4_7_cap40": RunConfig(n_min=4, n_max=7, aut_vertex_cap=40),
    "n4_cap10": RunConfig(n_min=4, n_max=4, aut_vertex_cap=10),
    "symmetry": RunConfig(
        n_min=9, n_max=10, checks=("aut", "theorem1", "gamma", "johnson"), aut_vertex_cap=495
    ),
    "n4_8": RunConfig(n_min=4, n_max=8),
    "sweeps_b4": RunConfig(
        n_min=5, n_max=7, checks=("hypermetric", "theorem2"), hypermetric_bound=4
    ),
    "n11_12_sym": RunConfig(
        n_min=11, n_max=12, checks=("hexagons", "gamma", "johnson", "aut", "theorem1"),
        aut_vertex_cap=700,
    ),
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


# Before the automorphism search was seeded with the point permutations, the
# recorded reports differed only in these fields: the generator count of each
# `aut` record, by n, and the default vertex cap.  The sha256 is that of the
# earlier file.  The reports recorded since seeding have no such entry.
UNSEEDED = {
    "default": ({4: 4, 5: 4, 6: 5}, 300,
                "85be1585812ea39832d82d94ec76cc0abbf78090454b03417fd2d60b140057a8"),
    "n4_7_cap40": ({4: 4, 5: 4}, 40,
                   "6d38a6a9b5dd853cca0b06374945201c7126f43b3d45b3b91b432c6a68c5a81d"),
    "n4_cap10": ({}, 10,
                 "2cbd5745cf663a91495869649e5ed3e957d6bf9629c4e88cfa4842dc6efb7c7d"),
    "symmetry": ({9: 8, 10: 9}, 495,
                 "5de89dc419e09501c5a28972513d698c65bcc8aa3cd417c2f071e946c048e9c3"),
}


# From n = 7 on the clique chain certifies `aut` and `theorem1` without a
# search, so the vertex cap no longer skips them there.  These reports moved
# by those records alone: by golden, the skip reason of each n that moved,
# and the sha256 of the file before the move.
CHAIN_MOVED = {
    "n4_7_cap40": ({7: "105 vertices above cap 40"},
                   "b1bc2bf2b7e4d01e09b2e25c2b1dcc8b2a806b8007fa2facec09f2e002475727"),
}


def restore_cap_skips(report: dict, reasons: dict) -> dict:
    """`report` with its `aut` and `theorem1` records at each n of `reasons`
    put back as skips with that reason, and the summary counted again."""
    for rec in report["checks"]:
        if rec["check"] in ("aut", "theorem1") and rec["n"] in reasons:
            report["summary"][rec["outcome"]] -= 1
            report["summary"]["skip"] += 1
            rec.update(outcome="skip", details={"reason": reasons[rec["n"]]}, witness=None)
    return report


@pytest.mark.parametrize("name", CHAIN_MOVED)
def test_recorded_report_moved_only_by_the_clique_chain(name):
    reasons, digest = CHAIN_MOVED[name]
    report = json.loads((DATA / f"report_{name}.json").read_text())
    assert all(
        rec["outcome"] == "pass"
        for rec in report["checks"]
        if rec["check"] in ("aut", "theorem1") and rec["n"] in reasons
    )
    text = json.dumps(restore_cap_skips(report, reasons), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", UNSEEDED)
def test_recorded_report_moved_only_in_seeded_fields(name):
    generators, cap, digest = UNSEEDED[name]
    report = json.loads((DATA / f"report_{name}.json").read_text())
    restore_cap_skips(report, CHAIN_MOVED.get(name, ({},))[0])
    report["config"]["aut_vertex_cap"] = cap
    for rec in report["checks"]:
        if "generators" in rec["details"]:
            rec["details"]["generators"] = generators.pop(rec["n"])
    assert generators == {}
    text = json.dumps(report, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_vertex_cap_binds_only_the_searches_below_n7():
    report = run_verify(RunConfig(n_min=6, n_max=7, checks=("aut", "theorem1"), aut_vertex_cap=1))
    assert [(rec["n"], rec["outcome"]) for rec in report["checks"]] == [
        (6, "skip"), (6, "skip"), (7, "pass"), (7, "pass")
    ]


def test_default_cap_admits_n11(monkeypatch):
    # One cap, 500 vertices, for the library and the command line.  At
    # n = 11 the clique chain certifies both groups, so no search runs.
    assert RunConfig().aut_vertex_cap == AUT_VERTEX_CAP == 500
    searches = count_calls(monkeypatch, automorphism_group)
    report = run_verify(RunConfig(n_min=11, n_max=11, checks=("aut", "theorem1")))
    assert [rec["outcome"] for rec in report["checks"]] == ["pass", "pass"]
    assert searches == []


def test_cap_binds_the_search_at_n6():
    # Gbar5 has 30 vertices and Gbar6 60, one above the cap.
    report = run_verify(RunConfig(n_min=5, n_max=6, checks=("aut", "theorem1"), aut_vertex_cap=59))
    assert [rec["outcome"] for rec in report["checks"]] == ["pass", "pass", "skip", "skip"]
    assert report["checks"][2]["details"] == {"reason": "60 vertices above cap 59"}


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

    def test_clique_chain_replaces_the_searches_from_n7(self, monkeypatch):
        chains = count_calls(monkeypatch, clique_chain_groups)
        searches = count_calls(monkeypatch, automorphism_group)
        report = run_verify(RunConfig(n_min=7, n_max=8, checks=("gamma", "aut", "theorem1")))
        assert report["summary"]["pass"] == 6
        assert [args[4] for args in chains] == [7, 8]
        assert searches == []

    def test_failed_clique_chain_runs_once(self, monkeypatch):
        # Identity point seeds on Gbar7 fail step (d); theorem1 reads the
        # failure aut left instead of running the chain again.
        chains = count_calls(monkeypatch, clique_chain_groups)
        identity = property(lambda inst: [tuple(range(inst.gbar.n))] * 2)
        monkeypatch.setattr(cli.Instance, "gbar_points", identity)
        report = run_verify(RunConfig(n_min=7, n_max=7, checks=("aut", "theorem1")))
        assert len(chains) == 1
        witness = {"error": "step (d): the seeds act on the stars with order 1, not 7!"}
        assert [(rec["outcome"], rec["witness"]) for rec in report["checks"]] == [("fail", witness)] * 2

    def test_failed_search_runs_once(self, monkeypatch):
        # At n = 6 a failing seeded search is kept the same way.
        searches = count_calls(monkeypatch, automorphism_group)
        constant = property(lambda inst: [(0,) * inst.gbar.n])
        monkeypatch.setattr(cli.Instance, "gbar_points", constant)
        report = run_verify(RunConfig(n_min=6, n_max=6, checks=("aut", "theorem1")))
        assert len(searches) == 1
        witness = {"error": "known[0] is not an automorphism of the graph"}
        assert [(rec["outcome"], rec["witness"]) for rec in report["checks"]] == [("fail", witness)] * 2

    # `is_graph_automorphism` keeps its verdicts, so every point seed is walked
    # once per graph, however many of the orbits, the clique chain and the
    # searches check it.  A search also walks each leaf candidate, and the
    # generator it emits is checked again.  A walk is named by its graph's
    # vertex count.

    def test_suite_walks_each_seed_once(self, monkeypatch):
        # Per n = 4, 5, 6: Gbar's two seeds; Gamma5's and Gamma6's two.  Gbar4's
        # search walks a leaf and checks what it emits, as does Gamma6's.
        walks = count_walks(monkeypatch)
        report = run_verify(RunConfig())
        assert report["summary"] == {"pass": 35, "fail": 0, "skip": 4, "error": 0}
        assert sorted(walks) == [10, 10, 12, 12, 12, 12, 20, 20, 20, 20, 30, 30, 60, 60]

    def test_symmetry_run_checks_each_graphs_seeds_once(self, monkeypatch):
        # Per n: Gamma's two seeds for its orbits, and Gbar's two in the
        # clique chain, which induces Gamma's generators from them.
        walks = count_walks(monkeypatch)
        report = run_verify(GOLDEN["symmetry"])
        assert report["summary"] == {"pass": 8, "fail": 0, "skip": 0, "error": 0}
        assert sorted(walks) == [84, 84, 120, 120, 252, 252, 360, 360]

    def test_graph_run_edge_checks_each_gbar_seed_once(self, monkeypatch):
        # The hexagons' orbits, the census, the quotient and the chain's
        # step (d) all read one walk of each of Gbar8's two seeds.
        walks = count_walks(monkeypatch)
        checks = ("hexagons", "triangles", "gamma", "johnson", "aut", "theorem1")
        report = run_verify(RunConfig(n_min=8, n_max=8, checks=checks))
        assert report["summary"]["pass"] == 6
        assert sorted(walks) == [56, 56, 168, 168]

    def test_searches_edge_check_each_seed_once(self, monkeypatch):
        # Below the clique chain each graph's two seeds are walked once, for
        # its orbits and its search alike; Gamma6's search walks the leaf that
        # gives its complement map and checks that generator again.
        walks = count_walks(monkeypatch)
        checks = ("hexagons", "triangles", "gamma", "johnson", "aut", "theorem1")
        report = run_verify(RunConfig(n_min=6, n_max=6, checks=checks))
        assert report["summary"]["pass"] == 6
        assert sorted(walks) == [20, 20, 20, 20, 60, 60]

    def test_adjacency_sweep_shared_with_theorem2(self, monkeypatch):
        calls = count_calls(monkeypatch, adjacency_agreement)
        report = run_verify(RunConfig(n_min=5, n_max=5, checks=("adjacency", "theorem2")))
        assert report["summary"]["pass"] == 2
        assert len(calls) == 1

    def test_point_seeds_built_once_per_graph(self, monkeypatch):
        calls = count_calls(monkeypatch, induced_point_generators)
        report = run_verify(
            RunConfig(n_min=6, n_max=6, checks=("hexagons", "gamma", "aut", "theorem1"))
        )
        assert report["summary"]["pass"] == 4
        assert sorted(graph.n for graph, _ in calls) == [20, 60]  # Gamma6 and Gbar6

    def test_quotient_claims_certified_at_one_representative(self, monkeypatch):
        # Sym(10) is transitive on the 3-sets, so Gamma10 is one orbit: the
        # rook and distance-2 claims run once, and the census walks the
        # layers of vertex 0 alone.
        rook = count_calls(monkeypatch, cli.verify_rook_neighborhood)
        distance2 = count_calls(monkeypatch, cli.verify_distance2_property)
        layers = []
        walk = Graph.layers
        monkeypatch.setattr(Graph, "layers", lambda g, v: layers.append(v) or walk(g, v))
        report = run_verify(RunConfig(n_min=10, n_max=10, checks=("gamma", "johnson")))
        assert report["summary"]["pass"] == 2
        assert (len(rook), len(distance2), layers) == (1, 1, [0])

    def test_hexagons_certified_at_one_representative(self, monkeypatch):
        calls = count_calls(monkeypatch, cli.verify_hexagon_neighborhood)
        report = run_verify(RunConfig(n_min=4, n_max=7, checks=("hexagons",)))
        assert report["summary"]["pass"] == 4
        assert [args[1] for args in calls] == [0] * 4

    def test_common_neighbor_census_taken_once(self, monkeypatch):
        calls = count_calls(monkeypatch, find_triangles)
        report = run_verify(RunConfig(n_min=6, n_max=6, checks=("triangles", "gamma")))
        assert report["summary"]["pass"] == 2
        assert len(calls) == 1

    # One sweep serves both checks and builds the cut order's correlation
    # rows once; up to the adjacency cap the adjacency sweep that theorem2
    # also reads builds them once more.
    @pytest.mark.parametrize("n, row_lists", [(6, 2), (7, 1)])
    def test_bounded_family_swept_once(self, monkeypatch, n, row_lists):
        sweeps = count_calls(monkeypatch, hypermetric_sweep)
        calls = count_calls(monkeypatch, cut_correlations)
        report = run_verify(RunConfig(n_min=n, n_max=n, checks=("hypermetric", "theorem2")))
        assert report["summary"]["pass"] == 2
        assert (len(sweeps), len(calls)) == (1, row_lists)


class TestBoundedFamily:
    CONFIG = RunConfig(n_min=5, n_max=5, checks=("hypermetric", "theorem2"), hypermetric_bound=2)

    def test_wrong_closed_form_fails_only_hypermetric(self, monkeypatch):
        # theorem2 reads the zero cuts off the direct pair sums, so a wrong
        # closed form leaves its counts and verdict as they were.
        honest = run_verify(self.CONFIG)["checks"]
        right = cones._closed_forms
        monkeypatch.setattr(cones, "_closed_forms", lambda b, m: [v - 1 for v in right(b, m)])
        hypermetric, theorem2 = run_verify(self.CONFIG)["checks"]
        assert hypermetric["outcome"] == "fail"
        witness = hypermetric["witness"]
        assert witness["closed_form"] == witness["direct"] - 1
        assert theorem2["outcome"] == "pass"
        assert theorem2["details"] == honest[1]["details"]

    def test_adjacency_note_names_the_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "ADJACENCY_SWEEP_MAX_N", 5)
        report = run_verify(RunConfig(n_min=6, n_max=6, checks=("theorem2",)))
        (record,) = report["checks"]
        assert record["outcome"] == "pass"
        assert record["details"]["adjacency_note"] == "rank sweep covered for n<=5"


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

    def test_all_skipped_maps_to_2(self):
        report = {"summary": {"pass": 0, "fail": 0, "skip": 3, "error": 0}}
        assert exit_code(report) == 2

    def test_one_pass_among_skips_maps_to_0(self):
        report = {"summary": {"pass": 1, "fail": 0, "skip": 3, "error": 0}}
        assert exit_code(report) == 0


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

    def test_empty_check_list_exits_2(self, capsys):
        assert main(["verify", "--checks", ","]) == 2
        captured = capsys.readouterr()
        assert "no checks selected" in captured.err
        assert "summary" not in captured.out

    def test_all_skipped_run_exits_2(self, capsys):
        code = main(["verify", "--n-min", "5", "--n-max", "5", "--checks", "reflect4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "summary: 0 pass, 0 fail, 1 skip, 0 error" in captured.out
        assert "every selected check was skipped" in captured.err

    def test_partly_skipped_run_exits_0(self, capsys):
        code = main(["verify", "--n-min", "4", "--n-max", "5", "--checks", "reflect4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "1 pass, 0 fail, 1 skip" in captured.out
        assert captured.err == ""

    @pytest.fixture
    def off_census_complement(self, monkeypatch):
        """The complement at n=5 less one edge between different supports,
        which breaks the hexagons, the Triangle census and the point
        permutations' automorphism check."""
        gbar = build_complement(5)
        labels = gbar.labels
        u, w = next((u, w) for u, w in edges_reference(gbar) if labels[u].support != labels[w].support)
        adj = list(gbar.adj)
        adj[u] ^= 1 << w
        adj[w] ^= 1 << u
        monkeypatch.setattr("conesym.cli.build_complement", lambda n: Graph(adj, labels))

    def test_off_census_complement_fails_every_structural_check(self, off_census_complement, capsys):
        code = main(["verify", "--n-min", "5", "--n-max", "5", "--format", "json",
                     "--checks", "hexagons,triangles,gamma,johnson,aut,theorem1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(rec["outcome"], rec["details"]) for rec in report["checks"]] == [("fail", {})] * 6
        errors = {rec["check"]: rec["witness"]["error"] for rec in report["checks"]}
        assert errors["hexagons"].startswith("vertex ")
        for check in ("triangles", "gamma", "johnson"):
            assert "1 common neighbors" in errors[check]
        for check in ("aut", "theorem1"):
            assert errors[check] == "known[0] is not an automorphism of the graph"

    def test_label_without_preimage_fails_with_the_label(self, monkeypatch, capsys):
        # Label 0 replaced by label 1: the point permutations map some label
        # onto the lost one, which no vertex carries.
        gbar = build_complement(5)
        labels = list(gbar.labels)
        labels[0] = labels[1]
        monkeypatch.setattr(cli, "build_complement", lambda n: Graph(gbar.adj, labels))
        code = main(["verify", "--n-min", "5", "--n-max", "5", "--format", "json",
                     "--checks", "hexagons,aut,theorem1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        witness = {"error": "point permutation (2, 3, 4, 5, 1) maps TriangleFacet(1,5;2)"
                            " to TriangleFacet(1,2;3), not a label"}
        assert [(rec["outcome"], rec["details"], rec["witness"]) for rec in report["checks"]] == [
            ("fail", {}, witness)
        ] * 3

    @pytest.mark.parametrize("check", ["johnson", "theorem1"])
    def test_off_census_complement_fails_one_check_alone(self, off_census_complement, capsys, check):
        assert main(["verify", "--n-min", "5", "--n-max", "5", "--checks", check]) == 1

    def test_swapped_rays_fail_reflect4_with_the_message(self, monkeypatch, capsys):
        rays = list(reflections.ray_table())
        rays[0], rays[1] = rays[1], rays[0]
        monkeypatch.setattr(reflections, "_RAYS", tuple(rays))
        code = main(["verify", "--n-min", "4", "--n-max", "4", "--checks", "reflect4",
                     "--format", "json"])
        (rec,) = json.loads(capsys.readouterr().out)["checks"]
        assert code == 1
        assert rec["outcome"] == "fail"
        assert rec["witness"] == {"error": "reflection for rays (1, 3) does not permute the rays"}

    def test_off_normal_kernel_vector_fails_reflect4_with_the_message(self, monkeypatch, capsys):
        # The Gram test does not read alpha, so a wrong normal gets past it
        # and only the multiple-of-alpha check can catch it.
        kernel_vector = reflections.kernel_vector
        monkeypatch.setattr(
            reflections, "kernel_vector", lambda rays: (1, *kernel_vector(rays)[1:])
        )
        code = main(["verify", "--n-min", "4", "--n-max", "4", "--checks", "reflect4",
                     "--format", "json"])
        (rec,) = json.loads(capsys.readouterr().out)["checks"]
        assert code == 1
        assert rec["outcome"] == "fail"
        assert rec["witness"] == {
            "error": "reflection for rays (1, 3): r1 - r3 is not a multiple of the normal "
                     "(1, 1, -1, 1, -1, 0)"
        }

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("alphas", ((1, 0, 0, 0, 0, 0),) * 5, "kernel vector differs from the reference"),
            ("perm_order", 72, "reflection certificate failed"),
        ],
    )
    def test_changed_reflection_report_fails_reflect4(self, monkeypatch, capsys, field, value, reason):
        report = reflections.build_reflection_group()._replace(**{field: value})
        monkeypatch.setattr(cli, "build_reflection_group", lambda: report)
        code = main(["verify", "--n-min", "4", "--n-max", "4", "--checks", "reflect4",
                     "--format", "json"])
        (rec,) = json.loads(capsys.readouterr().out)["checks"]
        assert code == 1
        assert rec["outcome"] == "fail"
        assert rec["witness"] == {"reason": reason}

    def test_unbounded_hypermetric_bound_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["verify", "--hypermetric-bound", "1000"]) == 2
        assert time.perf_counter() - start < 1
        assert "hypermetric bound" in capsys.readouterr().err

    def test_unwritable_export_exits_2_but_checks_run(self, capsys):
        code = main(
            ["verify", "--n-min", "4", "--n-max", "4", "--checks", "cuts",
             "--export", "/proc/definitely-not-writable"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "export error" in captured.err
        assert "cuts" in captured.out  # verification itself still reported


class TestCutsCheck:
    def run_cuts(self, monkeypatch, n, mutate):
        """The cuts check at n on mutated star columns."""
        monkeypatch.setattr(cli, "cut_stars", lambda n: mutate(cut_stars(n)))
        return cli._check_cuts(cli.Instance(n, AUT_VERTEX_CAP, 3), RunConfig(n_min=n, n_max=n))

    def test_zeroed_star_column_fails_the_count(self, monkeypatch):
        # Without point 2's star, cuts {1} and {1, 2} read the same.
        def zero(stars):
            stars[1] = 0
            return stars

        outcome, details, witness = self.run_cuts(monkeypatch, 5, zero)
        assert outcome == "fail"
        assert witness == {"reason": "wrong cut count or duplicates"}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_swapped_stars_fail_the_count(self, monkeypatch, n):
        # The cuts stay distinct and their set stays the same, but they no
        # longer come in the cut order.
        def swap(stars):
            stars[0], stars[1] = stars[1], stars[0]
            return stars

        outcome, details, witness = self.run_cuts(monkeypatch, n, swap)
        assert outcome == "fail"
        assert details["cut_count"] == details["expected"]
        assert witness == {"reason": "wrong cut count or duplicates"}

    def test_star_of_the_last_point_fails_the_count(self, monkeypatch):
        # Point n is in no generating set.
        def last(stars):
            stars[-1] = stars[0]
            return stars

        outcome, details, witness = self.run_cuts(monkeypatch, 5, last)
        assert outcome == "fail"
        assert witness == {"reason": "wrong cut count or duplicates"}

    @pytest.mark.parametrize("n", range(4, 13))
    def test_stars_from_the_definition_match_the_string_pattern(self, n):
        assert [cli._cut_order_star(n, p) for p in range(1, n)] == [
            cut_order_star_reference(n, p) for p in range(1, n)
        ]

    def test_missing_reference_ray_fails_n4(self, monkeypatch):
        rays = cli.ray_table()
        monkeypatch.setattr(cli, "ray_table", lambda: rays[:-1])
        outcome, details, witness = self.run_cuts(monkeypatch, 4, lambda stars: stars)
        assert outcome == "fail"
        assert details["ray_table_match"] is False
        assert witness == {"reason": "cut set differs from the reference rays"}


class TestFacetsCheck:
    def test_builds_no_incidence_masks(self, monkeypatch):
        calls = count_calls(monkeypatch, _facet_incidence_masks)
        start = time.perf_counter()
        report = run_verify(RunConfig(n_min=24, n_max=24, checks=("facets",)))
        elapsed = time.perf_counter() - start
        assert report["checks"][0]["outcome"] == "pass"
        assert report["checks"][0]["details"]["facet_count"] == 3 * 2024
        assert calls == []
        assert elapsed < 1.0

    def test_n60_checked_in_under_a_second(self, monkeypatch):
        # Each facet is read by its three entries, not by a dense vector
        # over all C(n, 2) pairs.  The facets are built before the clock starts.
        facets = enumerate_triangle_facets(60)
        monkeypatch.setattr(cli, "enumerate_triangle_facets", lambda n: facets)
        start = time.perf_counter()
        outcome, details, witness = cli._check_facets(
            cli.Instance(60, AUT_VERTEX_CAP, 3), RunConfig(n_min=60, n_max=60)
        )
        assert time.perf_counter() - start < 1.0
        assert (outcome, witness) == ("pass", None)
        assert details["facet_count"] == 3 * 34220


class TestIncidenceCheck:
    def test_one_facet_per_n(self, monkeypatch):
        calls = count_calls(monkeypatch, _facet_incidence_masks)
        report = run_verify(RunConfig(n_min=4, n_max=8, checks=("incidence",)))
        assert report["summary"]["pass"] == 5
        assert [f for f, _ in calls] == [enumerate_triangle_facets(n)[0] for n in range(4, 9)]

    def test_reads_neither_the_stars_nor_the_facet_list(self, monkeypatch):
        # The count rests on the cut order's definition and the orbit
        # argument alone, not on what `cuts` and `facets` certify.
        cfg = RunConfig(n_min=4, n_max=8, checks=("incidence",))
        expected = [rec["details"] for rec in run_verify(cfg)["checks"]]

        def refuse(n):
            raise RuntimeError("read by incidence")

        monkeypatch.setattr(cli, "cut_stars", refuse)
        monkeypatch.setattr(cli, "enumerate_triangle_facets", refuse)
        report = run_verify(cfg)
        assert report["summary"]["pass"] == 5
        assert [rec["details"] for rec in report["checks"]] == expected
        assert expected[0] == {"facets": 12, "cuts_per_facet": 5}

    def test_moved_count_fails_at_the_first_facet(self, monkeypatch):
        # Clearing bit 3, the cut {3}, from point 3's star leaves that cut
        # cutting no pair through 3, so it moves onto the counted facet,
        # (1, 2; 3), and the count there rises by one.
        star = cli._cut_order_star
        monkeypatch.setattr(
            cli, "_cut_order_star", lambda n, p: star(n, p) & ~(1 << 3) if p == 3 else star(n, p)
        )
        n, expected = 5, triangle_incidence_bound(5)
        outcome, details, witness = cli._check_incidence(
            cli.Instance(n, AUT_VERTEX_CAP, 3), RunConfig(n_min=n, n_max=n)
        )
        assert cut_members(n)[3] == [3]
        assert outcome == "fail"
        assert witness == {"facet": "TriangleFacet(1,2;3)", "count": expected + 1, "expected": expected}


class TestIncidenceCap:
    def test_masks_skipped_above_the_cap(self, monkeypatch, capsys):
        calls = count_calls(monkeypatch, cut_stars)
        n = cli.INCIDENCE_MAX_N + 1
        code = main(["verify", "--n-min", str(n), "--n-max", str(n), "--checks", "cuts,incidence",
                     "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert [(rec["outcome"], rec["details"]) for rec in report["checks"]] == [
            ("skip", {"reason": f"incidence masks capped at n={cli.INCIDENCE_MAX_N}"})
        ] * 2
        assert calls == []

    def test_largest_n_under_the_cap_fits_in_100_mib(self):
        # The n star columns of 2^(n-1) bits and the one star `cuts`
        # compares at a time set the peak: about 60 MiB at n = 24, where the
        # C(n, 2) pair columns took about 30 MiB at n = 20, four n lower.
        n = cli.INCIDENCE_MAX_N
        code = (
            "import json, resource\n"
            "from conesym.cli import RunConfig, run_verify\n"
            f"report = run_verify(RunConfig(n_min={n}, n_max={n}, checks=('cuts', 'facets', 'incidence')))\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
            "print(json.dumps([report['summary'], peak]))"
        )
        summary, peak_mib = json.loads(run_python(code))
        assert summary == {"pass": 3, "fail": 0, "skip": 0, "error": 0}
        assert peak_mib < 100


class TestEntrypoint:
    @pytest.mark.parametrize(
        "argv, code",
        [(["--n-min", "4", "--n-max", "4", "--checks", "cuts"], 0),
         (["--n-min", "5", "--n-max", "5", "--checks", "reflect4"], 2)],
    )
    def test_exit_status(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["conesym", "verify", *argv])
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint()
        assert exit_.value.code == code
        assert "summary:" in capsys.readouterr().out


GRAPH_CHECKS = ("hexagons", "triangles", "gamma", "johnson", "aut", "theorem1")


def far_toggled_complement(n: int) -> Graph:
    """Gbar_n less its last edge between two Triangles, whose ends are both
    away from vertex 0 and its neighbours."""
    gbar = build_complement(n)
    near = gbar.adj[0] | 1
    labels = gbar.labels
    u, w = [(u, w) for u, w in edges_reference(gbar)
            if labels[u].support != labels[w].support and not near >> u & 1 and not near >> w & 1][-1]
    return toggled(gbar, u, w)


class TestGraphLayerShortcut:
    """The graph layer certifies at the orbit representatives of the seeds
    that pass their edge check; a graph the seeds do not keep is certified at
    every vertex."""

    def test_edge_toggled_far_from_vertex_0_fails(self, monkeypatch):
        far = far_toggled_complement(7)
        # Vertex 0 alone would not see it: the census and the quotient row of
        # its Triangle pass there.
        triangles = find_triangles(far, [0])
        build_triangle_graph(far, triangles, [0])
        monkeypatch.setattr(cli, "build_complement", lambda n: far)
        inst = cli.Instance(7, AUT_VERTEX_CAP, RunConfig().hypermetric_bound)
        # The transposition (1 2) keeps the edge, whose supports miss both
        # points; the n-cycle does not, and the transposition's orbits have
        # at most two vertices.
        assert [is_graph_automorphism(inst.gbar, g) for g in inst.gbar_points] == [True, False]
        assert len(inst.gbar_orbits) > far.n // 2
        report = run_verify(RunConfig(n_min=7, n_max=7, checks=GRAPH_CHECKS))
        assert [rec["outcome"] for rec in report["checks"]] == ["fail"] * 6
        census = report["checks"][1]["witness"]["error"]
        assert census.endswith("common neighbors, expected 5 or 2")

    def test_non_automorphism_seed_takes_no_shortcut(self, monkeypatch):
        # A cycle through every vertex would leave vertex 0 alone as the
        # representative; it fails its edge check, so every vertex is
        # certified and the far edge is found.
        far = far_toggled_complement(7)
        cycle = (*range(1, far.n), 0)
        monkeypatch.setattr(cli, "build_complement", lambda n: far)
        monkeypatch.setattr(cli.Instance, "gbar_points", property(lambda inst: [cycle]))
        report = run_verify(RunConfig(n_min=7, n_max=7, checks=("hexagons", "triangles")))
        assert [rec["outcome"] for rec in report["checks"]] == ["fail", "fail"]
        assert report["checks"][1]["witness"]["error"].endswith("common neighbors, expected 5 or 2")

    def test_failing_seed_fails_step_d_as_a_direct_call_does(self, monkeypatch):
        # On the intact Gbar8 a seed that is no automorphism is dropped from
        # the orbits, so the census and the quotient certify at the 7-cycle's
        # orbits, and the chain names the seed as it does when it checks.
        gbar = build_complement(8)
        good = induced_point_generators(gbar, 8)
        bad = (1, 0, *range(2, gbar.n))  # two facets of one support swapped
        monkeypatch.setattr(cli.Instance, "gbar_points", property(lambda inst: [bad, good[1]]))
        inst = cli.Instance(8, AUT_VERTEX_CAP, RunConfig().hypermetric_bound)
        assert [is_graph_automorphism(inst.gbar, g) for g in inst.gbar_points] == [False, True]
        assert len(inst.gbar_orbits) > 1
        with pytest.raises(StructureError) as direct:
            clique_chain_groups(gbar, inst.triangles, inst.gamma, [bad, good[1]], 8, inst.gamma_orbits)
        assert str(direct.value).startswith("step (d): seed 0 does not keep Gbar's edges at vertex ")
        report = run_verify(RunConfig(n_min=8, n_max=8, checks=("triangles", "gamma", "aut")))
        assert [rec["outcome"] for rec in report["checks"]] == ["pass", "pass", "fail"]
        assert report["checks"][2]["witness"] == {"error": str(direct.value)}


class TestGammaCheck:
    def test_relabelled_gamma6_fails_the_antipodal_pairing(self):
        # Swapping two labels keeps the census, but the vertex at distance 3
        # from vertex 0 no longer carries the complement of its label.
        inst = cli.Instance(6, AUT_VERTEX_CAP, RunConfig().hypermetric_bound)
        labels = list(inst.gamma.labels)
        labels[0], labels[1] = labels[1], labels[0]
        inst.gamma = Graph(inst.gamma.adj, labels)
        outcome, details, witness = cli._check_gamma(inst, RunConfig(n_min=6, n_max=6))
        assert outcome == "fail"
        assert details["diameter"] == 3
        assert witness == {"vertex": 0, "reason": "antipodal pairing failed"}

    @staticmethod
    def mutated(n, mutate):
        """The instance at n with Gamma replaced by mutate(gamma)."""
        inst = cli.Instance(n, AUT_VERTEX_CAP, RunConfig().hypermetric_bound)
        inst.gamma = mutate(inst.gamma)
        return inst

    def test_toggled_edge_drops_the_generators_and_keeps_the_witnesses(self):
        # Neither the transposition (1 2) nor the 6-cycle maps this edge onto itself.
        edge = (frozenset({1, 3, 4}), frozenset({1, 3, 5}))
        inst = self.mutated(6, lambda gamma: toggled(gamma, *map(gamma.labels.index, edge)))
        assert inst.gamma_orbits == list(range(20))
        cfg = RunConfig(n_min=6, n_max=6)
        assert cli._check_gamma(inst, cfg) == (
            "fail", {"vertices": 20, "degree": 9}, {"reason": "not regular of degree 3(n-3)"}
        )
        assert cli._check_johnson(inst, cfg) == (
            "fail", {"vertices": 20}, {"reason": "label map is not an isomorphism"}
        )
        census = r"^not distance-regular: b_1 differs at pair \(1, 4\)$"
        with pytest.raises(StructureError, match=census):
            intersection_array(inst.gamma, inst.gamma_orbits)

    def test_point_invariant_edges_keep_the_generators_and_fail_at_vertex_0(self):
        inst = self.mutated(7, with_one_point_meetings)
        assert inst.gamma_orbits == [0]
        assert cli._check_johnson(inst, RunConfig(n_min=7, n_max=7)) == (
            "fail", {"vertices": 35}, {"reason": "label map is not an isomorphism"}
        )
        assert not verify_johnson_isomorphism(inst.gamma, 7, [0])
        assert not verify_rook_neighborhood(inst.gamma, 0)


class TestExport:
    def test_interrupted_reexport_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        argv = ["verify", "--n-min", "4", "--n-max", "5", "--checks", "cuts",
                "--export", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "manifest.json").exists()
        # Every file is written through Path.open, the edge lists streamed.
        open_ = Path.open
        writes = []

        def fail_on_the_fourth(path, mode="r", *args, **kwargs):
            if "w" in mode:
                writes.append(path.name)
                if len(writes) == 4:
                    raise OSError("disk full")
            return open_(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", fail_on_the_fourth)
        assert main(argv) == 2
        assert "disk full" in capsys.readouterr().err
        # Three graph files were rewritten before the failure, beside the
        # earlier export's others; no manifest may vouch for the mixture.
        assert writes[:3] == ["ridge_n4.g6", "ridge_n4.edges", "ridge_n4.labels"]
        assert not (tmp_path / "manifest.json").exists()

    def test_manifest_moves_into_place(self, tmp_path, monkeypatch):
        written = []
        replace = os.replace
        monkeypatch.setattr(
            "conesym.cli.os.replace",
            lambda src, dst: written.append(Path(dst).name) or replace(src, dst),
        )
        export_graphs(RunConfig(n_min=5, n_max=5, export_dir=str(tmp_path)))
        assert written == ["manifest.json"]
        assert sorted(p.name for p in tmp_path.iterdir() if "manifest" in p.name) == [
            "manifest.json"
        ]

    def test_n4_7_files_match_recorded_digests(self, tmp_path):
        export_graphs(RunConfig(n_min=4, n_max=7, export_dir=str(tmp_path)))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == json.loads((DATA / "export_n4_7.json").read_text())

    def test_n5_exports_three_graphs_and_manifest(self, tmp_path):
        cfg = RunConfig(n_min=5, n_max=5, export_dir=str(tmp_path))
        manifest = export_graphs(cfg)
        assert {f["graph"] for f in manifest["files"]} == {"ridge", "complement", "gamma"}
        assert (tmp_path / "manifest.json").exists()
        for entry in manifest["files"]:
            for key in ("graph6", "edge_list", "labels"):
                assert (tmp_path / entry[key]).exists()

    def test_edge_free_graph_gets_one_empty_line(self, tmp_path, monkeypatch):
        # The edge lists are streamed; a graph with no edge still ends in one newline.
        gbar = build_complement(4)
        monkeypatch.setattr(cli, "build_complement", lambda n: Graph([0] * gbar.n, gbar.labels))
        export_graphs(RunConfig(n_min=4, n_max=4, export_dir=str(tmp_path)))
        assert (tmp_path / "complement_n4.edges").read_text() == "\n"
        ridge = (tmp_path / "ridge_n4.edges").read_text().splitlines()
        assert ridge[:2] == ["0 1", "0 2"] and len(ridge) == 12 * 11 // 2

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
