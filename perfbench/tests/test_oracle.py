import copy
import itertools

import pytest

from conesym.cli import RunConfig, run_verify
from oracle import check_report, hypermetric_vector_count, johnson_intersection_array
from workloads import ALL_CHECKS

# n = 4 and n = 5 together take every check through a pass and every
# structural skip.
CONFIG = {"n_min": 4, "n_max": 5, "checks": list(ALL_CHECKS), "hypermetric_bound": 2,
          "aut_vertex_cap": 300}


@pytest.fixture(scope="module")
def report():
    return run_verify(RunConfig(**{**CONFIG, "checks": tuple(CONFIG["checks"])}))


def record(report, check, n):
    return next(r for r in report["checks"] if (r["check"], r["n"]) == (check, n))


def test_accepts_the_real_report(report):
    assert check_report(report, CONFIG) == (2 * len(ALL_CHECKS), [])


def test_flags_a_changed_aut_order(report):
    bad = copy.deepcopy(report)
    record(bad, "aut", 5)["details"]["aut_complement"] = 240
    attempted, failures = check_report(bad, CONFIG)
    assert attempted == 2 * len(ALL_CHECKS)
    assert failures == ["aut n=5: aut_complement=240, expected 120"]


def test_flags_a_pass_turned_into_a_skip(report):
    bad = copy.deepcopy(report)
    rec = record(bad, "adjacency", 5)
    rec["outcome"], rec["details"] = "skip", {"reason": "over budget"}
    assert check_report(bad, CONFIG)[1] == ["adjacency n=5: outcome 'skip', expected 'pass'"]


def test_flags_a_missing_record(report):
    bad = copy.deepcopy(report)
    bad["checks"].remove(record(bad, "theorem1", 4))
    assert check_report(bad, CONFIG) == (2 * len(ALL_CHECKS), ["theorem1 n=4: missing record"])


def test_flags_unexpected_and_duplicate_records(report):
    bad = copy.deepcopy(report)
    bad["checks"] += [record(bad, "cuts", 4), {**record(bad, "cuts", 5), "n": 6}]
    attempted, failures = check_report(bad, CONFIG)
    assert attempted == 2 * len(ALL_CHECKS) + 2
    assert failures == ["cuts n=4: duplicate record", "cuts n=6: unexpected record"]


@pytest.mark.parametrize("n,bound", [(4, 1), (4, 3), (5, 2), (6, 2)])
def test_vector_count_matches_brute_force(n, bound):
    brute = sum(1 for b in itertools.product(range(-bound, bound + 1), repeat=n) if sum(b) == 1)
    assert hypermetric_vector_count(n, bound) == brute


def test_johnson_intersection_arrays():
    assert johnson_intersection_array(5) == "{6,2; 1,4}"
    assert johnson_intersection_array(6) == "{9,4,1; 1,4,9}"
    assert johnson_intersection_array(12) == "{27,16,7; 1,4,9}"
