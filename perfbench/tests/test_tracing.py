from conesym import cli
from tracing import Tracer, leftover_wrappers, namespaces
CONFIG = cli.RunConfig(n_min=4, n_max=5, hypermetric_bound=2)


def strip_seconds(report):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in report["checks"]]


def test_self_time_of_a_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer("synthetic", clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert summary["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    parents = {name: parent for _, parent, name, _, _ in tracer.spans}
    assert parents == {"inner": 0, "outer": None}


def test_every_wrapper_is_removed_after_a_traced_run():
    before = [dict(ns) for ns in namespaces()]
    untraced = cli.run_verify(CONFIG)
    tracer = Tracer("test")
    tracer.install()
    try:
        assert "conesym.cli._check_cuts" in leftover_wrappers()
        assert "conesym.autgrp.build_complement" in leftover_wrappers()
        traced = cli.run_verify(CONFIG)
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    for ns, snapshot in zip(namespaces(), before):
        assert all(ns[key] is value for key, value in snapshot.items())
    assert strip_seconds(traced) == strip_seconds(untraced)


def test_traced_run_counts_work_at_the_boundaries():
    tracer = Tracer("test")
    tracer.install()
    try:
        cli.run_verify(cli.RunConfig(n_min=4, n_max=4, checks=("adjacency", "aut")))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # 66 facet pairs at n = 4, one rank call each.
    assert summary["cones.adjacency_agreement"]["pairs"] == 66
    assert summary["cones.integer_rank"]["calls"] == 66
    assert summary["ridge.conflicting"]["calls"] == 66
    assert summary["autgrp.automorphism_group"]["vertices"] == 12
    assert summary["cli.check.adjacency"]["calls"] == 1
