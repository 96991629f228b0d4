"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Runtime budgets are asserted where the criterion states one.
"""

import time
from fractions import Fraction
from math import comb, factorial

from conesym.autgrp import automorphism_group, verify_theorem1
from conesym.cli import RunConfig, run_verify
from conesym.cones import adjacency_agreement, hypermetric_sweep, triangle_incidence_bound
from conesym.core import cut_members, cut_stars, enumerate_triangle_facets
from conesym.cones import _facet_incidence_masks
from conesym.reflections import (
    attempt_ray_swap,
    build_reflection_group,
    kernel_vector,
    ray_table,
)
from conesym.ridge import (
    build_complement,
    build_triangle_graph,
    find_triangles,
    verify_hexagon_neighborhood,
    verify_johnson_isomorphism,
)

from graph_strategies import networkx_distances
from references import (
    build_ridge_graph_reference,
    cut_bits_reference,
    mat_vec_reference,
    reflection_reference,
    sweep_ok_reference,
    switching_reflection_reference,
)
from test_cli import count_calls
from test_ridge import verify_hexagon_neighborhood_reference


def record(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_automorphism_orders_n5_to_n8():
    start = time.perf_counter()
    orders = {}
    for n in (5, 6, 7, 8):
        report = verify_theorem1(n)
        orders[n] = (report.group.order, report.group.seed_order)
        assert report.passed, f"n={n}: {report}"
    elapsed = time.perf_counter() - start
    expected = {5: 120, 6: 720, 7: 5040, 8: 40320}
    ok = all(orders[n] == (expected[n], expected[n]) for n in expected)
    ok = ok and all(expected[n] == factorial(n) for n in expected)
    record(
        1,
        ok and elapsed < 120.0,
        f"orders {', '.join(f'n={n}:{orders[n][0]}' for n in sorted(orders))}; {elapsed:.1f}s < 120s",
    )


def test_criterion_2_n4_reflection_group():
    start = time.perf_counter()
    aut_order = automorphism_group(build_ridge_graph_reference(4)).order
    report = build_reflection_group()
    elapsed = time.perf_counter() - start
    ok = (
        aut_order == 144
        and report.perm_order == 144
        and report.orbit4_order == 24
        and report.orbit3_order == 6
        and elapsed < 1.0
    )
    record(
        2,
        ok,
        f"aut={aut_order}, ray action={report.perm_order}, "
        f"product action {report.orbit4_order}x{report.orbit3_order}; {elapsed:.2f}s < 1s",
    )


def test_criterion_3_incidence_counts_n4_to_n8():
    expected = {4: 5, 5: 11, 6: 23, 7: 47, 8: 95}
    checked = 0
    for n, count in expected.items():
        assert triangle_incidence_bound(n) == count
        facets, stars = enumerate_triangle_facets(n), cut_stars(n)
        assert len(facets) == 3 * comb(n, 3)
        for f in facets:
            assert 2 ** (n - 1) - 1 - _facet_incidence_masks(f, stars).bit_count() == count
            checked += 1
    record(3, True, f"{checked} facets across n=4..8, counts 5/11/23/47/95 exact")


def test_criterion_4_adjacency_oracle_agreement():
    start = time.perf_counter()
    total5, mismatches5 = adjacency_agreement(5)
    total6, mismatches6 = adjacency_agreement(6)
    elapsed = time.perf_counter() - start
    ok = (
        total5 == 435
        and total6 == 1770
        and not mismatches5
        and not mismatches6
        and elapsed < 30.0
    )
    record(4, ok, f"435 + 1770 pairs, 0 mismatches; {elapsed:.1f}s < 30s")


def test_criterion_5_structure_suite_n5_to_n8():
    for n in (5, 6, 7, 8):
        gbar = build_complement(n)
        for u in range(gbar.n):
            verify_hexagon_neighborhood(gbar, u)
            assert len(verify_hexagon_neighborhood_reference(gbar, u)) == n - 3
        triangles = find_triangles(gbar)
        triangle_edges = set()
        for t in triangles:
            a, b, c = t.vertices
            triangle_edges |= {(a, b), (a, c), (b, c)}
        for a, b in gbar.edges():
            expected = n - 2 if (a, b) in triangle_edges else 2
            assert (gbar.adj[a] & gbar.adj[b]).bit_count() == expected
        gamma = build_triangle_graph(gbar, triangles)  # raises unless counts are 0 or 4
        assert verify_johnson_isomorphism(gamma, n, range(gamma.n))
        if n == 5:
            assert gamma.n == 10
            assert all(gamma.degree(v) == 6 for v in range(10))
            duals = [frozenset(set(range(1, 6)) - s) for s in gamma.labels]
            for a in range(10):
                for b in range(a + 1, 10):
                    assert gamma.has_edge(a, b) == (len(duals[a] & duals[b]) == 1)
    record(5, True, "hexagons, Triangle census, cross-edges, Johnson map, Petersen complement")


def test_criterion_6_n6_exception():
    gbar6 = build_complement(6)
    gamma6 = build_triangle_graph(gbar6)
    aut_gamma = automorphism_group(gamma6).order
    aut_gbar = automorphism_group(gbar6).order
    antipodal = True
    for v in range(gamma6.n):
        dist = networkx_distances(gamma6, v)
        far = [w for w in range(gamma6.n) if dist[w] == 3]
        if len(far) != 1 or gamma6.labels[far[0]] != frozenset(range(1, 7)) - gamma6.labels[v]:
            antipodal = False
    ok = aut_gamma == 1440 and aut_gbar == 720 and antipodal
    record(6, ok, f"|Aut(quotient)|={aut_gamma}, |Aut(complement)|={aut_gbar}, antipodal pairing ok")


def test_criterion_7_kernel_and_swap_fidelity():
    rays = ray_table()
    others = [rays[k] for k in (0, 1, 2, 5, 6)]  # r1, r2, r3, r6, r7
    alpha = kernel_vector(others)
    kernel_ok = alpha in ((0, -1, 1, 1, -1, 0), (0, 1, -1, -1, 1, 0))
    _, perm = attempt_ray_swap(4, 5)
    m = reflection_reference(alpha)
    swap_ok = (
        perm == (0, 1, 2, 4, 3, 5, 6)
        and mat_vec_reference(m, rays[3]) == tuple(map(Fraction, rays[4]))
        and all(
            mat_vec_reference(m, rays[k]) == tuple(map(Fraction, rays[k])) for k in (0, 1, 2, 5, 6)
        )
    )
    record(7, kernel_ok and swap_ok, f"kernel {alpha}, reflection swaps rays 4 and 5 fixing the rest")


def test_criterion_8_hypermetric_suite_up_to_n7():
    start = time.perf_counter()
    vectors = 0
    for n in range(3, 8):
        sweep = hypermetric_sweep(n, 3)
        assert sweep_ok_reference(sweep), f"n={n}: {sweep}"
        vectors += sweep.vector_count
    elapsed = time.perf_counter() - start
    record(
        8,
        elapsed < 60.0,
        f"{vectors} coefficient vectors over n=3..7, direct sum == closed form <= 0, "
        f"triangles the unique cut-count maximizers; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_9_switching_identity_exhaustive():
    checked = 0
    for n in (4, 5, 6):
        subsets = [
            {p + 1 for p in range(n) if (m >> p) & 1} for m in range(1 << n)
        ]
        for s in subsets:
            for t in subsets:
                got = switching_reflection_reference(s, cut_bits_reference(t, n))
                assert got == cut_bits_reference(s ^ t, n)
                checked += 1
    record(9, True, f"{checked} subset pairs over n=4..6, exact")


def test_criterion_10_cut_incidence_from_the_cut_order(monkeypatch):
    checks = ("cuts", "facets", "incidence")
    start = time.perf_counter()
    report = run_verify(RunConfig(n_min=16, n_max=16, checks=checks))
    elapsed = time.perf_counter() - start
    calls = count_calls(monkeypatch, cut_members)
    small = run_verify(RunConfig(n_min=5, n_max=7, checks=checks))
    ok = (
        report["summary"]["pass"] == 3
        and small["summary"]["pass"] == 9
        and not calls
        and elapsed < 1.0
    )
    record(
        10,
        ok,
        f"cuts, facets and incidence pass at n=16 in {elapsed:.2f}s < 1s; "
        f"the cut order listed {len(calls)} times for them at n=5..7",
    )
