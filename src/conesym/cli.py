"""Command-line driver: runs the certification suite over a range of sizes
and optionally exports the graphs.

Reports are deterministic for a fixed configuration (byte-identical JSON
apart from the timing fields).  Exit status: 0 when every executed check
passes, 1 on any falsification, 2 on configuration, resource, or export
errors, and 2 when every selected check was skipped, since such a run
certifies nothing.  A falsified structural claim raises `StructureError`,
which `run_verify` records as the check's `fail` with the message as witness.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import cached_property
from math import comb, factorial
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .autgrp import (
    AUT_VERTEX_CAP,
    CLIQUE_CHAIN_MIN_N,
    ResourceLimitError,
    automorphism_group,
    certify_theorem1,
    clique_chain_groups,
    induced_point_generators,
    orbit_representatives,
)
from .cones import (
    _facet_incidence_masks,
    adjacency_agreement,
    hypermetric_sweep,
    triangle_incidence_bound,
)
from .core import TriangleFacet, cut_stars, enumerate_triangle_facets, pair_list
from .reflections import build_reflection_group, ray_table
from .ridge import (
    StructureError,
    build_complement,
    build_triangle_graph,
    edge_list_lines,
    find_triangles,
    intersection_array,
    label_lines,
    to_graph6,
    verify_distance2_property,
    verify_hexagon_neighborhood,
    verify_johnson_isomorphism,
    verify_rook_neighborhood,
)

SCHEMA_VERSION = 1

# The exhaustive rank sweep ranks all C(3*C(n,3), 2) facet pairs, about
# 0.1 s at n=6 and 0.5 s at n=7 on a 2-core host; the bounded sweep grows
# like (orbit representatives) x 2^(n-1).  `cuts` reads n star columns of
# 2^(n-1) bits and `incidence` three, so their cap bounds that time (about
# 0.1 s at n=24) and memory (about 60 MiB peak RSS there), which double
# with each n.
# Raising a cap turns recorded skips into passes (tests/data), so
# the caps stay until that is intended.  The bounded family has about
# C(2b + n, n) sorted representatives at bound b, so larger bounds are
# refused: on that host b = 8 takes 1 s at n = 7, and b = 16 3.3 s at n = 6.
# The graph checks and `facets` have no skip rule.  With the graph layer certified
# at one vertex orbit, `--checks hexagons,triangles,gamma,johnson,aut,theorem1`
# took 8.5-9.5 s and 219 MiB at n=40 in a fresh interpreter on that host, within a
# budget of 10 s and 350 MiB, so n_max is refused above MAX_N, the largest n measured
# within it (time grows about as n^6.5); that also bounds the number of records.
# Export holds one n's graphs at a time, which grow about as V^2, and streams each
# edge list row by row: 6.2 s and 38 MiB at n=20, for 55 MiB of files, so export is
# refused above EXPORT_MAX_N, the largest n it was measured at.
ADJACENCY_SWEEP_MAX_N = 6
HYPERMETRIC_SWEEP_MAX_N = 7
INCIDENCE_MAX_N = 24
HYPERMETRIC_BOUND_MAX = 8
MAX_N = 40
EXPORT_MAX_N = 20


class ConfigError(ValueError):
    pass


class _once(cached_property):
    """A cached_property that keeps an exception its function raises too
    and raises it again on every later read, so a failing build runs once."""

    def __get__(self, inst, owner=None):
        if inst is None:
            return self
        failures = inst.__dict__.setdefault("_failures", {})
        if self.attrname in failures:
            raise failures[self.attrname]
        try:
            return super().__get__(inst, owner)
        except Exception as exc:
            failures[self.attrname] = exc
            raise


class Instance:
    """The objects the checks at one n share, each built on first use and
    at most once, a build that raises included: later reads raise its
    error again.  `run_verify` keeps one per n and drops it before the
    next, so memory peaks at the largest single n.

    The point permutations act on Gbar and on Gamma by relabelling their
    vertices (`induced_point_generators`).  Below CLIQUE_CHAIN_MIN_N they
    seed the searches for `aut_gbar` and `aut_gamma` alike.  From there on
    Gbar's seed the clique chain (`clique_chain_groups`), which needs no
    search and no vertex cap and gives both groups, Gamma's generators being
    the Triangle permutations that Gbar's induce.  Either way the seeds are
    unfiltered, so a point permutation that is not an automorphism of Gbar
    fails `aut` and `theorem1`, which only judges `aut_gbar`
    (`certify_theorem1`).  The ones that pass the edge check give the orbit
    representatives at which the per-vertex claims are certified:
    each claim is built from the graph and from intersections, differences,
    complements and supports of labels, which a point permutation carries
    along, so it holds at a vertex exactly when it holds on the vertex's
    whole orbit (`orbit_representatives`).

    The graph layer is certified at Gbar's representatives too: the census,
    the quotient's cross edges and the chain's spans read adjacency alone,
    so an edge-checked point seed carries each claim at edge uv to edge
    sigma(u)sigma(v), and every edge is the image of one at a representative
    (`find_triangles`, `build_triangle_graph`, `clique_chain_groups`).  The
    orbits, the chain's step (d) and the searches each check their seeds
    themselves; `is_graph_automorphism` keeps its verdict per graph and
    seed, so each seed's edges are walked once.  A seed that fails is
    dropped from the orbits, so a graph the seeds do not keep, as after a
    mutation, is certified at the passing seeds' orbits, every vertex when
    none passes, and never by a failing seed's shortcut."""

    def __init__(self, n: int, vertex_cap: int, bound: int):
        # bound is the coefficient bound of the bounded family.
        self.n, self.vertex_cap, self.bound = n, vertex_cap, bound

    gbar = _once(lambda self: build_complement(self.n))
    triangles = _once(lambda self: find_triangles(self.gbar, self.gbar_orbits))
    gamma = _once(lambda self: build_triangle_graph(self.gbar, self.triangles, self.gbar_orbits))
    gbar_points = _once(lambda self: induced_point_generators(self.gbar, self.n))
    gamma_points = _once(lambda self: induced_point_generators(self.gamma, self.n))
    gbar_orbits = _once(lambda self: orbit_representatives(self.gbar, self.gbar_points))
    gamma_orbits = _once(lambda self: orbit_representatives(self.gamma, self.gamma_points))
    clique_chain = _once(
        lambda self: clique_chain_groups(
            self.gbar, self.triangles, self.gamma, self.gbar_points, self.n, self.gamma_orbits
        )
    )
    aut_gbar = _once(
        lambda self: self.clique_chain[0]
        if self.n >= CLIQUE_CHAIN_MIN_N
        else automorphism_group(self.gbar, self.vertex_cap, self.gbar_points)
    )
    aut_gamma = _once(
        lambda self: self.clique_chain[1]
        if self.n >= CLIQUE_CHAIN_MIN_N
        else automorphism_group(self.gamma, self.vertex_cap, self.gamma_points)
    )
    theorem1 = _once(lambda self: certify_theorem1(self.aut_gbar, self.n))
    adjacency = _once(lambda self: adjacency_agreement(self.n))
    sweep = _once(lambda self: hypermetric_sweep(self.n, self.bound))


# --- check runners ---------------------------------------------------------
# Each runner returns (outcome, details, witness); outcome is one of
# "pass", "fail", "skip".  Witness is None unless the check fails.  A runner
# may instead raise StructureError, which run_verify records as a fail with
# details {} and witness {"error": message}.  A runner is called only at the
# n its skip rule in CHECKS lets through.


def _cut_order_star(n: int, p: int) -> int:
    """The star of point p < n from the cut order's definition: bit c is set
    when c + 1 has bit p - 1.  Over c + 1, from bit 0 up, that is a period of
    2**(p-1) clear bits and as many set ones, repeated to fill a byte when
    shorter, then repeated as bytes and shifted down by one."""
    half = 2 ** (p - 1)
    width = max(2 * half, 8)
    period = ((1 << width) - 1) // ((1 << 2 * half) - 1) * ((1 << half) - 1 << half)
    pattern = period.to_bytes(width // 8, "little") * (2 ** (n - 1) // width)
    return int.from_bytes(pattern, "little") >> 1


def _check_cuts(inst: Instance, cfg: RunConfig):
    # Stars that read bit p - 1 of c + 1 at bit c, and 0 for the point n, keep every cut c
    # nonzero and distinct.  Each cut satisfies every triangle inequality by an identity: on
    # pair columns s_i ^ s_j, (s_i ^ s_j) & ~((s_i ^ s_k) | (s_j ^ s_k)) is 0.  The stars
    # from the definition are built one at a time; their list would add 23 MiB at n = 24.
    n, stars = inst.n, cut_stars(inst.n)
    details = {"cut_count": max(stars).bit_length(), "expected": 2 ** (n - 1) - 1}
    wrong = stars[-1] or any(stars[p - 1] != _cut_order_star(n, p) for p in range(1, n))
    if details["cut_count"] != details["expected"] or wrong:
        return "fail", details, {"reason": "wrong cut count or duplicates"}
    if n == 4:
        columns = [stars[i - 1] ^ stars[j - 1] for i, j in pair_list(n)]
        rays = {tuple(col >> c & 1 for col in columns) for c in range(details["cut_count"])}
        details["ray_table_match"] = rays == set(ray_table())
        if not details["ray_table_match"]:
            return "fail", details, {"reason": "cut set differs from the reference rays"}
    return "pass", details, None


def _check_facets(inst: Instance, cfg: RunConfig):
    n, facets = inst.n, enumerate_triangle_facets(inst.n)
    details = {"facet_count": len(facets), "expected": 3 * comb(n, 3)}
    if len(facets) != details["expected"] or len(set(facets)) != len(facets):
        return "fail", details, {"reason": "wrong facet count or duplicates"}
    for f in facets:
        entries = f.entries()
        if sorted(sign for _, sign in entries) != [-1, -1, 1] or len({k for k, _ in entries}) != 3:
            return "fail", details, {"facet": repr(f), "entries": entries}
        if len(f.support) != 3:
            return "fail", details, {"facet": repr(f)}
    return "pass", details, None


def _check_incidence(inst: Instance, cfg: RunConfig):
    # One facet decides them all.  The 3*C(n, 3) triangle facets form one orbit of the
    # point permutations (Deza and Laurent, 1997).  A permutation sigma maps the cut
    # delta(S) to delta(sigma S) and the facet f to sigma f, with
    # sigma f(delta(sigma S)) = f(delta(S)), and permutes the nonzero cuts.  So every facet
    # contains as many as (1, 2; 3), counted on stars from the cut order's definition.
    n = inst.n
    expected = triangle_incidence_bound(n)
    details = {"facets": 3 * comb(n, 3), "cuts_per_facet": expected}
    f = TriangleFacet(1, 2, 3, n)
    stars = [_cut_order_star(n, p) for p in (1, 2, 3)]
    count = 2 ** (n - 1) - 1 - _facet_incidence_masks(f, stars).bit_count()
    if count != expected:
        return "fail", details, {"facet": repr(f), "count": count, "expected": expected}
    return "pass", details, None


def _check_adjacency(inst: Instance, cfg: RunConfig):
    total, mismatches = inst.adjacency
    details = {"pairs": total, "mismatches": len(mismatches)}
    if mismatches:
        f, g, by_rank, by_sign = mismatches[0]
        return "fail", details, {
            "facet_a": repr(f),
            "facet_b": repr(g),
            "rank_oracle": by_rank,
            "sign_test": by_sign,
        }
    return "pass", details, None


def _check_hexagons(inst: Instance, cfg: RunConfig):
    gbar = inst.gbar
    details = {"vertices": gbar.n, "hexagons_per_vertex": inst.n - 3}
    for u in inst.gbar_orbits:
        verify_hexagon_neighborhood(gbar, u)
    return "pass", details, None


def _check_triangles(inst: Instance, cfg: RunConfig):
    n, gbar, detected = inst.n, inst.gbar, inst.triangles
    details = {"triangle_count": len(detected), "expected": comb(n, 3)}
    if len(detected) != comb(n, 3):
        return "fail", details, {"reason": "wrong Triangle count"}
    if n >= 5:
        # find_triangles has passed at the orbit representatives, hence at every
        # vertex: the 3T Triangle edges have n - 2 common neighbours and every
        # other edge has 2.
        inside = 3 * len(detected)
        details["edge_census"] = {"2": gbar.edge_count() - inside, str(n - 2): inside}
    else:
        details["note"] = "support-label fallback (census degenerate at n=4)"
    return "pass", details, None


def _check_gamma(inst: Instance, cfg: RunConfig):
    n, gamma = inst.n, inst.gamma
    details = {"vertices": gamma.n, "degree": 3 * (n - 3)}
    if gamma.n != comb(n, 3):
        return "fail", details, {"reason": "wrong vertex count"}
    if any(gamma.degree(v) != 3 * (n - 3) for v in range(gamma.n)):
        return "fail", details, {"reason": "not regular of degree 3(n-3)"}
    if n == 5:
        # Independent model: complements of the labels are 2-subsets, and the
        # complement of the Petersen graph joins 2-subsets sharing one point.
        duals = [frozenset(set(range(1, 6)) - s) for s in gamma.labels]
        for a in range(10):
            for b in range(a + 1, 10):
                if gamma.has_edge(a, b) != (len(duals[a] & duals[b]) == 1):
                    return "fail", details, {"reason": "not the Petersen complement", "pair": (a, b)}
        details["petersen_complement"] = True
    reps = inst.gamma_orbits
    arr = intersection_array(gamma, reps)
    details["intersection_array"] = str(arr)
    diameter = len(arr.cs)
    details["diameter"] = diameter
    if n >= 6 and diameter != 3:
        return "fail", details, {"reason": f"diameter {diameter}, expected 3"}
    if n == 6:
        # The census gave every vertex eccentricity 3, so layer 3 exists.
        for v in reps:
            far = gamma.layers(v)[3]
            antipode = frozenset(range(1, 7)) - gamma.labels[v]
            if far.bit_count() != 1 or gamma.labels[far.bit_length() - 1] != antipode:
                return "fail", details, {"vertex": v, "reason": "antipodal pairing failed"}
        details["antipodal_pairing"] = True
        if _aut_cap(n, cfg) is None:
            quotient_order = inst.aut_gamma.order
            base_order = inst.aut_gbar.order
            details["aut_gamma6"] = quotient_order
            details["aut_gbar6"] = base_order
            if quotient_order != 1440 or base_order != 720:
                return "fail", details, {
                    "reason": "n=6 exception orders differ from 1440 / 720"
                }
    return "pass", details, None


def _check_johnson(inst: Instance, cfg: RunConfig):
    n, gamma, reps = inst.n, inst.gamma, inst.gamma_orbits
    details = {"vertices": gamma.n}
    if not verify_johnson_isomorphism(gamma, n, reps):
        return "fail", details, {"reason": "label map is not an isomorphism"}
    details["johnson_isomorphism"] = True
    for v in reps:
        if not verify_rook_neighborhood(gamma, v):
            return "fail", details, {"vertex": v, "reason": "neighborhood is not the rook graph"}
    details["rook_neighborhoods"] = True
    d2 = all(verify_distance2_property(gamma, v) for v in reps)
    details["distance2_property"] = d2
    if n >= 7 and not d2:
        return "fail", details, {"reason": "distance-2 4-set condition failed"}
    return "pass", details, None


def _check_aut(inst: Instance, cfg: RunConfig):
    n, aut, expected = inst.n, inst.aut_gbar, inst.theorem1.expected_order
    details = {"aut_complement": aut.order, "expected": expected, "generators": len(aut.generators)}
    if aut.order != expected:
        return "fail", details, {"reason": "unexpected automorphism group order"}
    if n >= 5:
        gamma_order = inst.aut_gamma.order
        gamma_expected = 1440 if n == 6 else factorial(n)
        details["aut_quotient"] = gamma_order
        if gamma_order != gamma_expected:
            return "fail", details, {"reason": "unexpected quotient automorphism order"}
    return "pass", details, None


def _check_theorem1(inst: Instance, cfg: RunConfig):
    report = inst.theorem1
    details = {
        "aut_order": report.group.order,
        "induced_order": report.group.seed_order,
        "expected": report.expected_order,
    }
    if not report.passed:
        witness = {"reason": "automorphism group differs from the induced image"}
        if report.witness is not None:
            witness["extra_automorphism"] = list(report.witness)
        return "fail", details, witness
    return "pass", details, None


def _check_reflect4(inst: Instance, cfg: RunConfig):
    report = build_reflection_group()
    # The normal of the hyperplane through the rays other than r4 and r5.
    alpha = report.alphas[report.generator_pairs.index((4, 5))]
    details = {"kernel_vector": list(alpha)}
    if alpha not in ((0, -1, 1, 1, -1, 0), (0, 1, -1, -1, 1, 0)):
        return "fail", details, {"reason": "kernel vector differs from the reference"}
    # Every passing swap makes the rays span R^6, so the ray action is
    # faithful and the matrix group has the order of its ray permutations.
    details.update(
        {
            "matrix_order": report.perm_order,
            "perm_order": report.perm_order,
            "faithful": True,
            "orbit_orders": [report.orbit4_order, report.orbit3_order],
        }
    )
    # A graph and its complement have the same automorphisms on the same
    # vertex set, so the group of the complement certifies the ridge graph's.
    aut_order = inst.aut_gbar.order
    details["aut_g4"] = aut_order
    if not report.passed or aut_order != report.perm_order:
        return "fail", details, {"reason": "reflection certificate failed"}
    return "pass", details, None


def _check_hypermetric(inst: Instance, cfg: RunConfig):
    sweep = inst.sweep
    details = {
        "bound": sweep.bound,
        "coefficient_vectors": sweep.vector_count,
        "cuts": sweep.cut_count,
    }
    if sweep.mismatch is not None:
        b, members, direct, closed = sweep.mismatch
        return "fail", details, {
            "coefficients": list(b),
            "cut": members,
            "direct": direct,
            "closed_form": closed,
        }
    if sweep.positive is not None:
        b, members, value = sweep.positive
        return "fail", details, {"coefficients": list(b), "cut": members, "value": value}
    return "pass", details, None


def _check_theorem2(inst: Instance, cfg: RunConfig):
    n, sweep = inst.n, inst.sweep
    details = {
        "bound": sweep.bound,
        "coefficient_vectors": sweep.vector_count,
        "max_cut_count": sweep.max_count,
        "triangle_vectors": sweep.triangle_count,
    }
    if sweep.over_bound is not None:
        b, count = sweep.over_bound
        return "fail", details, {"coefficients": list(b), "count": count}
    if sweep.triangle_failure is not None:
        b, count, rank = sweep.triangle_failure
        return "fail", details, {"coefficients": list(b), "count": count, "rank": rank}
    if sweep.rogue_maximizer is not None:
        b, count, rank = sweep.rogue_maximizer
        return "fail", details, {
            "coefficients": list(b),
            "count": count,
            "rank": rank,
            "reason": "non-triangle facet-inducing maximizer",
        }
    if n <= ADJACENCY_SWEEP_MAX_N:
        total, mismatches = inst.adjacency
        details["adjacency_pairs"] = total
        if mismatches:
            f, g, by_rank, by_sign = mismatches[0]
            return "fail", details, {"facet_a": repr(f), "facet_b": repr(g)}
    else:
        details["adjacency_note"] = f"rank sweep covered for n<={ADJACENCY_SWEEP_MAX_N}"
    return "pass", details, None


# --- the check table -------------------------------------------------------
# CHECKS has one row per check, in report order: id, runner, skip rule and
# the claim it certifies.  A skip rule maps (n, cfg) to why n is skipped, or None.


def _sweep_cap(limit: int, sweep: str):
    return lambda n, cfg: f"{sweep} capped at n={limit}" if n > limit else None


def _needs_triangles(n: int, cfg: RunConfig):
    return "Triangle quotient degenerate at n=4" if n < 5 else None


def _aut_cap(n: int, cfg: RunConfig):
    # From CLIQUE_CHAIN_MIN_N on, the groups need no search.
    vertices = 3 * comb(n, 3)
    if n < CLIQUE_CHAIN_MIN_N and vertices > cfg.aut_vertex_cap:
        return f"{vertices} vertices above cap {cfg.aut_vertex_cap}"
    return None


def _only_n4(n: int, cfg: RunConfig):
    return "reflection construction is specific to n=4" if n != 4 else None


class Check(NamedTuple):
    runner: Callable
    skip: Callable[[int, RunConfig], str | None] | None
    claim: str


CHECKS = {
    check: Check(runner, skip, claim)
    for check, runner, skip, claim in [
        ("cuts", _check_cuts, _sweep_cap(INCIDENCE_MAX_N, "incidence masks"),
         "nonzero cuts number 2^(n-1)-1 and satisfy every triangle inequality"),
        ("facets", _check_facets, None,
         "triangle facets number 3*C(n,3) with one +1 and two -1 entries on a 3-set"),
        ("incidence", _check_incidence, _sweep_cap(INCIDENCE_MAX_N, "incidence masks"),
         "every triangle facet contains exactly 3*2^(n-3)-1 cuts"),
        ("adjacency", _check_adjacency, _sweep_cap(ADJACENCY_SWEEP_MAX_N, "exhaustive rank sweep"),
         "rank-based codimension-2 oracle agrees with the sign-based non-conflicting test"),
        ("hexagons", _check_hexagons, None,
         "every complement neighborhood is n-3 hexagons on a shared same-support edge"),
        ("triangles", _check_triangles, None,
         "common-neighbor census (n-2 vs 2) detects exactly the same-support 3-cliques"),
        ("gamma", _check_gamma, _needs_triangles,
         "Triangle quotient: cross-edges in {0,4} as two 2-paths, with the expected regular structure"),
        ("johnson", _check_johnson, _needs_triangles,
         "Triangle quotient is the 2-intersection graph on 3-subsets with rook neighborhoods"),
        ("aut", _check_aut, _aut_cap,
         "automorphism groups have the expected exact orders"),
        ("theorem1", _check_theorem1, _aut_cap,
         "ridge-graph automorphisms all come from point permutations (order n!; 144 at n=4)"),
        ("reflect4", _check_reflect4, _only_n4,
         "five ray-swapping reflections generate an order-144 group with a faithful product action"),
        ("hypermetric", _check_hypermetric, _sweep_cap(HYPERMETRIC_SWEEP_MAX_N, "bounded sweep"),
         "bounded-coefficient inequalities equal sigma*(1-sigma) on every cut, nonpositive"),
        ("theorem2", _check_theorem2, _sweep_cap(HYPERMETRIC_SWEEP_MAX_N, "bounded sweep"),
         "triangle facets are the unique cut-count maximizers and adjacency is sign-determined"),
    ]
}
CHECK_ORDER = tuple(CHECKS)
# Dispatch goes through this dict so that a runner can be replaced by id.
_RUNNERS = {check: spec.runner for check, spec in CHECKS.items()}


class RunConfig(NamedTuple):
    n_min: int = 4
    n_max: int = 6
    checks: tuple[str, ...] = CHECK_ORDER
    hypermetric_bound: int = 3
    aut_vertex_cap: int = AUT_VERTEX_CAP
    output_format: str = "text"
    export_dir: str | None = None

    def validate(self) -> None:
        for name in ("n_min", "n_max", "hypermetric_bound", "aut_vertex_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 4 <= self.n_min <= self.n_max:
            raise ConfigError(f"need 4 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        if self.n_max > MAX_N:
            raise ConfigError(f"n_max {self.n_max} is above {MAX_N}, the largest n measured")
        if self.export_dir is not None and self.n_max > EXPORT_MAX_N:
            raise ConfigError(f"export at n_max {self.n_max} is above {EXPORT_MAX_N}")
        if not 1 <= self.hypermetric_bound <= HYPERMETRIC_BOUND_MAX:
            raise ConfigError(f"hypermetric bound must be in 1..{HYPERMETRIC_BOUND_MAX}")
        if self.aut_vertex_cap < 1:
            raise ConfigError("automorphism vertex cap must be positive")
        if self.output_format not in ("text", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if isinstance(self.checks, str):
            raise ConfigError(f"checks must be a sequence of check ids, got the string {self.checks!r}")
        if not self.checks:
            raise ConfigError("no checks selected; a run that certifies nothing cannot pass")
        unknown = [c if isinstance(c, str) else repr(c) for c in self.checks if c not in CHECK_ORDER]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")

    def as_dict(self) -> dict:
        return {**self._asdict(), "checks": list(self.checks)}


def run_verify(cfg: RunConfig) -> dict:
    """Execute the selected checks for every n in range and assemble the report."""
    cfg.validate()
    selected = [c for c in CHECK_ORDER if c in cfg.checks]
    records = []
    tally = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
    for n in range(cfg.n_min, cfg.n_max + 1):
        inst = Instance(n, cfg.aut_vertex_cap, cfg.hypermetric_bound)
        for check in selected:
            start = time.perf_counter()
            skip = CHECKS[check].skip
            reason = skip(n, cfg) if skip else None
            try:
                if reason is None:
                    outcome, details, witness = _RUNNERS[check](inst, cfg)
                else:
                    outcome, details, witness = "skip", {"reason": reason}, None
            except ResourceLimitError as exc:
                outcome, details, witness = "skip", {"reason": str(exc)}, None
            except StructureError as exc:
                outcome, details, witness = "fail", {}, {"error": str(exc)}
            except Exception as exc:  # surfaced per check, run continues
                outcome, details, witness = "error", {"error": str(exc)}, None
            elapsed = time.perf_counter() - start
            tally[outcome] += 1
            records.append(
                {
                    "check": check,
                    "n": n,
                    "claim": CHECKS[check].claim,
                    "outcome": outcome,
                    "details": details,
                    "witness": witness,
                    "seconds": round(elapsed, 3),
                }
            )
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "conesym",
        "tool_version": __version__,
        "config": cfg.as_dict(),
        "checks": records,
        "summary": tally,
    }


def export_graphs(cfg: RunConfig) -> dict:
    """Write the ridge graph, its complement, and the Triangle quotient in
    graph6 and edge-list form with label sidecars, plus a manifest."""
    cfg.validate()
    out_dir = Path(cfg.export_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A manifest marks a complete export: drop a stale one before the first
    # graph file changes, and move the new one into place after the last.
    (out_dir / "manifest.json").unlink(missing_ok=True)
    manifest = {"schema_version": SCHEMA_VERSION, "files": [], "omitted": []}
    for n in range(cfg.n_min, cfg.n_max + 1):
        inst = Instance(n, cfg.aut_vertex_cap, cfg.hypermetric_bound)
        graphs = [("ridge", inst.gbar.complement()), ("complement", inst.gbar)]
        if n >= 5:
            graphs.append(("gamma", inst.gamma))
        else:
            manifest["omitted"].append(
                {"graph": "gamma", "n": n, "reason": "Triangles are degenerate at n=4"}
            )
        for name, graph in graphs:
            stem = f"{name}_n{n}"
            (out_dir / f"{stem}.g6").write_text(to_graph6(graph) + "\n")
            # Streamed row by row; an edge-free graph gets one empty line.
            with (out_dir / f"{stem}.edges").open("w") as edges:
                edges.writelines(edge_list_lines(graph))
                if not any(graph.adj):
                    edges.write("\n")
            (out_dir / f"{stem}.labels").write_text("\n".join(label_lines(graph)) + "\n")
            manifest["files"].append(
                {
                    "graph": name,
                    "n": n,
                    "vertices": graph.n,
                    "edges": graph.edge_count(),
                    "graph6": f"{stem}.g6",
                    "edge_list": f"{stem}.edges",
                    "labels": f"{stem}.labels",
                }
            )
    manifest["labeling"] = {
        "ridge": "vertex, support i j k, apex pair a b (facet +1 at (a,b))",
        "complement": "vertex, support i j k, apex pair a b (facet +1 at (a,b))",
        "gamma": "vertex, Triangle support i j k",
    }
    partial = out_dir / "manifest.json.partial"
    partial.write_text(json.dumps(manifest, indent=2) + "\n")
    os.replace(partial, out_dir / "manifest.json")
    return manifest


def render_text(report: dict) -> str:
    lines = [
        f"conesym {report['tool_version']} verification report",
        f"range n = {report['config']['n_min']}..{report['config']['n_max']}",
        "",
        f"{'check':<12} {'n':>2}  {'outcome':<7} {'seconds':>8}  detail",
        "-" * 78,
    ]
    for rec in report["checks"]:
        detail = ""
        if rec["outcome"] == "pass":
            interesting = {
                k: v
                for k, v in rec["details"].items()
                if not isinstance(v, (dict, list))
            }
            detail = ", ".join(f"{k}={v}" for k, v in list(interesting.items())[:4])
        elif rec["outcome"] == "skip":
            detail = rec["details"].get("reason", "")
        elif rec["outcome"] == "error":
            detail = rec["details"].get("error", "")
        else:
            detail = json.dumps(rec["witness"])
        lines.append(
            f"{rec['check']:<12} {rec['n']:>2}  {rec['outcome']:<7} {rec['seconds']:>8.3f}  {detail}"
        )
    s = report["summary"]
    lines.append("-" * 78)
    lines.append(
        f"summary: {s['pass']} pass, {s['fail']} fail, {s['skip']} skip, {s['error']} error"
    )
    return "\n".join(lines)


def exit_code(report: dict, export_failed: bool = False) -> int:
    summary = report["summary"]
    if summary["fail"]:
        return 1
    if summary["error"] or export_failed or not summary["pass"]:
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only the command line parses arguments; library callers skip the import

    defaults = RunConfig._field_defaults
    parser = argparse.ArgumentParser(
        prog="conesym",
        description="Certify the combinatorial symmetry structure of cut and metric cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run the certification checks")
    verify.add_argument(
        "--n-min", type=int, default=defaults["n_min"], help="smallest point count (>= 4)"
    )
    verify.add_argument(
        "--n-max", type=int, default=defaults["n_max"], help="largest point count"
    )
    verify.add_argument(
        "--checks",
        type=lambda text: tuple(c.strip() for c in text.split(",") if c.strip()),
        default=",".join(defaults["checks"]),
        help="comma-separated check ids: " + ", ".join(CHECK_ORDER),
    )
    verify.add_argument(
        "--hypermetric-bound",
        type=int,
        default=defaults["hypermetric_bound"],
        help=f"coefficient bound for the bounded inequality sweeps (1..{HYPERMETRIC_BOUND_MAX})",
    )
    verify.add_argument(
        "--aut-vertex-cap",
        type=int,
        default=defaults["aut_vertex_cap"],
        help="skip the automorphism searches, run at n <= 6, on graphs above this many"
        " vertices; from n = 7 on the groups need no search",
    )
    verify.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default=defaults["output_format"],
    )
    verify.add_argument(
        "--export",
        dest="export_dir",
        metavar="DIR",
        default=defaults["export_dir"],
        help="export graphs to DIR",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(**{name: getattr(args, name) for name in RunConfig._fields})
    try:
        cfg.validate()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    report = run_verify(cfg)

    export_failed = False
    if cfg.export_dir is not None:
        try:
            export_graphs(cfg)
        except OSError as exc:
            export_failed = True
            print(f"export error: {exc}", file=sys.stderr)

    if cfg.output_format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report))
    if report["summary"]["skip"] == len(report["checks"]):
        print("nothing certified: every selected check was skipped", file=sys.stderr)
    return exit_code(report, export_failed)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
