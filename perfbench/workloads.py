"""The fixed `conesym verify` configurations the benchmark runs.

Each stays inside every cap the CLI has today (`ADJACENCY_SWEEP_MAX_N`,
`HYPERMETRIC_SWEEP_MAX_N`, `--aut-vertex-cap`), so the work a workload does
is fixed by the paper's claims and not by a cap a later change may lift.
Every field is spelled out, so a change to `RunConfig`'s defaults does not
change a workload either.  README.md records why each was chosen.
"""

ALL_CHECKS = (
    "cuts",
    "facets",
    "incidence",
    "adjacency",
    "hexagons",
    "triangles",
    "gamma",
    "johnson",
    "aut",
    "theorem1",
    "reflect4",
    "hypermetric",
    "theorem2",
)


def _config(n_min, n_max, checks=ALL_CHECKS, hypermetric_bound=3, aut_vertex_cap=300):
    return {
        "n_min": n_min,
        "n_max": n_max,
        "checks": list(checks),
        "hypermetric_bound": hypermetric_bound,
        "aut_vertex_cap": aut_vertex_cap,
    }


WORKLOADS = {
    # `conesym verify` with its defaults: every module takes part; Bareiss
    # rank in `cones` dominates.
    "suite": _config(4, 6),
    # Automorphism search on the complement and the Triangle quotient; no
    # rank calls, no numpy.
    "symmetry": _config(9, 10, ("aut", "theorem1", "gamma", "johnson"), aut_vertex_cap=495),
    # Enumeration and incidence at large n; no rank, no automorphism search.
    "structure": _config(9, 12, ("cuts", "facets", "incidence", "hexagons", "triangles")),
    # The numpy hypermetric sweep; the only workload whose memory moves.
    "sweeps": _config(5, 7, ("hypermetric",), hypermetric_bound=4),
}
