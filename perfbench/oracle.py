"""Independent oracle for `conesym verify` reports.

Every expected value is derived here from the paper's formulas, without
calling `conesym`, so a change that returns wrong numbers, or buys speed by
skipping a check, shows up as a failed record.  A record fails when it is
missing, unexpected, duplicated, has the wrong outcome, or certifies a value
other than the one below.
"""

from __future__ import annotations

from math import comb, factorial

from workloads import ALL_CHECKS

# The kernel vector of the reference rays at n = 4, up to sign.
REFLECT4_ALPHA = ((0, -1, 1, 1, -1, 0), (0, 1, -1, -1, 1, 0))


def hypermetric_vector_count(n: int, bound: int) -> int:
    """Integer vectors in [-bound, bound]^n summing to 1, by a DP over
    partial sums."""
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for total, ways in counts.items():
            for b in range(-bound, bound + 1):
                nxt[total + b] = nxt.get(total + b, 0) + ways
        counts = nxt
    return counts.get(1, 0)


def johnson_intersection_array(n: int) -> str:
    """J(n, 3): b_i = (3-i)(n-3-i), c_i = i^2, diameter min(3, n-3)."""
    d = min(3, n - 3)
    bs = [(3 - i) * (n - 3 - i) for i in range(d)]
    cs = [i * i for i in range(1, d + 1)]
    return "{%s; %s}" % (",".join(map(str, bs)), ",".join(map(str, cs)))


def expected_outcome(check: str, n: int) -> str:
    if check in ("gamma", "johnson") and n == 4:
        return "skip"
    if check == "reflect4" and n != 4:
        return "skip"
    return "pass"


def expected_details(check: str, n: int, cfg: dict) -> dict:
    """Certified values a passing record must carry."""
    facets = 3 * comb(n, 3)
    cuts = 2 ** (n - 1) - 1
    per_facet = 3 * 2 ** (n - 3) - 1
    triangles = comb(n, 3)
    pairs = comb(facets, 2)
    order = factorial(n)
    bound = cfg["hypermetric_bound"]
    cap = cfg["aut_vertex_cap"]
    if check == "cuts":
        out = {"cut_count": cuts, "expected": cuts}
        if n == 4:
            out["ray_table_match"] = True
        return out
    if check == "facets":
        return {"facet_count": facets, "expected": facets}
    if check == "incidence":
        return {"facets": facets, "cuts_per_facet": per_facet}
    if check == "adjacency":
        return {"pairs": pairs, "mismatches": 0}
    if check == "hexagons":
        return {"vertices": facets, "hexagons_per_vertex": n - 3}
    if check == "triangles":
        out = {"triangle_count": triangles, "expected": triangles}
        if n >= 5:
            # A facet conflicts with the 2 others on its 3-set and, for each
            # outside point, with 2 + 1 + 1 facets on the three 3-sets sharing
            # one of its pairs: degree 2 + 4(n-3) in the complement.  The
            # 3 * C(n, 3) Triangle edges have n-2 common neighbours, all
            # others 2.
            edges = facets * (2 + 4 * (n - 3)) // 2
            out["edge_census"] = {"2": edges - facets, str(n - 2): facets}
        return out
    if check == "gamma":
        out = {
            "vertices": triangles,
            "degree": 3 * (n - 3),
            "intersection_array": johnson_intersection_array(n),
            "diameter": min(3, n - 3),
        }
        if n == 5:
            out["petersen_complement"] = True
        if n == 6:
            out["antipodal_pairing"] = True
            if facets <= cap:
                out.update({"aut_gamma6": 1440, "aut_gbar6": 720})
        return out
    if check == "johnson":
        out = {"vertices": triangles, "johnson_isomorphism": True, "rook_neighborhoods": True}
        if n >= 7:
            out["distance2_property"] = True
        return out
    if check == "aut":
        expected = 144 if n == 4 else order
        out = {"aut_complement": expected, "expected": expected}
        if n >= 5 and triangles <= cap:
            # Aut J(n, 3) is Sym(n), doubled by complementation at n = 6.
            out["aut_quotient"] = 1440 if n == 6 else order
        return out
    if check == "theorem1":
        if n == 4:
            return {"aut_order": 144, "induced_order": 24, "expected": 144}
        return {"aut_order": order, "induced_order": order, "expected": order}
    if check == "reflect4":
        return {
            "matrix_order": 144,
            "perm_order": 144,
            "faithful": True,
            "orbit_orders": [24, 6],
            "aut_g4": 144,
        }
    if check == "hypermetric":
        return {
            "bound": bound,
            "coefficient_vectors": hypermetric_vector_count(n, bound),
            "cuts": cuts,
        }
    if check == "theorem2":
        out = {
            "bound": bound,
            "coefficient_vectors": hypermetric_vector_count(n, bound),
            "max_cut_count": per_facet,
            "triangle_vectors": facets,
        }
        if n <= 6:
            out["adjacency_pairs"] = pairs
        return out
    raise ValueError(f"unknown check {check!r}")


def check_record(record: dict, cfg: dict) -> str | None:
    """The reason a record fails the oracle, or None when it agrees."""
    check, n = record.get("check"), record.get("n")
    want = expected_outcome(check, n)
    if record.get("outcome") != want:
        return f"{check} n={n}: outcome {record.get('outcome')!r}, expected {want!r}"
    if want == "skip":
        return None
    details = record.get("details") or {}
    for key, value in expected_details(check, n, cfg).items():
        if details.get(key) != value:
            return f"{check} n={n}: {key}={details.get(key)!r}, expected {value!r}"
    if check == "reflect4" and tuple(details.get("kernel_vector", ())) not in REFLECT4_ALPHA:
        return f"reflect4 n=4: kernel_vector={details.get('kernel_vector')!r}"
    return None


def check_report(report: dict, cfg: dict) -> tuple[int, list[str]]:
    """Return (records attempted, failure reasons) for one report."""
    wanted = [
        (check, n)
        for n in range(cfg["n_min"], cfg["n_max"] + 1)
        for check in ALL_CHECKS
        if check in cfg["checks"]
    ]
    seen: set[tuple] = set()
    failures = []
    for record in report.get("checks", []):
        key = (record.get("check"), record.get("n"))
        if key not in wanted:
            failures.append(f"{key[0]} n={key[1]}: unexpected record")
        elif key in seen:
            failures.append(f"{key[0]} n={key[1]}: duplicate record")
        else:
            seen.add(key)
            reason = check_record(record, cfg)
            if reason is not None:
                failures.append(reason)
    failures += [f"{check} n={n}: missing record" for check, n in wanted if (check, n) not in seen]
    return len(wanted) + len(report.get("checks", [])) - len(seen), failures
