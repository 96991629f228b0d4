"""Benchmark `conesym verify` end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  Each measured `verify` runs in a fresh interpreter, one at a
time, as many times as fit in `--seconds` (at least once).
Every report is checked by `oracle.py`.  The last line of standard output is
one JSON object: `correct`, `attempted` and `failed` count report records,
and `metrics` holds the end-to-end metrics with `--trace 0`, or the per-layer
metrics with `--trace 1`.  Samples, environment and spans are written under
`perfbench/out/`.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import check_report
from workloads import ALL_CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# (span, quantity, unit) for every per-layer metric besides the `cli` ones.
# `distinct_ratio` is distinct inputs divided by calls (0 when never called;
# read it with `.calls`); `peak_alloc_mb` is the largest tracemalloc peak of
# one call.
LAYER_QUANTITIES = (
    ("core.enumerate_cuts", "calls", "count"),
    ("core.enumerate_cuts", "self_s", "s"),
    ("core.enumerate_triangle_facets", "calls", "count"),
    ("core.enumerate_triangle_facets", "self_s", "s"),
    ("cones.integer_rank", "calls", "count"),
    ("cones.integer_rank", "self_s", "s"),
    ("cones.integer_rank", "entries", "count"),
    ("cones.adjacency_agreement", "calls", "count"),
    ("cones.adjacency_agreement", "pairs", "count"),
    ("cones.adjacency_agreement", "distinct_ratio", "1"),
    ("cones.triangle_maximality_sweep", "self_s", "s"),
    ("cones.incidence_masks", "calls", "count"),
    ("cones.incidence_masks", "self_s", "s"),
    ("cones.hypermetric_coeffs", "self_s", "s"),
    ("cones.hypermetric_coeffs", "vectors", "count"),
    ("cones.hypermetric_sweep", "self_s", "s"),
    ("cones.hypermetric_sweep", "vector_cuts", "count"),
    ("cones.hypermetric_sweep", "peak_alloc_mb", "MiB"),
    ("ridge.build_complement", "calls", "count"),
    ("ridge.build_complement", "distinct_ratio", "1"),
    ("ridge.triangle_graph", "calls", "count"),
    ("ridge.triangle_graph", "self_s", "s"),
    ("ridge.intersection_array", "self_s", "s"),
    ("ridge.hexagon_neighborhood", "calls", "count"),
    ("ridge.hexagon_neighborhood", "self_s", "s"),
    ("ridge.find_triangles", "self_s", "s"),
    ("ridge.conflicting", "calls", "count"),
    ("autgrp.automorphism_group", "calls", "count"),
    ("autgrp.automorphism_group", "self_s", "s"),
    ("autgrp.automorphism_group", "vertices", "count"),
    ("autgrp.automorphism_group", "distinct_ratio", "1"),
    ("autgrp.group_order", "calls", "count"),
    ("autgrp.group_order", "self_s", "s"),
    ("autgrp.is_graph_automorphism", "calls", "count"),
    ("autgrp.is_graph_automorphism", "self_s", "s"),
    ("reflections.build_reflection_group", "self_s", "s"),
    ("reflections.kernel_vector", "calls", "count"),
)

PER_LAYER = {
    "cli.self_s": "s",
    **{f"cli.check.{check}.s": "s" for check in ALL_CHECKS},
    **{f"{span}.{quantity}": unit for span, quantity, unit in LAYER_QUANTITIES},
    "trace.overhead_s": "s",
}

# Host speed reference for the gated times.  The host's speed drifts by tens
# of percent within minutes, in steps of seconds; a raw time then measures
# the host as much as conesym.  So every child also times `child.calibrate`,
# fixed work that never changes with conesym, and each gated time is scaled
# to the host speed at which that work takes CAL_REF_S:
#     reported = measured * CAL_REF_S / cal_s.
# CAL_REF_S is about what the calibration takes on the 2-vCPU machine the
# README's numbers come from, so reported and raw times are of one size.  A
# change to conesym moves `measured` and not `cal_s`.  The raw medians are
# printed and kept in perfbench/out/ beside the scaled ones.
CAL_REF_S = 0.17
SCALED = ("wall_s", "cpu_s", "setup_s")

# Interpreter start-ups feeding the setup_s median of one run: every verify
# child counts, and setup-only children make up the rest.
SETUP_SAMPLES = 15
# A run must end within 180 s; no child may start or run past this.
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, config: dict, limit: float, run_id: str = "", spans: str = "") -> dict:
    """Run child.py once and return its JSON result."""
    spec = {"src": str(SRC), "config": config, "mode": mode, "run_id": run_id, "spans": spans}
    spec["spawned"] = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=max(limit, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child exceeded {limit:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{mode} child printed no result") from None


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics of one traced run from its span summary."""
    runners = [v for k, v in layers.items() if k.startswith("cli.check.")]
    out = {"cli.self_s": sum(v["self_s"] for v in runners)}
    for check in ALL_CHECKS:
        out[f"cli.check.{check}.s"] = layers.get(f"cli.check.{check}", {}).get("total_s", 0.0)
    for span, quantity, _ in LAYER_QUANTITIES:
        entry = layers.get(span, {})
        if quantity == "distinct_ratio":
            value = entry["distinct"] / entry["calls"] if entry else 0.0
        elif quantity == "peak_alloc_mb":
            value = entry.get("peak_alloc_bytes", 0) / 2**20
        else:
            value = entry.get(quantity, 0)
        out[f"{span}.{quantity}"] = value
    out["trace.overhead_s"] = 0.0  # set from the untraced runs by measure()
    return out


def median_metrics(samples: list[dict], names) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in names}


def scaled(samples: list[dict], name: str) -> list[float]:
    """`name` of each sample at the reference host speed (see CAL_REF_S)."""
    return [s[name] * CAL_REF_S / s["cal_s"] for s in samples]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seconds: int, trace: bool, seed: int) -> dict:
    """Measure one workload for `seconds`; see the module docstring."""
    config = WORKLOADS[name]
    start = time.perf_counter()
    remaining = lambda: RUN_LIMIT_S - (time.perf_counter() - start)  # noqa: E731
    result = {"workload": name, "seed": seed, "trace": int(trace), "config": config,
              "verify": [], "traced": [], "setup": [], "attempted": 0, "failed": 0,
              "failures": []}

    def run_verify(mode: str, index: int) -> dict:
        spans = str(OUT / f"spans-{name}-seed{seed}-{mode}{index}.jsonl") if mode != "verify" else ""
        spawned = time.perf_counter()
        child = spawn(mode, config, remaining(), f"{name}-{seed}-{mode}{index}", spans)
        child["elapsed_s"] = time.perf_counter() - spawned
        attempted, failures = check_report(child.pop("report"), config)
        result["attempted"] += attempted
        result["failed"] += len(failures)
        result["failures"] += failures
        result["env"] = child.pop("env")
        result["setup"].append({"setup_s": child["setup_s"], "cal_s": child.get("cal_s")})
        return child

    def fits(until: float, samples: list) -> bool:
        """Another run is started only if it is expected to end by `until`."""
        if not samples:
            return True
        typical = statistics.median(s["elapsed_s"] for s in samples)
        return time.perf_counter() - start + typical <= until

    try:
        untraced_until = seconds / 2 if trace else seconds
        while fits(untraced_until, result["verify"]):
            result["verify"].append(run_verify("verify", len(result["verify"])))
        while trace and fits(seconds, result["traced"]):
            result["traced"].append(run_verify("trace", len(result["traced"])))
        if trace and any("cones.hypermetric_sweep" in t["layers"] for t in result["traced"]):
            result["alloc"] = run_verify("alloc", 0)
        while not trace and len(result["setup"]) < SETUP_SAMPLES:
            result["setup"].append(spawn("setup", config, remaining()))
    except ChildFailed as exc:
        # Every record of the failed child counts as attempted and failed.
        expected, _ = check_report({"checks": []}, config)
        result["attempted"] += expected
        result["failed"] += expected
        result["failures"].append(str(exc))
    else:
        if trace:
            traced = [layer_metrics(t["layers"]) for t in result["traced"]]
            metrics = median_metrics(traced, PER_LAYER)
            metrics["trace.overhead_s"] = statistics.median(
                t["wall_s"] for t in result["traced"]
            ) - statistics.median(v["wall_s"] for v in result["verify"])
            if "alloc" in result:
                alloc = layer_metrics(result["alloc"]["layers"])
                metrics["cones.hypermetric_sweep.peak_alloc_mb"] = alloc[
                    "cones.hypermetric_sweep.peak_alloc_mb"
                ]
            result["metrics"] = {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in metrics.items()}
        else:
            setups = [s for s in result["setup"] if s["cal_s"] is not None]
            metrics = {name: statistics.median(scaled(samples, name)) for name, samples in
                       (("wall_s", result["verify"]), ("cpu_s", result["verify"]),
                        ("setup_s", setups))}
            metrics["peak_rss_mb"] = statistics.median(v["peak_rss_mb"] for v in result["verify"])
            result["raw"] = {"wall_s": statistics.median(v["wall_s"] for v in result["verify"]),
                             "cpu_s": statistics.median(v["cpu_s"] for v in result["verify"]),
                             "setup_s": statistics.median(s["setup_s"] for s in setups),
                             "cal_s": statistics.median(s["cal_s"] for s in setups)}
            result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "conesym").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_workload(res: dict) -> None:
    attempted, failed = res["attempted"], res["failed"]
    print(f"# workload {res['workload']}: {len(res['verify'])} untraced and "
          f"{len(res['traced'])} traced verify runs, {len(res['setup'])} set-ups, "
          f"{attempted} records, {failed} failed")
    for reason in res["failures"][:10]:
        print(f"#   FAILED {reason}")
    if "metrics" not in res:
        return
    if res["trace"]:
        layers, traced_wall = res["traced"][0]["layers"], res["traced"][0]["wall_s"]
        print(f"#   top self time in the first traced run ({traced_wall:.3f} s wall):")
        for span, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:8]:
            print(f"#     {span:<40} {entry['self_s']:9.4f} s {entry['self_s'] / traced_wall:6.1%}"
                  f"  calls={entry['calls']}")
        for name, entry in res["metrics"].items():
            print(f"{res['workload']:<10} {name:<48} {entry['value']:14.6f} {entry['unit']}")
        return
    setups = [s for s in res["setup"] if s["cal_s"] is not None]
    for name, entry in res["metrics"].items():
        samples = setups if name == "setup_s" else res["verify"]
        values = scaled(samples, name) if name in SCALED else [v[name] for v in samples]
        q1, q3 = quartiles(values)
        raw = f", raw median {res['raw'][name]:.6f}" if name in SCALED else ""
        print(f"{res['workload']:<10} {name:<14} {entry['value']:12.6f} {entry['unit']:<4}"
              f" median of {len(values)}, quartiles {q1:.6f} .. {q3:.6f}{raw}")
    print(f"{res['workload']:<10} {'cal_s':<14} {res['raw']['cal_s']:12.6f} s    raw median"
          f" (reference {CAL_REF_S} s)")
    print(f"{res['workload']:<10} {'failed_ratio':<14} {failed / attempted:12.6f} 1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "conesym" / "cli.py").is_file():
        print(f"error: no conesym sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    env = {"commit": git_commit(), "source_digest": source_digest(),
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    OUT.mkdir(exist_ok=True)
    results = [measure(name, args.seconds, bool(args.trace), args.seed) for name in names]
    env.update(next((r["env"] for r in results if "env" in r), {}))
    print(f"# env {json.dumps(env)}")
    for res in results:
        res["env"] = env
        print_workload(res)
        path = OUT / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0].get("metrics", {})
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r.get("metrics", {}).items()}
    correct = failed == 0 and all("metrics" in r for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
