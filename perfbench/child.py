"""One measured `conesym verify` run in a fresh interpreter.

Started by run.py as `python3 child.py <spec-json>`; prints one JSON object.
The spec carries the source directory, the configuration, the parent's
`time.perf_counter()` just before it spawned this process (CLOCK_MONOTONIC,
shared by all processes on the machine), the mode and, when traced, the span
file to write.  Modes: "setup" stops once the configuration is validated and then times the
calibration once; "verify" runs it untraced, between two calibrations;
"trace" runs it traced; "alloc" runs it traced with tracemalloc around the
calls in `tracing.PEAK_ALLOC`.

The calibration (`calibrate`) is fixed pure-Python work of the kinds that
dominate `conesym verify`.  Its time tells run.py how fast the host is at
that moment, so it can express the measured times at one reference speed.
"""

import json
import resource
import sys
import time


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one fixed piece of work, taken right now.

    The work never changes with conesym: fraction-free elimination on small
    integer matrices, the pattern of `cones.integer_rank`, then hashing of
    small tuples into dicts and sets plus a sort, the pattern of the
    automorphism search.  It allocates well under a MiB at a time.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    size = 16
    for rep in range(12):
        a = [[(i * 7 + j * 13 + rep) % 11 - 5 for j in range(size)] for i in range(size)]
        prev, rank = 1, 0
        for col in range(size):
            pivot = next((r for r in range(rank, size) if a[r][col]), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            p = a[rank][col]
            for r in range(rank + 1, size):
                row, top = a[r], a[rank]
                f = row[col]
                for c in range(col + 1, size):
                    row[c] = (row[c] * p - f * top[c]) // prev
                row[col] = 0
            prev, rank = p, rank + 1
    for rep in range(6):
        seen = {}
        for i in range(12000):
            key = (i % 97, (i * 31 + rep) % 101, i >> 6)
            seen[key] = seen.get(key, 0) + 1
        order = sorted(seen, key=lambda k: (seen[k], k))
        pairs = {frozenset(k[:2]) for k in order}
        del seen, order, pairs
    return time.perf_counter() - wall, time.process_time() - cpu


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from conesym import cli

    cfg = cli.RunConfig(**{**spec["config"], "checks": tuple(spec["config"]["checks"])})
    cfg.validate()
    out = {"setup_s": time.perf_counter() - spec["spawned"]}
    if spec["mode"] == "setup":
        out["cal_s"] = calibrate()[0]
        print(json.dumps(out))
        return

    # CPU seconds spent calibrating, taken off this process's total below.
    cal_cpu = 0.0
    if spec["mode"] == "verify":
        before, cal_cpu = calibrate()

    tracer = None
    if spec["mode"] in ("trace", "alloc"):
        import tracing

        tracer = tracing.Tracer(spec["run_id"], measure_alloc=spec["mode"] == "alloc")
        tracer.install()
    try:
        start = time.perf_counter()
        report = cli.run_verify(cfg)
        out["wall_s"] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if spec["mode"] == "verify":
        after, cpu = calibrate()
        out["cal_s"] = (before + after) / 2
        cal_cpu += cpu
    if tracer is not None:
        leftover = tracing.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        tracer.write_spans(spec["spans"])
        out["layers"] = tracer.summary()

    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    out["cpu_s"] = sum(u.ru_utime + u.ru_stime for u in usage) - cal_cpu
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = usage[0].ru_maxrss / 1024
    out["report"] = report
    # Imported after the measurement, so a run that never loads numpy is not
    # charged for it.
    import numpy

    out["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
