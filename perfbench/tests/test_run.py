import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(run.__file__).resolve().parents[1]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    assert set(run.layer_metrics({})) == set(run.PER_LAYER)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaled_times_are_at_the_reference_speed():
    # A host twice as slow as the reference doubles both the measured time
    # and the calibration, so the scaled time stays put.
    fast = {"wall_s": 1.0, "cal_s": run.CAL_REF_S}
    slow = {"wall_s": 2.0, "cal_s": 2 * run.CAL_REF_S}
    assert run.scaled([fast, slow], "wall_s") == [1.0, 1.0]


def test_calibration_takes_measurable_time():
    import child

    wall, cpu = child.calibrate()
    assert wall > 0 and cpu > 0
