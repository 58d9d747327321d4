"""Tests of the benchmark itself: run with `python3 -m pytest kinbench -q`.

They use reduced-size rounds (--quick), so they check the plumbing and the
correctness checks, not the timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "kinbench/run.py", "--seconds", "0", "--quick", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def parse(lines):
    assert lines[-2].startswith("kinbench ")
    return json.loads(lines[-2][len("kinbench "):]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_reduced_run_reports_every_metric_with_its_unit(workload, trace, section):
    proc, lines = bench("--workload", workload, "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    details, result = parse(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert details["failed_ops_ratio"] == 0.0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload, ref_name", [("fp-kinetic", "fp_kinetic"),
                                                ("identity-sweep", "identity_sweep")])
def test_perturbed_reference_is_reported_as_failed_checks(tmp_path, workload, ref_name):
    for ref in (ROOT / "kinbench" / "refs").glob("*.json"):
        shutil.copy(ref, tmp_path / ref.name)
    path = tmp_path / f"{ref_name}.json"
    refs = json.loads(path.read_text())

    def nudge(x):
        return [nudge(v) for v in x] if isinstance(x, list) else x + 1e-8

    refs = {pool: nudge(entry) for pool, entry in refs.items()}
    path.write_text(json.dumps(refs))
    proc, lines = bench("--workload", workload, "--seed", "7", "--trace", "0",
                        "--ref-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    details, result = parse(lines)
    assert details["failed_ops_ratio"] > 0
    assert result["failed"] > 0 and not result["correct"]


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
