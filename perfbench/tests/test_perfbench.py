"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_inputs(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_declared_names_and_units_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_latencies_are_scaled_by_the_references_around_their_stretch(monkeypatch):
    # a fake clock: every operation takes 0.06 s, and the host slows down,
    # so each timing of the reference takes 0.01 s longer than the one before
    now = [0.0]
    timed = []
    monkeypatch.setattr(run, "perf_counter", lambda: now[0])

    def reference():
        timed.append(None)
        now[0] += 0.01 * (1 + (len(timed) - 1) // run.REF_REPEATS)

    class Fixed:
        def op(self, x):
            now[0] += 0.06

        def check(self, x, result):
            return workloads.Outcome()

    tally = run.Tally()
    assert run.closed_loop(Fixed(), reference, [{}], tally, count=4) == 4
    # two stretches of two operations, between references of 0.01, 0.02 and 0.03 s
    assert list(tally.latencies) == pytest.approx([0.06] * 4)
    assert list(tally.references) == pytest.approx([0.015, 0.025])
    assert list(tally.scaled) == pytest.approx([4.0, 4.0, 2.4, 2.4])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_emits_every_declared_metric(name, trace):
    done = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "closed_form", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
