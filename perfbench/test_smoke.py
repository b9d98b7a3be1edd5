"""Smoke tests for the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload completes at its tiny size with tracing off and on, and every
printed metric is declared in BENCHMARK.json with the same unit and a better
direction. Outside a source checkout the benchmark fails without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["python3", *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_completes_at_tiny_size(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1
    declared = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert declared[name]["better"] in ("higher", "lower"), name
        assert isinstance(metric["value"], (int, float)), name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_patches_every_binding_and_restores():
    from keyhole import escape3d, mass2d, specfun
    from tracer import Target, Tracer

    original = specfun.integrate_adaptive
    tracer = Tracer([Target("keyhole.specfun", "integrate_adaptive", "quad"),
                     Target("keyhole.specfun", "lower_inc_gamma", "gamma", kind="count")])
    tracer.install()
    try:
        assert mass2d.integrate_adaptive is escape3d.integrate_adaptive
        assert mass2d.integrate_adaptive is not original
        outer = mass2d.integrate_adaptive(
            lambda x: mass2d.integrate_adaptive(lambda t: specfun.lower_inc_gamma(1.0, t),
                                                0.0, x, 1e-6), 0.0, 1.0, 1e-6)
    finally:
        tracer.uninstall()
    assert mass2d.integrate_adaptive is original
    assert outer == pytest.approx(0.5 - math.exp(-1.0), rel=1e-6)  # int_0^1 (x - 1 + e^-x) dx
    totals = tracer.reduce()
    assert totals["quad"]["calls"] > 1 and totals["gamma"]["calls"] > 1
    root = [s for s in tracer.spans if s.parent < 0]
    assert len(root) == 1
    # the outermost span holds all the time; nested calls are not counted twice
    assert totals["quad"]["s"] == pytest.approx(root[0].end - root[0].start)
    assert totals["quad"]["self_s"] == pytest.approx(totals["quad"]["s"] - totals["gamma"]["s"])
