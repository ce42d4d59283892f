"""Tests of the benchmark itself: metric names, the correctness gate, and
refusal to run without the package sources.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _smoke(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_declared_metrics(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", ".work", "__pycache__"))
    proc = _smoke("nfg-design", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _checked(plan, index, out):
    outputs = run.Outputs(wl.fingerprint)
    rec = run.Record(index, 0.0, outputs.add(index, out), None)
    run.check_records(plan, [rec], outputs)
    return rec


def _scaled(reward, factor):
    """The reward times ``factor``; its own bound grows so the object stays
    valid while the design's bound is exceeded."""
    return dataclasses.replace(
        reward,
        rewards=factor * reward.rewards,
        bound=max(reward.bound, factor * reward.bound),
    )


@pytest.fixture(scope="module")
def markov_plan(tmp_path_factory):
    return wl.plan_markov_design(5, str(tmp_path_factory.mktemp("md")), smoke=True)


def test_markov_design_output_passes_untampered(markov_plan):
    result = markov_plan[1].run()
    assert _checked(markov_plan, 1, result).ok


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: dataclasses.replace(r, reward=_scaled(r.reward, 10.0)),
        lambda r: dataclasses.replace(r, status=type(r.status)("infeasible")),
        lambda r: dataclasses.replace(r, status=type(r.status)("unbounded")),
        lambda r: dataclasses.replace(r, objective=r.objective + 1e-3),
        lambda r: dataclasses.replace(
            r, reward=_scaled(r.reward, 0.0)
        ),
    ],
    ids=["scaled-past-bound", "flipped-infeasible", "flipped-unbounded",
         "objective-off", "zero-reward"],
)
def test_tampered_markov_design_counts_as_failed(markov_plan, tamper):
    result = markov_plan[1].run()
    rec = _checked(markov_plan, 1, tamper(result))
    assert not rec.ok and rec.wrong


def test_tampered_max_gap_counts_as_failed(markov_plan):
    index = next(k for k, op in enumerate(markov_plan) if op.name.endswith("max-gap"))
    result = markov_plan[index].run()
    assert _checked(markov_plan, index, result).ok
    low = dataclasses.replace(
        result,
        achieved_slack=result.achieved_slack / 2,
        objective=-result.achieved_slack / 2,
    )
    assert not _checked(markov_plan, index, low).ok


def test_nfg_status_flip_counts_as_failed(tmp_path):
    plan = wl.plan_nfg_design(5, str(tmp_path), smoke=True)
    flipped = 0
    for index, op in enumerate(plan):
        result = op.run()
        assert _checked(plan, index, result).ok, op.name
        if result.status.value == "infeasible":
            fake = dataclasses.replace(result, status=type(result.status)("optimal"))
            assert not _checked(plan, index, fake).ok
            flipped += 1
    assert flipped > 0


def test_closed_form_wrong_gap_counts_as_failed(tmp_path):
    insts = wl.write_closed_form(5, str(tmp_path), smoke=True)
    plan = wl.plan_closed_form(insts, str(tmp_path))
    for index, op in enumerate(plan):
        out = op.run()
        assert _checked(plan, index, out).ok, op.name
        if op.name.endswith("verify-cce-noise"):
            off = dataclasses.replace(out, min_gap=out.min_gap + 1e-6)
            assert not _checked(plan, index, off).ok
        if op.name.endswith("/witness"):
            assert not _checked(plan, index, _scaled(out, 3.0)).ok
            assert not _checked(plan, index, _scaled(out, 0.5)).ok


def test_cli_wrong_exit_code_counts_as_failed(tmp_path):
    ctx = wl.CliContext(root=ROOT, workdir=str(tmp_path))
    plan = wl.plan_cli(wl.write_cli(5, str(tmp_path)), ctx, smoke=True)
    code, stdout, out = plan[0].run()
    assert _checked(plan, 0, (code, stdout, out)).ok
    assert not _checked(plan, 0, (1 - code, stdout, out)).ok
