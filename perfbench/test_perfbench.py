"""Tests of the benchmark itself, on its short smoke rounds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# per workload, spans that its smoke round must reach
REACHED = {
    "norms": ("harmonics.gowers_norm", "harmonics.gowers_norm_exact", "harmonics.cut_norm_lower", "harmonics.obstruction_check", "instances.random_functions"),
    "cocycles": ("nilcube.cube_members", "nilcube.is_cocycle", "nilcube.split_cocycle", "nilcube.enumerate_morphisms", "instances.random_cocycle"),
    "algebra": ("groups.find_complement", "groups.smith_normal_form", "groups.quotient", "polymaps.decomposition_verify", "groups.primary_decompose"),
    "small-configs": ("cli.main", "polymaps.degree", "harmonics.box_norm_4cycle", "groups.mtorsion_complemented_shrink"),
}


def _runner(name, tmp_path, seed=0):
    r = run.Runner(workloads.build(name, seed, smoke=True), tmp_path / name)
    r.warm_up()
    return r


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_round_untraced_and_traced(name, tmp_path):
    r = _runner(name, tmp_path)
    plain = r.measure(0, min_ops=1)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == len(r.workload.ops)
    tracer, traced = r.measure_traced(0, min_ops=1)
    assert traced["correct"] and traced["failed"] == 0 and traced["rounds"] == 1
    metrics = tracer.metrics(1)
    for span in spans.SPAN_NAMES:
        assert f"{span}.calls" in metrics and f"{span}.self_s" in metrics
    assert set(spans.COUNTERS) <= set(metrics)
    for span in REACHED[name]:
        assert metrics[f"{span}.calls"][0] > 0, span
    assert metrics["cli.record_bytes"][0] > 0
    # the originals are back after uninstall
    import gowerslab.cli as cli
    import gowerslab.groups as groups

    assert not hasattr(cli.main, "__wrapped__") and not hasattr(groups.Subgroup.from_generators, "__wrapped__")


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, smoke=True)
        b = workloads.build(name, 7, smoke=True)
        c = workloads.build(name, 8, smoke=True)
        key = lambda w: [(op.label, op.config, op.args) for op in w.ops]  # noqa: E731
        assert key(a) == key(b)
        assert key(a) != key(c)


def _record(r, label):
    i = next(i for i, op in enumerate(r.workload.ops) if op.label.startswith(label))
    _, result, _ = r._attempt(i)
    op = r.workload.ops[i]
    rec = json.loads(r.outs[i].read_text()) if op.config is not None else result
    checks.check(op, rec)
    return op, rec


def _bump(row):
    row[0] += 1


@pytest.mark.parametrize(
    "name,label,corrupt",
    [
        ("norms", "norm/u3", lambda rec: rec["outputs"].update(value=rec["outputs"]["value"] * (1 + 1e-6))),
        ("norms", "boxnorm", lambda rec: rec["outputs"].update(value=rec["outputs"]["value"] + 1e-6)),
        ("norms", "cutnorm", lambda rec: rec["outputs"].update(value=rec["outputs"]["value"] + 1e-6)),
        ("norms", "obstruct", lambda rec: rec["outputs"].update(correlation=rec["outputs"]["correlation"] + 1e-6)),
        ("algebra", "shrink", lambda rec: rec["outputs"].update(complement_generators=[])),
        ("algebra", "decompose", lambda rec: _bump(rec["outputs"]["iso_inverse_matrix"][0])),
        ("algebra", "project", lambda rec: rec["outputs"]["values"][0].__setitem__(0, 2.0)),
        ("algebra", "crosssection", lambda rec: rec["outputs"].update(degree=rec["outputs"]["degree"] + 1)),
        ("algebra", "complement/2x8", lambda rec: rec["outputs"].update(complement={"generators": [[1, 0]], "order": 8})),
        ("cocycles", "avg-split", lambda rec: _bump(rec["outputs"]["e_values"][0])),
        ("cocycles", "cocycle-split", lambda rec: _bump(rec["outputs"]["g"][1])),
        ("cocycles", "morphisms", lambda rec: (rec["outputs"]["tables"].pop(), rec["outputs"].update(count=rec["outputs"]["count"] - 1))),
    ],
)
def test_checks_reject_a_wrong_record(name, label, corrupt, tmp_path):
    op, rec = _record(_runner(name, tmp_path), label)
    bad = copy.deepcopy(rec)
    corrupt(bad)
    with pytest.raises(checks.CheckFailed):
        checks.check(op, bad)


def test_checks_reject_a_wrong_smith_normal_form(tmp_path):
    op, (U, S, V) = _record(_runner("algebra", tmp_path), "snf/4x4")
    S = [row[:] for row in S]
    S[0][0] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check(op, (U, S, V))


def test_dense_smith_normal_form_fault_times_out(tmp_path):
    matrix = workloads._dense(random.Random(workloads.SNF_FAULT_SEEDS[0]), 6)
    fault = workloads._snf_op("snf/6x6/fault", matrix, expect_fail=True)
    fault.limit_s = 0.2
    r = run.Runner(workloads.Workload("algebra", [fault], []), tmp_path / "fault")
    stats = r.measure(0, min_ops=1)
    assert stats["attempted"] == stats["failed"] == 1 and stats["correct"]


def test_without_the_library_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()
    assert not (Path(tmp_path) / "src").exists()
