"""Tests of the benchmark itself: every check fails on an artifact corrupted on
purpose, the wrappers nest and come off cleanly, and a tiny run ends correct.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench
import tracing
from conftest import ROOT
from workloads import WORKLOADS, gen_config, run_config

TINY = {
    "di": dataclasses.replace(WORKLOADS["di-drift"], name="tiny-di", tasks_per_env=4),
    "dgc": dataclasses.replace(WORKLOADS["dgc-demo"], name="tiny-dgc", tasks_per_env=5,
                               reps=2, taus=(4,)),
    "csv": dataclasses.replace(WORKLOADS["dgc-long-csv"], name="tiny-csv", envs=3,
                               tasks_per_env=4, taus=(4, 8)),
}
SEED = 3


def _run(wl, out: Path) -> Path:
    from fairsaoml.cli import main
    csv_path = out.parent / f"{wl.name}.csv"
    if wl.from_csv:
        gen = bench._write_json(out.parent / f"{wl.name}-gen.json",
                                gen_config(wl, SEED, str(csv_path)))
        assert main(["gen-data", "--config", str(gen)]) == 0
    cfg = bench._write_json(out.parent / f"{wl.name}.json",
                            run_config(wl, SEED, str(out), str(csv_path)))
    assert main(["run", "--config", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("art")
    return {k: _run(wl, base / k) for k, wl in TINY.items()}


@pytest.fixture
def corrupt(artifacts, tmp_path):
    """A fresh copy of the tiny DGC artifacts to damage."""
    dst = tmp_path / "dgc"
    shutil.copytree(artifacts["dgc"], dst)
    return dst


def _edit_rounds(path: Path, row: int, column: str, fn):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = fn(rows[row][column])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def _edit_regret(art: Path, fn):
    path = art / "regret.json"
    data = json.loads(path.read_text())
    fn(data[str(SEED)])
    path.write_text(json.dumps(data))


def _edit_trace(path: Path, key: str, fn):
    with np.load(path) as d:
        arrays = {k: d[k] for k in d.files}
    arrays[key] = fn(arrays[key].copy())
    np.savez_compressed(path, **arrays)


def _failing(art: Path, wl=TINY["dgc"]):
    return checks.check_artifacts(art, wl, SEED)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_clean_artifacts_pass(artifacts, kind):
    assert _failing(artifacts[kind], TINY[kind]) == []


def test_csv_rows_pass_and_fail(artifacts, tmp_path):
    wl = TINY["csv"]
    src = artifacts["csv"].parent / f"{wl.name}.csv"
    assert checks.check_csv_rows(src, wl) == []
    lines = src.read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_csv_rows(short, wl)


def _set_static(r):
    r["static_regret"] += 1e-3


def _drop_window_max(r):
    r["fair_sar"]["4"]["max_loss_regret"] -= 10.0


def _shift_constraint_sum(r):
    r["fair_sar"]["4"]["max_constraint_sums"][0] += 1e-3


def _shift_violation(r):
    r["cumulative_violation"]["raw"] += 1e-3


def _flip_verdict(r):
    r["eighty_percent_rule"] = not r["eighty_percent_rule"]


@pytest.mark.parametrize("edit,prefix", [
    (_set_static, "regret"), (_drop_window_max, "regret"),
    (_shift_constraint_sum, "regret"), (_shift_violation, "regret"),
    (_flip_verdict, "eighty_percent"),
])
def test_regret_json_corruptions_fail(corrupt, edit, prefix):
    _edit_regret(corrupt, edit)
    assert any(f.startswith(prefix) for f in _failing(corrupt))


@pytest.mark.parametrize("column,fn,prefix", [
    ("val_acc", lambda v: repr(1.0 - float(v)), "telemetry"),
    ("val_loss", lambda v: repr(float(v) + 1e-6), "telemetry"),
    ("g_1", lambda v: repr(float(v) + 1e-6), "telemetry"),
    ("n_experts", lambda v: str(int(v) + 1), "census"),
    ("n_active", lambda v: str(int(v) + 1), "census"),
    ("theta_norm", lambda v: "1.0", "properties"),
    ("lambda_1", lambda v: "-0.001", "properties"),
    ("max_weight", lambda v: "1.5", "properties"),
    ("dp", lambda v: "1.25", "properties"),
    ("t", lambda v: "99", "ingestion"),
])
def test_rounds_csv_corruptions_fail(corrupt, column, fn, prefix):
    _edit_rounds(corrupt / f"rep{SEED}" / "rounds.csv", 3, column, fn)
    assert any(f.startswith(prefix) for f in _failing(corrupt))


def test_theta_outside_ball_fails(corrupt):
    radius = TINY["dgc"].radius

    def push_out(theta):
        theta[4] = np.full(theta.shape[1], 2.0 * radius / np.sqrt(theta.shape[1]))
        return theta
    _edit_trace(corrupt / f"rep{SEED}" / "trace.npz", "theta_prev", push_out)
    assert any(f.startswith("properties") and "traced theta norm" in f
               for f in _failing(corrupt))


def test_wrong_g_prev_and_rows_fail(corrupt, tmp_path):
    trace = corrupt / f"rep{SEED}" / "trace.npz"
    backup = tmp_path / "trace.npz"
    shutil.copy(trace, backup)
    _edit_trace(trace, "g_prev", lambda g: g + 1e-6)
    assert any(f.startswith("telemetry") for f in _failing(corrupt))
    shutil.copy(backup, trace)

    def move_boundary(off):
        off[2] += 1
        return off
    _edit_trace(trace, "offsets", move_boundary)
    assert any(f.startswith("ingestion") for f in _failing(corrupt))


def test_metrics_csv_corruption_fails(corrupt):
    _edit_rounds(corrupt / "metrics.csv", 2, "mean_val_acc", lambda v: repr(float(v) + 0.01))
    assert any(f.startswith("metrics_csv") for f in _failing(corrupt))


def test_same_outputs_detects_a_difference(artifacts, corrupt):
    seeds = TINY["dgc"].rep_seeds(SEED)
    assert checks.same_outputs(artifacts["dgc"], corrupt, seeds) == []
    _edit_regret(corrupt, _set_static)
    assert checks.same_outputs(artifacts["dgc"], corrupt, seeds)


def test_census_formulas():
    assert checks.census("di", 2, 7) == (7, 7)
    # DGC base 2 at t = 12: lengths 1, 2, 4, 8 exist; 1, 2, 4 divide 12
    assert checks.census("dgc", 2, 12) == (4, 3)
    assert checks.census("dgc", 3, 9) == (3, 3)


def test_patch_records_nested_spans_and_restores(tmp_path):
    from fairsaoml import cli, engine, model_core
    originals = (engine.split_batch, model_core.split_batch, engine.Engine.round)
    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)
    patch.apply()
    try:
        assert engine.split_batch is not originals[0]
        assert engine.split_batch is model_core.split_batch
        _run(TINY["dgc"], tmp_path / "out")
    finally:
        patch.undo()
    assert (engine.split_batch, model_core.split_batch, engine.Engine.round) == originals
    totals = tracer.take("run")
    wl = TINY["dgc"]
    assert totals["engine.rounds"] == wl.rounds * wl.reps
    active = sum(checks.census("dgc", 2, t)[1] for t in range(1, wl.rounds + 1))
    assert totals["engine.active_expert_rounds"] == active * wl.reps
    assert totals["model_core.split_batch:calls"] == wl.rounds * wl.reps * (wl.n_meta + 1)
    assert totals["model_core.subset_calls"] == 3 * totals["model_core.split_batch:calls"]
    # engine.round encloses split_batch on the same thread, so its self time is smaller
    assert 0.0 < totals["engine.round:self"] < totals["engine.round:total"]
    phase, spans = tracer.phases[-1]
    for name, start, end, parent, thread in spans:
        if parent is not None:
            p = spans[parent]
            assert p[4] == thread and p[1] <= start <= end <= p[2]
    metrics = tracing.layer_metrics(totals)
    assert metrics["cli.trace_bytes"] > 0 and metrics["engine.ms_per_round"] > 0
    assert set(metrics) == {k for k in tracing.LAYER_METRICS if not k.startswith("trace.")}
    assert not hasattr(cli.read_trace, "__wrapped__")  # undo() left no wrapper behind


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct(trace):
    """Smoke run at tiny sizes: one cycle, all checks pass, metric names as declared."""
    wl = TINY["csv"]
    result = bench.execute(wl, SEED, 0.01, trace, ROOT)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for k, m in result["metrics"].items()
               if not k.startswith("trace."))


def test_without_sources_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "di-drift", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
