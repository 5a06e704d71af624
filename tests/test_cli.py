import csv
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fairsaoml import __version__, cli
from fairsaoml.engine import run
from fairsaoml.intervals import IntervalScheme
from oracles import aggregate_metrics_csv_by_round, expected_census, load_config_by_blocks

SRC = Path(cli.__file__).resolve().parents[1]  # the directory holding `fairsaoml`


def write_config(tmp_path, **overrides):
    cfg = {
        "scheme": "dgc",
        "seed": 2,
        "reps": 2,
        "n_meta": 3,
        "metrics": {"tau": [3], "tail_fraction": 0.5},
        "stream": {
            "batch_size": 140,
            "environments": [
                {"n_tasks": 4, "dim": 4, "boundary": [1, 1, 0, 0],
                 "group_bias": 0.5, "noise": 0.05},
            ],
        },
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_artifacts_and_exit_code(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        for name in ("metrics.csv", "regret.json", "config-echo.json", "manifest.json"):
            assert (out / name).exists()
        for seed in (2, 3):
            assert (out / f"rep{seed}" / "rounds.csv").exists()
            assert (out / f"rep{seed}" / "trace.npz").exists()
        assert json.loads((out / "manifest.json").read_text())["version"] == __version__

    def test_rounds_csv_contract(self, tmp_path):
        path, cfg = write_config(tmp_path)
        cli.main(["run", "--config", str(path)])
        rows = read_rows(tmp_path / "out" / "rep2" / "rounds.csv")
        assert rows[0] == ["t", "val_loss", "val_acc", "dp", "eo", "g_1",
                           "n_experts", "n_active", "max_weight", "theta_norm",
                           "lambda_1", "wall_ms"]
        assert len(rows) == 5  # header + 4 rounds
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
        for r in rows[1:]:
            # undefined dp/eo fields are empty, everything else parses
            for i, v in enumerate(r):
                if i in (3, 4) and v == "":
                    continue
                float(v)

    def test_echo_reproduces_run(self, tmp_path):
        path, cfg = write_config(tmp_path)
        cli.main(["run", "--config", str(path)])
        echo = tmp_path / "out" / "config-echo.json"
        redo = json.loads(echo.read_text())
        redo["out"] = str(tmp_path / "out2")
        path2 = tmp_path / "config2.json"
        path2.write_text(json.dumps(redo))
        assert cli.main(["run", "--config", str(path2)]) == 0
        a = read_rows(tmp_path / "out" / "rep2" / "rounds.csv")
        b = read_rows(tmp_path / "out2" / "rep2" / "rounds.csv")
        # identical apart from wall-clock timing
        assert [r[:-1] for r in a] == [r[:-1] for r in b]

    def test_flag_overrides(self, tmp_path):
        path, cfg = write_config(tmp_path, reps=1)
        out = tmp_path / "alt"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--scheme", "di", "--seed", "7", "--reps", "1"]) == 0
        rows = read_rows(out / "rep7" / "rounds.csv")
        assert rows[-1][6] == "4"  # DI pool census equals t

    def test_single_expert_mode_flag(self, tmp_path):
        path, cfg = write_config(tmp_path, reps=1)
        out = tmp_path / "se"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--mode", "single-expert"]) == 0
        rows = read_rows(out / "rep2" / "rounds.csv")
        assert all(r[6] == "1" for r in rows[1:])

    def test_ablation_flag(self, tmp_path):
        path, cfg = write_config(tmp_path, reps=1)
        out = tmp_path / "ab"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--ablation", "both"]) == 0
        echo = json.loads((out / "config-echo.json").read_text())
        assert echo["ablation"] == {"disable_weights": True,
                                    "disable_base_learner": True}

    @pytest.mark.parametrize("flag,value", [("--reps", "-1"), ("--reps", "0"),
                                            ("--base", "0")])
    def test_bad_flag_value_is_config_error(self, tmp_path, flag, value):
        path, _ = write_config(tmp_path, reps=1)
        assert cli.main(["run", "--config", str(path), flag, value]) == 2
        assert not (tmp_path / "out").exists()

    def test_fairness_entry_defaults(self, tmp_path):
        path, _ = write_config(tmp_path, reps=1, fairness=[{"kind": "deo"}])
        assert cli.main(["run", "--config", str(path)]) == 0
        echo = json.loads((tmp_path / "out" / "config-echo.json").read_text())
        assert echo["fairness"] == [{"kind": "deo", "epsilon": 0.05}]

    def test_agc_horizon_is_the_csv_batch_count(self, tmp_path):
        path, _ = write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--config", str(path), "--out", str(data)]) == 0
        cfg = json.loads(path.read_text())
        del cfg["stream"]
        cfg.update(scheme="agc", reps=1,
                   csv={"path": str(data), "feature_columns": ["f0", "f1", "f2", "f3"]})
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path)]) == 0
        rows = read_rows(tmp_path / "out" / "rep2" / "rounds.csv")[1:]
        assert [int(r[6]) for r in rows] == [
            expected_census(IntervalScheme("agc"), t, len(rows))["total"]
            for t in range(1, len(rows) + 1)]

    def test_dgc_base_beyond_int64(self, tmp_path):
        # only length 1 divides every round, so one expert restarts each round
        path, _ = write_config(tmp_path, reps=1, base=2 ** 70)
        assert cli.main(["run", "--config", str(path)]) == 0
        rows = read_rows(tmp_path / "out" / "rep2" / "rounds.csv")[1:]
        assert [(r[6], r[7]) for r in rows] == [("1", "1")] * 4


class TestGenData:
    def test_deterministic_output(self, tmp_path):
        path, cfg = write_config(tmp_path)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["gen-data", "--config", str(path), "--out", str(p1)]) == 0
        assert cli.main(["gen-data", "--config", str(path), "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_flag_seeds_the_stream(self, tmp_path):
        path, _ = write_config(tmp_path)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["gen-data", "--config", str(path), "--out", str(p1)]) == 0
        assert cli.main(["gen-data", "--config", str(path), "--out", str(p2),
                         "--seed", "99"]) == 0
        assert p1.read_bytes() != p2.read_bytes()

    def test_run_only_flags_rejected(self, tmp_path):
        path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--config", str(path), "--scheme", "agc"])
        assert exc.value.code == 2

    def test_csv_config_rejected(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        del cfg["stream"]
        cfg["csv"] = {"path": "x.csv", "feature_columns": ["a"]}
        path.write_text(json.dumps(cfg))
        assert cli.main(["gen-data", "--config", str(path)]) == 2


class TestReport:
    def test_regenerates_equal_reports(self, tmp_path):
        path, cfg = write_config(tmp_path, reps=2,
                                 fairness=[{"kind": "ddp", "epsilon": 0.05},
                                           {"kind": "deo", "epsilon": 0.1}])
        assert cli.main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        before = {name: (out / name).read_bytes() for name in ("regret.json", "metrics.csv")}
        assert set(json.loads(before["regret.json"])) == {"2", "3"}
        for name in before:
            (out / name).unlink()
        assert cli.main(["report", "--artifacts", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_missing_artifacts(self, tmp_path):
        assert cli.main(["report", "--artifacts", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("key, corrupt, message", [
        ("val_features", lambda a: a.__setitem__((4, 1), np.nan), "non-finite feature"),
        ("val_labels", lambda a: a.__setitem__(3, 0), "must be in {-1, +1}"),
        ("offsets", lambda a: a.__setitem__(2, a[1]), "empty batch at round 2"),
    ])
    def test_corrupt_trace_exits_2(self, tmp_path, capsys, key, corrupt, message):
        path, _ = write_config(tmp_path, reps=1)
        assert cli.main(["run", "--config", str(path)]) == 0
        trace = tmp_path / "out" / "rep2" / "trace.npz"
        with np.load(trace) as data:
            arrays = dict(data)
        corrupt(arrays[key])
        np.savez(trace, **arrays)
        capsys.readouterr()
        assert cli.main(["report", "--artifacts", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err

    def test_report_leaves_jsonschema_unimported(self, tmp_path):
        path, _ = write_config(tmp_path, reps=1)
        assert cli.main(["run", "--config", str(path)]) == 0
        code = ("import sys; from fairsaoml.cli import main; "
                f"assert main(['report', '--artifacts', {str(tmp_path / 'out')!r}]) == 0; "
                "assert 'jsonschema' not in sys.modules, 'jsonschema imported'")
        proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("reps", [1, 2, 3, 5, 7, 8, 12])
    def test_metrics_csv_matches_per_round_reduction(self, tmp_path, reps):
        """Below 8 repetitions the column reductions add in the same order as one
        np.mean/np.std per round, so the file is the same byte for byte; from 8 on,
        pairwise summation may move the last bits (at most 4 ulps in a 2,000-column
        sample), so the values agree to 8 machine epsilons."""
        rng = np.random.default_rng(reps)
        header = cli.rounds_csv_header(1)
        dirs = []
        for i in range(reps):
            d = tmp_path / f"rep{i}"
            d.mkdir()
            with open(d / "rounds.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for t in range(1, 41):
                    row = {c: "%.17g" % rng.lognormal() for c in header}
                    row["t"] = str(t)
                    row["dp"] = "" if t <= 5 or rng.random() < 0.4 else row["dp"]
                    row["eo"] = "" if t % 7 == 0 else row["eo"]
                    writer.writerow([row[c] for c in header])
            dirs.append(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.aggregate_metrics_csv(dirs, tmp_path / "metrics.csv")
        aggregate_metrics_csv_by_round(dirs, tmp_path / "oracle.csv")
        got, want = read_rows(tmp_path / "metrics.csv"), read_rows(tmp_path / "oracle.csv")
        assert all(r[5:7] == ["", ""] for r in got[1:6])  # no repetition has dp there
        if reps < 8:
            assert (tmp_path / "metrics.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert got[0] == want[0] and len(got) == len(want)
        eps = np.finfo(float).eps
        for a, b in zip(got[1:], want[1:]):
            assert [v == "" for v in a] == [v == "" for v in b]
            assert [float(v) for v in a if v] == pytest.approx([float(v) for v in b if v],
                                                               rel=8 * eps, abs=0)

    def test_cumulative_violation_per_constraint(self, tmp_path):
        path, _ = write_config(tmp_path, reps=1,
                               fairness=[{"kind": "deo", "epsilon": 0.05},
                                         {"kind": "ddp", "epsilon": 0.01}])
        assert cli.main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "regret.json").read_text())["2"]
        with np.load(out / "rep2" / "trace.npz") as trace:
            g_prev = trace["g_prev"]
        per = report["cumulative_violation_per_constraint"]
        assert len(per) == g_prev.shape[1] == 2
        for entry, col in zip(per, g_prev.T):
            assert entry["raw"] == pytest.approx(col.sum(), rel=1e-12, abs=1e-15)
            assert entry["clipped"] == pytest.approx(np.clip(col, 0.0, None).sum(),
                                                     rel=1e-12, abs=1e-15)
        # the constraint-1 total keeps its own key
        assert per[0] == report["cumulative_violation"]

    def test_echo_with_horizon_key(self, tmp_path):
        # older versions echoed the `horizon` and `first_order` keys; report ignores them
        path, _ = write_config(tmp_path, reps=1)
        assert cli.main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        echo_path = out / "config-echo.json"
        before = {name: (out / name).read_bytes() for name in ("regret.json", "metrics.csv")}
        for key, value in (("horizon", None), ("first_order", True)):
            echo = json.loads(echo_path.read_text())
            echo[key] = value
            echo_path.write_text(json.dumps(echo))
            for name in before:
                (out / name).unlink()
            assert cli.main(["report", "--artifacts", str(out)]) == 0
            assert {name: (out / name).read_bytes() for name in before} == before

    def test_echo_without_metrics_and_loss(self, tmp_path):
        # report fills an echo's missing keys from the schema defaults, as run does
        path, cfg = write_config(tmp_path, reps=1)
        del cfg["metrics"]
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        before = (out / "regret.json").read_bytes()
        echo = json.loads((out / "config-echo.json").read_text())
        del echo["metrics"], echo["loss"]
        (out / "config-echo.json").write_text(json.dumps(echo))
        (out / "regret.json").unlink()
        assert cli.main(["report", "--artifacts", str(out)]) == 0
        assert (out / "regret.json").read_bytes() == before


class TestTrace:
    def test_round_trip_is_exact(self, tmp_path):
        path, _ = write_config(tmp_path, fairness=[{"kind": "ddp", "epsilon": 0.05},
                                                   {"kind": "deo", "epsilon": 0.1}])
        cfg = cli.load_config(str(path))
        batches = cli.build_batches(cfg)
        records = run(cli.build_run_config(cfg, cfg["seed"]), batches)
        assert len(records) >= 4
        cli.write_trace(records, tmp_path / "trace.npz")
        thetas, val, g_prev = cli.read_trace(tmp_path / "trace.npz")
        assert len(thetas) == val.n_rounds == len(g_prev) == len(records)
        o = val.offsets
        for t, (r, theta, g) in enumerate(zip(records, thetas, g_prev)):
            assert np.array_equal(theta, r.theta_prev)
            assert g.tolist() == r.g_prev
            rows = slice(o[t], o[t + 1])
            assert np.array_equal(val.features[rows], r.validation.features)
            assert np.array_equal(val.labels[rows], r.validation.labels)
            assert np.array_equal(val.protected[rows], r.validation.protected)
        with np.load(tmp_path / "trace.npz") as data:
            assert data["rounds"].tolist() == [r.t for r in records]

    def test_round_count_mismatch_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, reps=1)
        assert cli.main(["run", "--config", str(path)]) == 0
        trace = tmp_path / "out" / "rep2" / "trace.npz"
        with np.load(trace) as data:
            arrays = dict(data)
        arrays["theta_prev"] = arrays["theta_prev"][:-1]
        np.savez(trace, **arrays)
        with pytest.raises(cli.ConfigurationError, match="number of rounds"):
            cli.read_trace(trace)


class TestSweep:
    def test_sweep_creates_per_base_runs(self, tmp_path):
        path, cfg = write_config(tmp_path, reps=1)
        assert cli.main(["sweep-base", "--config", str(path),
                         "--bases", "2,3"]) == 0
        out = tmp_path / "out"
        assert (out / "base2" / "metrics.csv").exists()
        assert (out / "base3" / "metrics.csv").exists()
        summary = json.loads((out / "sweep.json").read_text())
        assert set(summary) == {"2", "3"}

    def test_csv_is_read_once(self, tmp_path, monkeypatch):
        path, cfg = write_config(tmp_path, reps=1)
        data = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--config", str(path), "--out", str(data)]) == 0
        del cfg["stream"]
        cfg["csv"] = {"path": str(data), "feature_columns": ["f0", "f1", "f2", "f3"]}
        path.write_text(json.dumps(cfg))
        calls = []
        load_csv = cli.load_csv
        monkeypatch.setattr(cli, "load_csv", lambda *a: calls.append(a) or load_csv(*a))
        assert cli.main(["sweep-base", "--config", str(path), "--bases", "2,3,4"]) == 0
        assert len(calls) == 1

    def test_bad_base_rejected(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert cli.main(["sweep-base", "--config", str(path), "--bases", "1"]) == 2

    def test_base_flag_rejected(self, tmp_path):
        # sweep-base takes no --base, and it is not read as an abbreviation of --bases
        path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep-base", "--config", str(path), "--base", "7"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        path, cfg = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["mystery"] = 1
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(path)]) == 2
        # AGC's horizon is the number of batches, so no config states it
        path, _ = write_config(tmp_path, scheme="agc", horizon=4)
        assert cli.main(["run", "--config", str(path)]) == 2
        # the full-Jacobian mode and its key are gone
        path, _ = write_config(tmp_path, first_order=False)
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_arithmetic_error_is_numerical_failure(self, tmp_path, monkeypatch):
        def overflow(r, c):
            raise OverflowError("math range error")
        monkeypatch.setattr("fairsaoml.hedge.normalize", overflow)
        path, _ = write_config(tmp_path, reps=1)
        assert cli.main(["run", "--config", str(path)]) == 3

    @pytest.mark.parametrize("base,n_tasks", [(3, 2), (2, 1)])
    def test_agc_with_fewer_batches_than_base(self, tmp_path, capsys, base, n_tasks):
        env = {"n_tasks": n_tasks, "dim": 4, "boundary": [1, 1, 0, 0]}
        path, _ = write_config(tmp_path, scheme="agc", base=base,
                               stream={"batch_size": 140, "environments": [env]})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"AGC with base {base} needs at least {base} batches, got {n_tasks}" \
            in capsys.readouterr().err
        assert not (tmp_path / "out" / "rep2").exists()

    def test_csv_without_round_column_needs_batch_size(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--config", str(path), "--out", str(data)]) == 0
        cfg = json.loads(path.read_text())
        del cfg["stream"]
        cfg["csv"] = {"path": str(data), "feature_columns": ["f0", "f1", "f2", "f3"],
                      "round_column": None}
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "batch_size" in capsys.readouterr().err
        cfg["csv"]["batch_size"] = 140
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path)]) == 0

    def test_missing_data_sections(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scheme": "dgc"}))
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_zero_epsilon_needs_s_radius(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, fairness=[{"kind": "ddp", "epsilon": 0}])
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "fairness[0].epsilon" in err and "s_radius" in err
        assert not (tmp_path / "out").exists()
        path, _ = write_config(tmp_path, fairness=[{"kind": "ddp", "epsilon": 0}],
                               s_radius=0.5)
        assert cli.main(["run", "--config", str(path)]) == 0

    def test_schema_error_message(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, n_meta=0)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: invalid config: 0 is less than the minimum of 1\n"

    def test_rare_group_aborts_the_run(self, tmp_path, capsys):
        # one s=+1 row in three rounds of 20: round 1's validation rows or its
        # support lack the group, so the DDP surrogate is undefined
        rng = np.random.default_rng(0)
        rows = ["f0,f1,s,y,t"] + [
            f"{a:.6f},{b:.6f},{1 if (t, i) == (1, 7) else -1},{1 if i % 2 else -1},{t}"
            for t in (1, 2, 3) for i, (a, b) in enumerate(rng.standard_normal((20, 2)))]
        data = tmp_path / "rare.csv"
        data.write_text("\n".join(rows) + "\n")
        path, cfg = write_config(tmp_path, reps=1,
                                 split={"support_per_class": 2, "query_size": 5})
        del cfg["stream"]
        cfg["csv"] = {"path": str(data), "feature_columns": ["f0", "f1"]}
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: fairness surrogate undefined: p1 in {0, 1}\n"
        assert not (tmp_path / "out" / "rep2").exists()


def test_config_schema_is_a_valid_schema():
    """load_config validates instances only; the schema is checked here."""
    from jsonschema.validators import validator_for
    validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


def test_loaded_defaults_are_fresh(tmp_path):
    """A default changed in one loaded config does not reach the next one."""
    path, cfg = write_config(tmp_path)
    del cfg["metrics"]
    path.write_text(json.dumps(cfg))
    first = cli.load_config(str(path))
    first["metrics"]["tau"].append(99)
    first["loss"]["l2"] = 1.0
    first["split"]["query_size"] = 1
    first["fairness"][0]["epsilon"] = 1.0
    first["stream"]["environments"][0]["group_balance"] = 0.9
    assert cli.load_config(str(path)) == load_config_by_blocks(str(path))


@pytest.mark.filterwarnings("error")
def test_saturated_sigmoid_emits_no_warning(tmp_path):
    """Scores of 1e3 and steps of 1e6 overflow exp in the loss gradient and the
    solver gradient; the sigmoid there is 0 and no RuntimeWarning may escape."""
    env = {"n_tasks": 4, "dim": 4, "boundary": [1e3, 1e3, 0, 0], "group_bias": 0.5,
           "noise": 0.05}
    path, _ = write_config(tmp_path, reps=1, eta1=1e6, loss={"l2": 1e9},
                           stream={"batch_size": 140, "environments": [env]})
    assert cli.main(["run", "--config", str(path)]) == 0
    assert cli.main(["report", "--artifacts", str(tmp_path / "out")]) == 0


class TestFlags:
    def test_every_flag_is_a_validated_config_key(self):
        """Each option maps through overrides() to a CONFIG_SCHEMA property."""
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        checked = 0
        for name, sub in commands.items():
            for action in sub._actions:
                if action.dest == "help" or action.dest in cli.NOT_CONFIG:
                    continue
                value = action.choices[-1] if action.choices else (action.type or str)("1")
                mapped = cli.overrides(sub.parse_args(
                    ["--config", "c.json", action.option_strings[0], str(value)]))
                assert mapped and set(mapped) <= set(cli.CONFIG_SCHEMA["properties"]), \
                    f"{name} {action.option_strings[0]} -> {mapped}"
                checked += 1
        # gen-data: out, seed; run: seven; sweep-base: six (its bases come from --bases)
        assert checked == 15
