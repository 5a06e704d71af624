"""Golden records: six short runs through `fairsaoml run`, each kept as its
`rounds.csv` without the `wall_ms` column and its `regret.json`.

    PYTHONPATH=src python tests/golden/regenerate.py

reruns every case and rewrites the files under `tests/golden/<case>/`.
`tests/test_golden.py` runs the same cases and compares them against these
files: integer columns exactly, floats to 1e-12. A change that alters results
on purpose regenerates the files in the same commit and says which changed
and why.
"""
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from fairsaoml import cli

HERE = Path(__file__).resolve().parent

ENVIRONMENTS = [
    {"n_tasks": 12, "dim": 4, "boundary": [1, 1, 0, 0], "group_bias": 0.3, "noise": 0.05},
    {"n_tasks": 12, "dim": 4, "boundary": [-1, 0, 1, 0], "group_bias": 0.7, "noise": 0.05},
]


def _config(scheme, n_tasks, **overrides):
    cfg = {
        "scheme": scheme,
        "seed": 3,
        "reps": 1,
        "n_meta": 3,
        "eta1": 0.05,
        "eta2": 0.05,
        "delta": 0.5,
        "s_radius": 0.5,
        "fairness": [{"kind": "ddp", "epsilon": 0.05}],
        "split": {"support_per_class": 8, "query_size": 30},
        "metrics": {"tau": [4], "tail_fraction": 0.5},
        "stream": {"batch_size": 100,
                   "environments": [dict(e, n_tasks=n_tasks) for e in ENVIRONMENTS]},
    }
    cfg.update(overrides)
    return cfg


# case name -> (config, extra `run` flags); "csv" ingests the CSV that
# `gen-data` writes from its stream section
CASES = {
    "di": (_config("di", 8), []),
    "agc3": (_config("agc", 9, base=3, reps=2), []),
    "dgc3-deo-ddp": (_config("dgc", 12, base=3, inner_steps=3,
                             fairness=[{"kind": "deo", "epsilon": 0.1},
                                       {"kind": "ddp", "epsilon": 0.05}]), []),
    "single-expert": (_config("dgc", 8), ["--mode", "single-expert"]),
    "ablation-both": (_config("dgc", 8, base=2), ["--ablation", "both"]),
    "csv": (_config("dgc", 10, fairness=[{"kind": "deo", "epsilon": 0.08}],
                    metrics={"tau": [1, 5], "tail_fraction": 0.5}), []),
}


def run_case(name, workdir):
    """Run case `name` under `workdir`; returns {file name: text} of its golden files."""
    cfg, flags = CASES[name]
    cfg = dict(cfg, out=str(workdir / "out"))
    if name == "csv":
        data = workdir / "data.csv"
        gen = workdir / "gen.json"
        gen.write_text(json.dumps(dict(cfg, out=str(data))))
        assert cli.main(["gen-data", "--config", str(gen)]) == 0
        cfg.pop("stream")
        cfg["csv"] = {"path": str(data), "feature_columns": ["f0", "f1", "f2", "f3"]}
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), *flags]) == 0
    out = workdir / "out"
    files = {"regret.json": (out / "regret.json").read_text(encoding="utf-8")}
    for seed in range(cfg["seed"], cfg["seed"] + cfg["reps"]):
        with open(out / f"rep{seed}" / "rounds.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "wall_ms"
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(r[:-1] for r in rows)
        files[f"rep{seed}.rounds.csv"] = text.getvalue()
    return files


def main():
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, Path(tmp))
        case_dir = HERE / name
        case_dir.mkdir(exist_ok=True)
        for old in case_dir.iterdir():
            old.unlink()
        for file_name, text in files.items():
            (case_dir / file_name).write_text(text, encoding="utf-8")
        print(f"{name}: {', '.join(sorted(files))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
