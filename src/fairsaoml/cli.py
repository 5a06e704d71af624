"""Batch front end: data generation, runs, base sweeps, and metric reports."""
from __future__ import annotations

import argparse
import csv
import json
import operator
import sys
import warnings
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .engine import (AblationFlags, MODE_FAIRSAOML, MODE_SINGLE_EXPERT,
                     RoundRecord, RunConfig, SplitSizes, run)
from .errors import ConfigurationError, NumericalFailureError
from .intervals import AGC, DGC, DI, IntervalScheme
from .metrics import (cumulative_violation, eighty_percent_check,
                      fair_sar_estimate, round_losses, static_regret)
from .model_core import DDP, DEO, FairnessSpec, LossSpec, Rounds, TaskBatch
from .optimizer import Ball, LagrangianConfig
from .stream import (FLOAT_FORMAT, CsvSchema, EnvSpec, Stream, StreamSpec, generate_stream,
                     load_csv, save_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scheme"],
    "properties": {
        "scheme": {"enum": [DI, AGC, DGC]},
        "base": {"type": "integer", "minimum": 2, "default": IntervalScheme.base},
        "mode": {"enum": [MODE_FAIRSAOML, MODE_SINGLE_EXPERT], "default": RunConfig.mode},
        "n_meta": {"type": "integer", "minimum": 1, "default": RunConfig.n_meta},
        "inner_steps": {"type": "integer", "minimum": 1,
                        "default": LagrangianConfig.inner_steps},
        "delta": {"type": "number", "exclusiveMinimum": 0, "default": LagrangianConfig.delta},
        "eta1": {"type": "number", "exclusiveMinimum": 0, "default": LagrangianConfig.eta1},
        "eta2": {"type": "number", "exclusiveMinimum": 0, "default": LagrangianConfig.eta2},
        "s_radius": {"type": ["number", "null"], "exclusiveMinimum": 0,
                     "default": RunConfig.s_radius},
        "loss": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                "kind": {"enum": ["logistic"], "default": LossSpec.kind},
                "l2": {"type": "number", "minimum": 0, "default": LossSpec.l2_coefficient},
            },
        },
        "fairness": {
            "type": "array",
            "minItems": 1,
            "default": [{}],
            "items": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": [DDP, DEO], "default": FairnessSpec.kind},
                    "epsilon": {"type": "number", "minimum": 0,
                                "default": FairnessSpec.epsilon},
                },
            },
        },
        "split": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                "support_per_class": {"type": "integer", "minimum": 1,
                                      "default": SplitSizes.support_per_class},
                "query_size": {"type": "integer", "minimum": 1,
                               "default": SplitSizes.query_size},
            },
        },
        "seed": {"type": "integer", "default": RunConfig.seed},
        "reps": {"type": "integer", "minimum": 1, "default": 10},
        "ablation": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                "disable_weights": {"type": "boolean",
                                    "default": AblationFlags.disable_weights},
                "disable_base_learner": {"type": "boolean",
                                         "default": AblationFlags.disable_base_learner},
            },
        },
        "stream": {
            "type": "object",
            "additionalProperties": False,
            "required": ["environments"],
            "properties": {
                "batch_size": {"type": "integer", "minimum": 4, "default": 200},
                "seed": {"type": "integer"},  # defaults to the top-level seed
                "environments": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["n_tasks", "dim", "boundary"],
                        "properties": {
                            "n_tasks": {"type": "integer", "minimum": 1},
                            "dim": {"type": "integer", "minimum": 1},
                            "boundary": {"type": "array", "items": {"type": "number"}},
                            "group_bias": {"type": "number", "default": EnvSpec.group_bias},
                            "group_balance": {"type": "number", "exclusiveMinimum": 0,
                                              "exclusiveMaximum": 1,
                                              "default": EnvSpec.group_balance},
                            "noise": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5,
                                      "default": EnvSpec.noise},
                        },
                    },
                },
            },
        },
        # CsvSchema holds the defaults of the optional csv keys
        "csv": {
            "type": "object",
            "additionalProperties": False,
            "required": ["path", "feature_columns"],
            "properties": {
                "path": {"type": "string"},
                "feature_columns": {"type": "array", "items": {"type": "string"}},
                "protected_column": {"type": "string"},
                "label_column": {"type": "string"},
                "round_column": {"type": ["string", "null"]},
                "batch_size": {"type": ["integer", "null"], "minimum": 1},
                "mapping": {"type": "object",
                            "additionalProperties": {"enum": [-1, 1]}},
            },
        },
        "metrics": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                "tau": {"type": "array", "items": {"type": "integer", "minimum": 1},
                        "default": [16]},
                "tail_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1,
                                  "default": 0.25},
            },
        },
        "out": {"type": "string", "default": "out"},
    },
}
# config-echo.json of older versions also held these keys, which `report` ignores
ECHO_SCHEMA = {**CONFIG_SCHEMA,
               "properties": {**CONFIG_SCHEMA["properties"], "horizon": {}, "first_order": {}}}
# the JSON types of each Python type that json.load gives: neither 2.0 nor true is an integer
JSON_TYPES = {dict: {"object"}, list: {"array"}, str: {"string"}, bool: {"boolean"},
              type(None): {"null"}, int: {"integer", "number"}, float: {"number"}}
# bound keyword -> (whether a value breaks it, JSON Schema's words for that)
BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
          "maximum": (operator.gt, "greater than the maximum of"),
          "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
          "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of")}


def fill(schema: dict, value):
    """`value` checked against `schema`, with the schema's defaults filled in at
    every level: an object gets its defaults first, then its own keys. The first
    keyword that a value breaks raises a ConfigurationError in JSON Schema's words."""
    def reject(message):
        raise ConfigurationError(f"invalid config: {message}")

    kinds = JSON_TYPES.get(type(value), set())
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [])
    if types and kinds.isdisjoint(types):
        reject(f"{value!r} is not of type {', '.join(map(repr, types))}")
    # as in JSON Schema, 1.0 equals 1 but true does not
    if "enum" in schema and not any(e == value and isinstance(e, bool) == isinstance(value, bool)
                                    for e in schema["enum"]):
        reject(f"{value!r} is not one of {schema['enum']!r}")
    for key, (breaks, words) in BOUNDS.items():
        if key in schema and "number" in kinds and breaks(value, schema[key]):
            reject(f"{value!r} is {words} {schema[key]!r}")
    if isinstance(value, dict):
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", {})
        if extra is False and (unexpected := sorted(set(value) - set(props))):
            reject(f"Additional properties are not allowed ({', '.join(map(repr, unexpected))}"
                   f" {'was' if len(unexpected) == 1 else 'were'} unexpected)")
        for k in schema.get("required", []):
            if k not in value:
                reject(f"{k!r} is a required property")
        out = {k: fill(p, p["default"]) for k, p in props.items() if "default" in p}
        for k, v in value.items():
            out[k] = fill(props.get(k, extra or {}), v)
        return out
    if isinstance(value, list):
        if len(value) < (least := schema.get("minItems", 0)):
            reject(f"{value!r} {'should be non-empty' if least == 1 else 'is too short'}")
        return [fill(schema.get("items", {}), v) for v in value]
    return value


def load_config(path: str, overrides: Optional[dict] = None) -> dict:
    """The file's config with `overrides` (flag values) merged in, checked, defaults filled."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and overrides:
        raw.update(overrides)
    cfg = fill(CONFIG_SCHEMA, raw)
    if "stream" not in cfg and "csv" not in cfg:
        raise ConfigurationError("config must provide either 'stream' or 'csv'")
    if "stream" in cfg:
        cfg["stream"].setdefault("seed", cfg["seed"])
    return cfg


def build_stream_spec(cfg: dict) -> StreamSpec:
    s = cfg["stream"]
    return StreamSpec(
        environments=tuple(EnvSpec(**{**e, "boundary": tuple(e["boundary"])})
                           for e in s["environments"]),
        batch_size=s["batch_size"],
        seed=s["seed"],
    )


def build_batches(cfg: dict) -> List[TaskBatch] | Stream:
    """The run's batches: a CSV's, parsed once, or a generated stream, drawn
    anew by each pass over it."""
    if "csv" in cfg:
        c = dict(cfg["csv"])
        path, features = c.pop("path"), tuple(c.pop("feature_columns"))
        return load_csv(path, CsvSchema(feature_columns=features, **c))
    return generate_stream(build_stream_spec(cfg))


def build_run_config(cfg: dict, seed: int) -> RunConfig:
    """One repetition's RunConfig."""
    return RunConfig(
        scheme=IntervalScheme(cfg["scheme"], base=cfg["base"]),
        n_meta=cfg["n_meta"],
        lagrangian=LagrangianConfig(delta=cfg["delta"], eta1=cfg["eta1"],
                                    eta2=cfg["eta2"], inner_steps=cfg["inner_steps"]),
        loss=LossSpec(kind=cfg["loss"]["kind"], l2_coefficient=cfg["loss"]["l2"]),
        fairness=tuple(FairnessSpec(**f) for f in cfg["fairness"]),
        split=SplitSizes(**cfg["split"]),
        seed=seed,
        ablation=AblationFlags(**cfg["ablation"]),
        mode=cfg["mode"],
        s_radius=cfg["s_radius"],
    )


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else FLOAT_FORMAT % value


def rounds_csv_header(m: int) -> List[str]:
    return (["t", "val_loss", "val_acc", "dp", "eo"]
            + [f"g_{i + 1}" for i in range(m)]
            + ["n_experts", "n_active", "max_weight", "theta_norm"]
            + [f"lambda_{i + 1}" for i in range(m)]
            + ["wall_ms"])


def write_rounds_csv(records: List[RoundRecord], path: Path, m: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rounds_csv_header(m))
        for r in records:
            row = [str(r.t), _fmt(r.val_loss), _fmt(r.val_acc), _fmt(r.dp), _fmt(r.eo)]
            row += [_fmt(g) for g in r.g_current]
            row += [str(r.n_experts), str(r.n_active), _fmt(r.max_weight),
                    _fmt(r.theta_norm)]
            row += [_fmt(v) for v in r.lambda_values]
            row.append(_fmt(r.wall_ms))
            writer.writerow(row)


def write_trace(records: List[RoundRecord], path: Path) -> None:
    """Binary trace needed to regenerate regret reports offline."""
    val = Rounds.from_batches([r.validation for r in records])
    np.savez(
        path,
        theta_prev=np.stack([r.theta_prev for r in records]),
        val_features=val.features,
        val_labels=val.labels,
        val_protected=val.protected,
        offsets=val.offsets,
        g_prev=np.array([r.g_prev for r in records]),
        rounds=np.array([r.t for r in records]),
    )


def read_trace(path: Path):
    """The played parameters (T, d), the checked validation rows of each round,
    and the constraint values (T, m) of the played parameters."""
    # each NpzFile lookup reads the whole array again, so read each one once
    with np.load(path) as data:
        val = Rounds(data["val_features"], data["val_labels"], data["val_protected"],
                     data["offsets"])
        thetas, g_prev = data["theta_prev"], data["g_prev"]
    if len(thetas) != val.n_rounds or len(g_prev) != val.n_rounds:
        raise ConfigurationError(f"{path}: arrays disagree on the number of rounds")
    return thetas, val, g_prev


def _read_rounds_csv(path: Path) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def compute_report(rep_dir: Path, cfg: dict) -> dict:
    thetas, val, g_prev = read_trace(rep_dir / "trace.npz")
    run_cfg = build_run_config(cfg, cfg["seed"])
    loss_spec, ball = run_cfg.loss, Ball(run_cfg.radius())
    losses = round_losses(thetas, val, loss_spec)
    regret, sol = static_regret(losses, val, loss_spec, ball)
    report = {
        "static_regret": regret,
        "solver_residual": sol.residual,
        "solver_converged": sol.converged,
        "cumulative_violation": cumulative_violation(g_prev[:, 0]),
        "cumulative_violation_per_constraint": [cumulative_violation(col)
                                                for col in g_prev.T],
        "fair_sar": {},
    }
    for tau in cfg["metrics"]["tau"]:
        if tau > val.n_rounds:
            continue
        rr = fair_sar_estimate(losses, val, g_prev, loss_spec, ball, tau)
        report["fair_sar"][str(tau)] = {
            "max_loss_regret": rr.max_loss_regret,
            "max_constraint_sums": rr.max_constraint_sums,
            "stride": rr.stride,
            "approximate": rr.approximate,
        }
    rows = _read_rounds_csv(rep_dir / "rounds.csv")
    dp = [float(r["dp"]) if r["dp"] else None for r in rows]
    eo = [float(r["eo"]) if r["eo"] else None for r in rows]
    verdict = eighty_percent_check(dp, eo, cfg["metrics"]["tail_fraction"])
    report["eighty_percent_rule"] = verdict
    return report


def aggregate_metrics_csv(rep_dirs: List[Path], out_path: Path) -> None:
    per_rep = [_read_rounds_csv(d / "rounds.csv") for d in rep_dirs]
    cols = ["val_loss", "val_acc", "dp", "eo"]
    columns = [["t"]]
    for c in cols:
        # (reps, T), with an empty cell as NaN, which the nan-reductions skip
        vals = np.array([[float(r[c]) if r[c] else np.nan for r in rep] for rep in per_rep])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a round no rep defines
            stats = (np.nanmean(vals, axis=0), np.nanstd(vals, axis=0))
        columns += [[f"{stat}_{c}"] + ["" if np.isnan(v) else _fmt(float(v)) for v in col]
                    for stat, col in zip(("mean", "std"), stats)]
    columns[0] += [r["t"] for r in per_rep[0]]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(zip(*columns))


def write_report(out_dir: Path, cfg: dict, seeds: List[int]) -> None:
    """metrics.csv and regret.json from each repetition's rounds.csv and trace.npz."""
    rep_dirs = [out_dir / f"rep{seed}" for seed in seeds]
    aggregate_metrics_csv(rep_dirs, out_dir / "metrics.csv")
    regret = {str(seed): compute_report(d, cfg) for seed, d in zip(seeds, rep_dirs)}
    with open(out_dir / "regret.json", "w", encoding="utf-8") as fh:
        json.dump(regret, fh, indent=2)


def execute_run(cfg: dict, out_dir: Path, batches: List[TaskBatch] | Stream) -> dict:
    seeds = [cfg["seed"] + i for i in range(cfg["reps"])]
    for seed in seeds:
        records = run(build_run_config(cfg, seed), batches)
        rep_dir = out_dir / f"rep{seed}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        write_rounds_csv(records, rep_dir / "rounds.csv", len(cfg["fairness"]))
        write_trace(records, rep_dir / "trace.npz")
        del records  # frees every round's validation rows before the next repetition and the report
    write_report(out_dir, cfg, seeds)
    with open(out_dir / "config-echo.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    manifest = {
        "seeds": seeds,
        "rounds": len(batches),
        "files": (["metrics.csv", "regret.json", "config-echo.json", "manifest.json"]
                  + [f"rep{s}/rounds.csv" for s in seeds]
                  + [f"rep{s}/trace.npz" for s in seeds]),
        "version": __version__,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


# parsed arguments that are not config values: the subcommand and its inputs
NOT_CONFIG = ("command", "config", "artifacts", "bases")


def overrides(args: argparse.Namespace) -> dict:
    """The config values that the given flags state, under their config keys."""
    flags = {k: v for k, v in vars(args).items() if k not in NOT_CONFIG and v is not None}
    if "mode" in flags:
        flags["mode"] = flags["mode"].replace("-", "_")
    if "ablation" in flags:
        flags["ablation"] = {
            "disable_weights": flags["ablation"] in ("weights", "both"),
            "disable_base_learner": flags["ablation"] in ("base-learner", "both"),
        }
    return flags


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, overrides(args))
    if "stream" not in cfg:
        raise ConfigurationError("gen-data requires a 'stream' section")
    # drawn whole before the file is opened, so a failed draw leaves no file behind;
    # the CSV and the row count both read this one draw
    stream = list(generate_stream(build_stream_spec(cfg)))
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(stream, str(out))
    rows = sum(b.size for b in stream)
    print(f"wrote {len(stream)} batches, {rows} rows to {out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, overrides(args))
    manifest = execute_run(cfg, Path(cfg["out"]), build_batches(cfg))
    print(f"completed {len(manifest['seeds'])} repetition(s) of {manifest['rounds']} rounds"
          f" -> {cfg['out']}")
    return EXIT_OK


def cmd_sweep_base(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, overrides(args))
    bases = [int(b) for b in args.bases.split(",")]
    if any(b < 2 for b in bases):
        raise ConfigurationError("bases must be integers >= 2")
    root = Path(cfg["out"])
    batches = build_batches(cfg)
    summary = {}
    for base in bases:
        sub = {**cfg, "base": base, "out": str(root / f"base{base}")}
        manifest = execute_run(sub, Path(sub["out"]), batches)
        last_rows = _read_rounds_csv(Path(sub["out"]) / f"rep{cfg['seed']}" / "rounds.csv")
        summary[str(base)] = {
            "rounds": manifest["rounds"],
            "final_n_experts": int(last_rows[-1]["n_experts"]),
        }
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    for base, info in summary.items():
        print(f"base {base}: {info['final_n_experts']} experts at T={info['rounds']}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    art = Path(args.artifacts)
    with open(art / "config-echo.json", encoding="utf-8") as fh:
        cfg = fill(ECHO_SCHEMA, json.load(fh))
    with open(art / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    for s in manifest["seeds"]:
        d = art / f"rep{s}"
        if not (d / "rounds.csv").exists() or not (d / "trace.npz").exists():
            raise ConfigurationError(f"missing artifact files under {d}")
    write_report(art, cfg, manifest["seeds"])
    print(f"report regenerated under {art}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairsaoml")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name):
        # no prefix matching, so that `sweep-base --base` is not read as `--bases`
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        return p

    command("gen-data")
    run_parser, sweep = command("run"), command("sweep-base")
    for p in (run_parser, sweep):
        p.add_argument("--scheme", choices=[DI, AGC, DGC])
        p.add_argument("--reps", type=int)
        p.add_argument("--ablation", choices=["weights", "base-learner", "both"])
        p.add_argument("--mode", choices=["fairsaoml", "single-expert"])
    run_parser.add_argument("--base", type=int)
    sweep.add_argument("--bases", default="2,3,4,5")
    report = sub.add_parser("report")
    report.add_argument("--artifacts", required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen-data": cmd_gen_data,
        "run": cmd_run,
        "sweep-base": cmd_sweep_base,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (NumericalFailureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
