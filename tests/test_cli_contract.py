"""The CLI's exit-code contract over generated configs.

Each example is a small config that is valid by construction, or the same
config with one value out of range. `cli.main` runs it in this process and
must return: 0 for a valid config, after which `report` regenerates the
same `regret.json` and `metrics.csv` byte for byte; 2 with a single stderr
line for an out-of-range value. Either way `cli.load_config` must give the
same config as `oracles.load_config_by_blocks`, or the same error message.

The draws keep every run well clear of a degenerate subset: support rows
of at least 15 per class, near-balanced groups and at least 30 validation
rows. `reps` is always stated, because its default of 10 would make each
example ten times longer; 0 is its out-of-range value.
"""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairsaoml import cli
from fairsaoml.engine import MODE_FAIRSAOML, MODE_SINGLE_EXPERT
from fairsaoml.errors import ConfigurationError
from fairsaoml.intervals import AGC, DGC, DI
from fairsaoml.model_core import DDP, DEO
from oracles import load_config_by_blocks

# (key path, out-of-range value); a missing section on the path is created
OUT_OF_RANGE = [
    (("base",), 1),
    (("n_meta",), 0),
    (("inner_steps",), 0),
    (("delta",), 0),
    (("eta2",), -0.5),
    (("s_radius",), 0),
    (("mode",), "single-expert"),
    (("loss", "l2"), -1e-3),
    (("fairness", 0, "epsilon"), -0.01),
    (("fairness", 0, "kind"), "dp"),
    (("split", "support_per_class"), 0),
    (("split", "query_size"), 0),
    (("ablation", "disable_weights"), 1),
    (("stream", "batch_size"), 3),
    (("stream", "environments", 0, "n_tasks"), 0),
    (("stream", "environments", 0, "group_balance"), 1.0),
    (("stream", "environments", 0, "noise"), 0.5),
    (("metrics", "tau"), [0]),
    (("metrics", "tail_fraction"), 0),
]


def optional(draw, key, strategy, into):
    """Put a drawn value under `key` in `into` when the draw says the key is present."""
    if draw(st.booleans()):
        into[key] = draw(strategy)


@st.composite
def configs(draw):
    """(config, flags, broken): a config dict, extra CLI flags, and whether one
    value in them is out of range."""
    cfg = {"scheme": draw(st.sampled_from([DI, AGC, DGC])),
           "reps": draw(st.sampled_from([1, 2, 0]))}
    optional(draw, "base", st.integers(2, 4), cfg)
    optional(draw, "n_meta", st.integers(1, 3), cfg)
    optional(draw, "inner_steps", st.integers(1, 3), cfg)
    optional(draw, "mode", st.sampled_from([MODE_FAIRSAOML, MODE_SINGLE_EXPERT]), cfg)
    optional(draw, "delta", st.sampled_from([0.003, 1.0, 50.0]), cfg)
    optional(draw, "eta1", st.sampled_from([0.01, 0.05, 0.2]), cfg)
    optional(draw, "eta2", st.sampled_from([0.01, 0.05, 0.2]), cfg)
    optional(draw, "seed", st.integers(0, 50), cfg)
    optional(draw, "loss", st.fixed_dictionaries({}, optional={
        "kind": st.just("logistic"), "l2": st.sampled_from([0.0, 1e-3, 0.1])}), cfg)
    if draw(st.booleans()):
        entry = st.fixed_dictionaries({}, optional={
            "kind": st.sampled_from([DDP, DEO]),
            "epsilon": st.sampled_from([0.0, 0.05, 0.13, 0.3])})
        cfg["fairness"] = draw(st.lists(entry, min_size=1, max_size=3))
    first_epsilon = cfg.get("fairness", [{}])[0].get("epsilon", 0.05)
    if first_epsilon == 0 or draw(st.booleans()):
        cfg["s_radius"] = draw(st.sampled_from([0.3, 0.5, 1.0]))
    support, query = 20, 40
    if draw(st.booleans()):
        split = draw(st.fixed_dictionaries({}, optional={
            "support_per_class": st.integers(15, 25), "query_size": st.integers(20, 40)}))
        cfg["split"] = split
        support, query = split.get("support_per_class", 20), split.get("query_size", 40)
    optional(draw, "ablation", st.fixed_dictionaries({}, optional={
        "disable_weights": st.booleans(), "disable_base_learner": st.booleans()}), cfg)
    if draw(st.booleans()):
        cfg["metrics"] = draw(st.fixed_dictionaries({}, optional={
            "tau": st.lists(st.integers(1, 8), min_size=1, max_size=2),
            "tail_fraction": st.sampled_from([0.25, 0.5, 1.0])}))

    dim = draw(st.integers(2, 4))
    rounds = draw(st.integers(4, 6))
    first = draw(st.integers(1, rounds))
    environments = []
    for n_tasks in (first, rounds - first):
        if n_tasks:
            env = {"n_tasks": n_tasks, "dim": dim,
                   "boundary": [draw(st.sampled_from([-1.0, 1.0]))]
                   + draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                   min_size=dim - 1, max_size=dim - 1))}
            optional(draw, "group_bias", st.sampled_from([-0.5, 0.0, 0.5]), env)
            optional(draw, "group_balance", st.sampled_from([0.4, 0.5, 0.6]), env)
            optional(draw, "noise", st.sampled_from([0.0, 0.05]), env)
            environments.append(env)
    stream = {"environments": environments}
    smallest = 2 * support + query + 30  # leaves at least 30 validation rows
    if smallest > 200 or draw(st.booleans()):
        stream["batch_size"] = draw(st.integers(smallest, max(smallest, 160)))
    optional(draw, "seed", st.integers(0, 50), stream)
    cfg["stream"] = stream

    flags = []
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.integers(0, 50)))]
    if draw(st.booleans()):
        flags += ["--scheme", draw(st.sampled_from([DI, AGC, DGC]))]
    broken = cfg["reps"] == 0
    if not broken and draw(st.booleans()):
        path, value = draw(st.sampled_from(OUT_OF_RANGE))
        node = cfg
        for key, inner in zip(path[:-1], path[1:]):
            node = node[key] if isinstance(key, int) else node.setdefault(
                key, [{}] if isinstance(inner, int) else {})
        node[path[-1]] = value
        broken = True
    return cfg, flags, broken


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_exit_codes(case):
    cfg, flags, broken = case
    # a warning raises here, so it escapes `main` instead of printing a second line
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "out"
        cfg["out"] = str(out)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        run_args = ["run", "--config", str(path), *flags]
        overrides = cli.overrides(cli.build_parser().parse_args(run_args))
        try:
            expected = load_config_by_blocks(str(path), overrides)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as got:
                cli.load_config(str(path), overrides)
            assert str(got.value) == str(exc)
        else:
            assert cli.load_config(str(path), overrides) == expected

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(run_args)
        if broken:
            assert code == 2 and err.getvalue().count("\n") == 1, err.getvalue()
            assert err.getvalue().startswith("error: invalid config: ")
            assert not out.exists()
            return
        assert code == 0, err.getvalue()
        before = {name: (out / name).read_bytes() for name in ("regret.json", "metrics.csv")}
        for name in before:
            (out / name).unlink()
        with contextlib.redirect_stderr(err):
            assert cli.main(["report", "--artifacts", str(out)]) == 0, err.getvalue()
        assert {name: (out / name).read_bytes() for name in before} == before

