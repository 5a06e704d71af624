import json

import numpy as np
import pytest

import oracles
from fairsaoml import cli
from fairsaoml.errors import ConfigurationError, DegenerateInputError
from fairsaoml.metrics import (cumulative_violation, demographic_parity,
                               eighty_percent_check, equalized_odds,
                               fair_sar_estimate, offline_minimizer,
                               round_losses, static_regret)
from fairsaoml.model_core import LossSpec, Rounds, TaskBatch, loss
from fairsaoml.optimizer import Ball, project_ball

LOSS = LossSpec(l2_coefficient=1e-3)


def random_batch(n=40, d=2, seed=0, margin=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = np.where(x[:, 0] + margin * rng.standard_normal(n) >= 0, 1, -1)
    s = rng.choice([-1, 1], size=n)
    y[:2] = [-1, 1]
    s[:2] = [-1, 1]
    return TaskBatch(x, y, s)


class TestDemographicParity:
    def test_hand_example(self):
        preds = np.array([1, 1, -1, 1, -1, -1])
        prot = np.array([1, 1, 1, -1, -1, -1])
        # rates: group -1 -> 1/3, group +1 -> 2/3
        assert demographic_parity(preds, prot) == pytest.approx(0.5)

    def test_folding_symmetric(self):
        preds = np.array([1, -1, 1, 1])
        prot = np.array([1, 1, -1, -1])
        assert demographic_parity(preds, prot) == demographic_parity(preds, -prot)

    def test_none_when_group_missing(self):
        assert demographic_parity(np.array([1, 1]), np.array([1, 1])) is None

    def test_none_when_rate_zero(self):
        preds = np.array([-1, -1, 1, 1])
        prot = np.array([1, 1, -1, -1])
        assert demographic_parity(preds, prot) is None

    def test_perfect_parity(self):
        preds = np.array([1, -1, 1, -1])
        prot = np.array([1, 1, -1, -1])
        assert demographic_parity(preds, prot) == pytest.approx(1.0)


class TestEqualizedOdds:
    def test_worst_label_taken(self):
        labels = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        prot = np.array([1, 1, -1, -1, 1, 1, -1, -1])
        preds = np.array([1, 1, 1, -1, 1, 1, 1, 1])
        # y=+1: rates 1 vs 1/2 -> 0.5; y=-1: rates 1 vs 1 -> 1.0
        assert equalized_odds(preds, labels, prot) == pytest.approx(0.5)

    def test_none_on_empty_cell(self):
        labels = np.array([1, 1, -1])
        prot = np.array([1, 1, 1])  # no (y=1, s=-1) cell
        preds = np.array([1, 1, 1])
        assert equalized_odds(preds, labels, prot) is None


class TestCumulativeViolation:
    def test_raw_and_clipped(self):
        out = cumulative_violation([-0.2, 0.5, -0.1, 0.3])
        assert out["raw"] == pytest.approx(0.5)
        assert out["clipped"] == pytest.approx(0.8)


class TestOfflineSolver:
    def test_matches_grid_search(self):
        batches = [random_batch(seed=s) for s in range(3)]
        ball = Ball(0.05)
        sol = offline_minimizer(Rounds.from_batches(batches), LOSS, ball)
        assert sol.converged

        def total(theta):
            return sum(loss(theta, b, LOSS) for b in batches)

        best = min(total(project_ball(np.array([a, b]), ball))
                   for a in np.linspace(-0.06, 0.06, 81)
                   for b in np.linspace(-0.06, 0.06, 81))
        assert total(sol.theta) <= best + 1e-6

    def test_residual_small(self):
        batches = [random_batch(seed=s, d=5) for s in range(4)]
        sol = offline_minimizer(Rounds.from_batches(batches), LOSS, Ball(0.05))
        assert sol.residual <= 1e-8

    @pytest.mark.filterwarnings("error")
    def test_saturated_sigmoid_emits_no_warning(self):
        """Separable rows of norm about 1e4 and a ball of radius 30: the spectral
        steps pass through scores whose exp overflows, where the sigmoid is 0."""
        rng = np.random.default_rng(0)
        batches = []
        for _ in range(3):
            x = rng.standard_normal((30, 2)) * 1e4
            batches.append(TaskBatch(x, np.where(x[:, 0] >= 0, 1, -1), np.resize([-1, 1], 30)))
        sol = offline_minimizer(Rounds.from_batches(batches), LossSpec(l2_coefficient=0.0),
                                Ball(30.0))
        assert np.isfinite(sol.theta).all() and np.linalg.norm(sol.theta) <= 30.0 + 1e-9

    def test_interior_solution_has_zero_gradient(self):
        # a huge ball makes the problem unconstrained
        batches = [random_batch(seed=s) for s in range(2)]
        sol = offline_minimizer(Rounds.from_batches(batches), LossSpec(l2_coefficient=1.0),
                                Ball(100.0))
        from fairsaoml.model_core import loss_grad
        g = sum(loss_grad(sol.theta, b, LossSpec(l2_coefficient=1.0)) for b in batches)
        assert np.linalg.norm(g) <= 1e-6


class TestRegret:
    def setup_method(self):
        self.rounds = Rounds.from_batches([random_batch(seed=s, d=3) for s in range(12)])
        self.ball = Ball(0.05)
        self.thetas = [np.full(3, 0.01)] * 12
        self.losses = round_losses(self.thetas, self.rounds, LOSS)

    def test_static_regret_nonnegative_for_fixed_play(self):
        # a fixed feasible point can never beat the best fixed point
        regret, sol = static_regret(self.losses, self.rounds, LOSS, self.ball)
        assert regret >= -1e-10
        assert sol.converged

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            static_regret(self.losses[:-1], self.rounds, LOSS, self.ball)
        with pytest.raises(ConfigurationError):
            round_losses(self.thetas[:-1], self.rounds, LOSS)

    def test_full_window_equals_static(self):
        report = fair_sar_estimate(self.losses, self.rounds,
                                   [[0.0]] * 12, LOSS, self.ball, tau=12)
        regret, _ = static_regret(self.losses, self.rounds, LOSS, self.ball)
        assert len(report.windows) == 1
        assert report.max_loss_regret == pytest.approx(regret)

    def test_windows_cover_ends(self):
        report = fair_sar_estimate(self.losses, self.rounds,
                                   [[0.1]] * 12, LOSS, self.ball, tau=5, stride=4)
        starts = [w.start for w in report.windows]
        assert starts[0] == 1 and starts[-1] == 8  # final window appended
        assert report.max_constraint_sums == [pytest.approx(0.5)]

    def test_exhaustive_below_limit(self):
        report = fair_sar_estimate(self.losses, self.rounds,
                                   [[0.0]] * 12, LOSS, self.ball, tau=4)
        assert report.stride == 1
        assert len(report.windows) == 9

    def test_max_is_max_over_windows(self):
        report = fair_sar_estimate(self.losses, self.rounds,
                                   [[0.2], [-0.1]] * 6, LOSS, self.ball, tau=3)
        assert report.max_loss_regret == max(w.loss_regret for w in report.windows)


def _write_unequal_csv(path, sizes, seed=5):
    """A CSV with round t of sizes[t - 1] rows, both groups and classes in each."""
    rng = np.random.default_rng(seed)
    lines = ["f0,f1,f2,s,y,t"]
    for t, n in enumerate(sizes, start=1):
        x = rng.standard_normal((n, 3))
        s = np.resize([-1, 1], n)
        y = np.where(x[:, 0] + x[:, 1] + 0.4 * s >= 0, 1, -1)
        y[:2] = [-1, 1]
        lines += [f"{a!r},{b!r},{c!r},{si},{yi},{t}"
                  for (a, b, c), si, yi in zip(x.tolist(), s.tolist(), y.tolist())]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def unequal_run(tmp_path_factory):
    """`fairsaoml run` over 14 CSV rounds of 61 to 113 rows, with two constraints."""
    tmp = tmp_path_factory.mktemp("unequal")
    _write_unequal_csv(tmp / "data.csv", [61 + (37 * t) % 53 for t in range(14)])
    cfg = {"scheme": "dgc", "seed": 0, "reps": 1, "n_meta": 2, "inner_steps": 2,
           "fairness": [{"kind": "ddp", "epsilon": 0.05}, {"kind": "deo", "epsilon": 0.1}],
           "split": {"support_per_class": 8, "query_size": 20},
           "metrics": {"tau": [1, 3, 14], "tail_fraction": 0.5},
           "csv": {"path": str(tmp / "data.csv"), "feature_columns": ["f0", "f1", "f2"]},
           "out": str(tmp / "out")}
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(tmp / "cfg.json")]) == 0
    run_cfg = cli.build_run_config(cli.load_config(str(tmp / "cfg.json")), 0)
    return tmp / "out" / "rep0" / "trace.npz", run_cfg.loss, Ball(run_cfg.radius())


class TestAgainstBatchOracle:
    """The solver on views of the stacked trace gives exactly what the
    one-TaskBatch-per-round path gives, with its stacked copy per window."""

    def test_rounds_are_unequal(self, unequal_run):
        _, val, _ = cli.read_trace(unequal_run[0])
        assert len(set(np.diff(val.offsets).tolist())) > 5

    def test_static_regret_equal(self, unequal_run):
        path, loss_spec, ball = unequal_run
        thetas, val, _ = cli.read_trace(path)
        regret, sol = static_regret(round_losses(thetas, val, loss_spec), val, loss_spec, ball)
        o_thetas, o_batches, _ = oracles.read_trace_as_batches(path)
        o_regret, o_sol = oracles.static_regret_by_batches(o_thetas, o_batches, loss_spec, ball)
        assert regret == o_regret
        assert np.array_equal(sol.theta, o_sol.theta)
        assert (sol.residual, sol.iterations) == (o_sol.residual, o_sol.iterations)

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("tau", [1, 3, 14])
    def test_windows_equal(self, unequal_run, tau, stride):
        path, loss_spec, ball = unequal_run
        thetas, val, g_prev = cli.read_trace(path)
        got = fair_sar_estimate(round_losses(thetas, val, loss_spec), val, g_prev,
                                loss_spec, ball, tau, stride)
        want = oracles.fair_sar_estimate_by_batches(*oracles.read_trace_as_batches(path),
                                                    loss_spec, ball, tau, stride)
        assert got == want
        assert len(got.windows) == len(range(0, 14 - tau + 1, stride)) + ((14 - tau) % stride > 0)


class TestRounds:
    def setup_method(self):
        self.batches = [random_batch(n=n, d=3, seed=n) for n in (5, 9, 2)]
        self.rounds = Rounds.from_batches(self.batches)

    def test_weights_are_one_over_round_size(self):
        assert self.rounds.offsets.tolist() == [0, 5, 14, 16]
        assert self.rounds.weights.tolist() == [1 / 5] * 5 + [1 / 9] * 9 + [1 / 2] * 2
        assert np.array_equal(self.rounds.signed_weights,
                              self.rounds.weights * self.rounds.labels)

    def test_window_is_views_of_the_rounds(self):
        win = self.rounds.window(1, 3)
        assert win.n_rounds == 2 and win.offsets.tolist() == [0, 9, 11]
        for name in ("features", "labels", "protected", "weights", "signed_weights"):
            whole = getattr(self.rounds, name)
            assert np.shares_memory(getattr(win, name), whole)
            assert np.array_equal(getattr(win, name), whole[5:])

    @pytest.mark.parametrize("column, row, value, message", [
        ("features", (3, 1), np.nan, "non-finite"),
        ("labels", 7, 0, "must be in"),
        ("protected", 0, 2, "must be in"),
    ])
    def test_row_checks_of_task_batch(self, column, row, value, message):
        arrays = {k: getattr(self.rounds, k).copy()
                  for k in ("features", "labels", "protected", "offsets")}
        arrays[column][row] = value
        with pytest.raises(ConfigurationError, match=message):
            Rounds(**arrays)

    def test_empty_round_rejected(self):
        with pytest.raises(DegenerateInputError, match="round 2"):
            Rounds(self.rounds.features, self.rounds.labels, self.rounds.protected, [0, 5, 5, 16])

    @pytest.mark.parametrize("offsets", [[0, 5, 14], [1, 5, 16], [0, 5.0, 16], [[0, 16]]])
    def test_offsets_must_span_the_rows(self, offsets):
        with pytest.raises(ConfigurationError, match="offsets"):
            Rounds(self.rounds.features, self.rounds.labels, self.rounds.protected, offsets)

    def test_lengths_must_match(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            Rounds(self.rounds.features, self.rounds.labels[:-1], self.rounds.protected,
                   [0, 16])


class TestEightyPercent:
    def test_tail_mean_rule(self):
        dp = [0.1] * 6 + [0.9, 0.95]
        eo = [0.1] * 6 + [0.85, 0.9]
        assert eighty_percent_check(dp, eo, tail_fraction=0.25) is True
        assert eighty_percent_check(dp, eo, tail_fraction=1.0) is False

    def test_none_values_skipped(self):
        dp = [None, 0.9, None, 0.95]
        eo = [None, 0.85, 0.9, None]
        assert eighty_percent_check(dp, eo, tail_fraction=1.0) is True

    def test_all_none_tail(self):
        assert eighty_percent_check([None, None], [None, None], 1.0) is None

    def test_bad_fraction_rejected(self):
        from fairsaoml.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            eighty_percent_check([0.9], [0.9], 0.0)
