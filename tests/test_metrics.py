from dataclasses import replace

import numpy as np
import pytest

from fairshift.data import GaussianShiftTask
from fairshift.metrics import (
    GroupConfusion,
    RunMetrics,
    accuracy_parity,
    equalized_odds_gap,
    evaluate_predictions,
    fw_ratio_histogram,
    probability_ratio_diagnostic,
)
from fairshift.nets import WeightNetwork
from fairshift.training import TrainConfig, train


def _eval_set(preds, labels, groups):
    return (np.asarray(preds), np.asarray(labels), np.asarray(groups))


class TestEqualizedOdds:
    def test_identical_rates_give_zero(self):
        preds = [1, 0, 1, 0, 1, 0, 1, 0]
        labels = [1, 1, 0, 0, 1, 1, 0, 0]
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        assert equalized_odds_gap(*_eval_set(preds, labels, groups)) == 0.0

    def test_max_convention_picks_larger_gap(self):
        # group 0: TPR 1.0, FPR 0.25; group 1: TPR 0.8, FPR 0.20
        labels = [1] * 5 + [0] * 4 + [1] * 5 + [0] * 5
        preds = [1] * 5 + [1, 0, 0, 0] + [1, 1, 1, 1, 0] + [1, 0, 0, 0, 0]
        groups = [0] * 9 + [1] * 10
        gap = equalized_odds_gap(*_eval_set(preds, labels, groups))
        assert gap == pytest.approx(0.2)
        mean_gap = equalized_odds_gap(*_eval_set(preds, labels, groups), convention="mean")
        assert mean_gap == pytest.approx((0.2 + 0.05) / 2)

    def test_perfect_classifier_gives_zero(self):
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        groups = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        assert equalized_odds_gap(labels, labels, groups) == 0.0

    def test_empty_cell_error_names_the_cell(self):
        preds = [1, 0, 1, 0]
        labels = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        with pytest.raises(ValueError, match="group=0, label=0"):
            equalized_odds_gap(preds, [1, 1, 1, 0], groups)

    def test_group_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = 60
            preds = rng.integers(0, 2, n)
            labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)]).astype(int)
            groups = np.tile([0, 1], n // 2)
            original = equalized_odds_gap(preds, labels, groups)
            swapped = equalized_odds_gap(preds, labels, 1 - groups)
            assert original == pytest.approx(swapped)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(1)
        n = 40
        preds = rng.integers(0, 2, n)
        labels = np.tile([0, 1], n // 2)
        groups = np.repeat([0, 1], n // 2)
        perm = rng.permutation(n)
        assert equalized_odds_gap(preds, labels, groups) == pytest.approx(
            equalized_odds_gap(preds[perm], labels[perm], groups[perm])
        )

    def test_accepts_probabilities(self):
        probs = [0.9, 0.1, 0.8, 0.2]
        labels = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        assert equalized_odds_gap(*_eval_set(probs, labels, groups)) == 0.0

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            equalized_odds_gap([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1], convention="p90")


class TestAccuracyParity:
    def test_equal_accuracies(self):
        preds = [1, 0, 1, 0]
        labels = [1, 1, 1, 1]
        groups = [0, 0, 1, 1]
        assert accuracy_parity(*_eval_set(preds, labels, groups)) == 0.0

    def test_ten_point_gap(self):
        preds = np.concatenate([np.ones(10), np.ones(10)])
        labels = np.concatenate([np.r_[np.ones(9), 0], np.r_[np.ones(8), 0, 0]])
        groups = np.repeat([0, 1], 10)
        assert accuracy_parity(preds, labels, groups) == pytest.approx(10.0)

    def test_missing_group_rejected(self):
        with pytest.raises(ValueError, match="group 1 missing"):
            accuracy_parity([1, 0], [1, 0], [0, 0])


def test_error_and_accuracy_sum_to_hundred():
    rng = np.random.default_rng(2)
    preds = rng.integers(0, 2, 100)
    labels = np.tile([0, 1], 50)
    groups = np.repeat([0, 1], 50)
    metrics = evaluate_predictions(preds, labels, groups)
    accuracy_pct = 100.0 * (preds == labels).mean()
    assert metrics.error_pct + accuracy_pct == 100.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
def test_a_non_probability_is_rejected(bad):
    with pytest.raises(ValueError, match="predictions must be probabilities or 0/1 decisions"):
        evaluate_predictions([bad, 0.9, 0.1, 0.8], labels=[1, 1, 0, 0], groups=[0, 1, 0, 1])


def test_group_confusion_counts():
    preds = [1, 1, 0, 0, 1, 0]
    labels = [1, 0, 1, 0, 1, 1]
    groups = [0, 0, 0, 0, 1, 1]
    confusion = GroupConfusion.from_predictions(*_eval_set(preds, labels, groups))
    assert confusion.totals.sum() == 6
    assert confusion.rate(0, 1) == pytest.approx(0.5)
    assert confusion.rate(1, 1) == pytest.approx(0.5)


def test_run_metrics_validation():
    with pytest.raises(ValueError):
        RunMetrics(error_pct=150.0, eodds=0.0, acc_parity_pct=0.0,
                   error_group0_pct=0.0, error_group1_pct=0.0)
    with pytest.raises(ValueError):
        RunMetrics(error_pct=10.0, eodds=1.5, acc_parity_pct=0.0,
                   error_group0_pct=0.0, error_group1_pct=0.0)


class TestProbabilityRatioDiagnostic:
    def _toy(self, seed=0, n=80):
        task = GaussianShiftTask(gamma=0.0)
        return task.sample_source(n, seed)

    def test_identical_models_give_unit_ratios(self):
        data = self._toy()
        cfg = TrainConfig(method="erm", pretrain_epochs=3, adapt_epochs=0, seed=0)
        model = train(data, None, cfg)
        report = probability_ratio_diagnostic(model, model, data)
        np.testing.assert_allclose(report.ratios, 1.0)
        assert report.count_above == 0

    def test_no_shift_ratios_rarely_exceed_threshold(self):
        # two predictors trained on independent same-distribution draws
        # should agree within the diagnostic threshold almost everywhere
        exceed_ok = 0
        runs = 20
        task = GaussianShiftTask(gamma=0.0)
        for seed in range(runs):
            kids = np.random.SeedSequence((seed, 17)).spawn(3)
            cfg = TrainConfig(method="erm", pretrain_epochs=12, adapt_epochs=0, seed=seed)
            model_a = train(task.sample_source(300, kids[0]), None, cfg)
            model_b = train(task.sample_source(300, kids[1]), None, cfg)
            report = probability_ratio_diagnostic(
                model_a, model_b, task.sample_source(200, kids[2])
            )
            if np.quantile(report.ratios, 0.99) < report.threshold:
                exceed_ok += 1
        assert exceed_ok >= 0.9 * runs

    def test_threshold_summaries(self):
        data = self._toy(seed=1)
        cfg = TrainConfig(method="erm", pretrain_epochs=2, adapt_epochs=0, seed=0)
        model_a = train(data, None, cfg)
        model_b = train(data, None, replace(cfg, seed=9))
        report = probability_ratio_diagnostic(model_a, model_b, data, threshold=1.0)
        assert report.fraction_above == pytest.approx(
            (report.ratios > 1.0).mean()
        )


class TestFwRatioHistogram:
    def test_constant_network_lands_in_one_bin(self):
        task = GaussianShiftTask(gamma=1.0)
        source = task.sample_source(50, 0)
        target = task.sample_target(50, 1)
        cfg = TrainConfig(method="erm", pretrain_epochs=1, adapt_epochs=0, seed=0)
        model = train(source, None, cfg)
        wnet = WeightNetwork(model.predictor.config.rep_dim, seed=0)
        wnet.w1.value = np.zeros_like(wnet.w1.value)
        wnet.w2.value = np.zeros_like(wnet.w2.value)
        report = fw_ratio_histogram(wnet, model.predictor, source, target)
        assert (report.target_hist[0] > 0).sum() == 1
        assert (report.source_hist[0] > 0).sum() == 1

    def test_trained_run_respects_mean_constraints_and_sides(self):
        from fairshift.training import _streams, _subsample_target

        task = GaussianShiftTask(gamma=2.0)
        kids = np.random.SeedSequence(4).spawn(2)
        source = task.sample_source(400, kids[0])
        target = task.sample_target(400, kids[1]).without_labels()
        cfg = TrainConfig(method="ours", seed=4, lambda1=1.0, lambda2=0.05, c1=5.0, c2=5.0)
        model = train(source, target, cfg)
        adaptation_set = _subsample_target(target, cfg, _streams(cfg.seed)["subsample"])
        report = fw_ratio_histogram(model.weight_net, model.predictor, source, adaptation_set)
        assert report.target_mean == pytest.approx(1.0, abs=0.1)
        assert report.source_inv_mean == pytest.approx(1.0, abs=0.1)
        # adaptation points sit around or below ratio one, source above
        fw_target = model.weight_net.ratios(
            model.predictor.representations(adaptation_set.features)
        )
        fw_source = model.weight_net.ratios(model.predictor.representations(source.features))
        assert np.median(fw_target) <= 1.05
        assert np.median(fw_source) > 1.05
        assert np.median(fw_target) < np.median(fw_source)
