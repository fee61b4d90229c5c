import numpy as np
import pytest

from fairshift.metrics import (
    GroupConfusion,
    RunMetrics,
    accuracy_parity,
    equalized_odds_gap,
    evaluate_predictions,
)


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
        assert equalized_odds_gap(*_eval_set(preds, labels, groups)) == pytest.approx(0.2)
        # the label-0 gap alone, with the label-1 rates made equal
        preds[13] = 1
        assert equalized_odds_gap(*_eval_set(preds, labels, groups)) == pytest.approx(0.05)

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

