import re
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshift.data import make_synthetic_asymmetric_labeled
from fairshift.metrics import RunMetrics, evaluate_model, evaluate_predictions
from fairshift.training import TrainConfig, train

# evaluate_model's five fields, as float.hex, for a 2+2-epoch ours model on
# make_synthetic_asymmetric_labeled(1, 300)
GOLDEN_EVALUATE_MODEL = {
    "error_pct": "0x1.1955555555556p+5",
    "eodds": "0x1.410b0b893447bp-1",
    "acc_parity_pct": "0x1.4ffffffffffffp+4",
    "error_group0_pct": "0x1.8aaaaaaaaaaabp+4",
    "error_group1_pct": "0x1.6d55555555555p+5",
}


def _eodds(preds, labels, groups):
    return evaluate_predictions(preds, labels, groups).eodds


def _acc_parity(preds, labels, groups):
    return evaluate_predictions(preds, labels, groups).acc_parity_pct


def _oracle(probs, labels, groups):
    """The five fields from boolean masks, one (group, label) cell at a time."""
    decisions = (probs >= 0.5).astype(np.int64)

    def positive_rate(a, y):
        return decisions[(groups == a) & (labels == y)].mean()

    accs = [(decisions[groups == a] == labels[groups == a]).mean() for a in (0, 1)]
    errors = [(decisions[groups == a] != labels[groups == a]).mean() * 100.0 for a in (0, 1)]
    return (
        float((decisions != labels).mean() * 100.0),
        float(max(abs(positive_rate(0, y) - positive_rate(1, y)) for y in (0, 1))),
        float(abs(accs[0] - accs[1]) * 100.0),
        float(errors[0]),
        float(errors[1]),
    )


# exactly 0.5 sits on the decision boundary and counts as a positive decision
PROBS = st.one_of(st.just(0.5), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def filled_cells(draw):
    """(probs, labels, groups) with at least one row in every (group, label) cell."""
    rows = [(a, y, draw(PROBS)) for a in (0, 1) for y in (0, 1)]
    rows += draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), PROBS), max_size=60))
    groups, labels, probs = zip(*draw(st.permutations(rows)))
    return np.array(probs), np.array(labels), np.array(groups)


@settings(max_examples=300, deadline=None)
@given(filled_cells())
def test_evaluate_predictions_matches_per_cell_oracle(cells):
    assert astuple(evaluate_predictions(*cells)) == _oracle(*cells)


def test_evaluate_model_is_bit_stable():
    source, test = make_synthetic_asymmetric_labeled(1, 300)
    model = train(source, test.without_labels(),
                  TrainConfig(method="ours", pretrain_epochs=2, adapt_epochs=2))
    result = evaluate_model(model, test)
    assert {f.name: getattr(result, f.name).hex() for f in fields(result)} == GOLDEN_EVALUATE_MODEL


class TestEqualizedOdds:
    def test_identical_rates_give_zero(self):
        preds = [1, 0, 1, 0, 1, 0, 1, 0]
        labels = [1, 1, 0, 0, 1, 1, 0, 0]
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        assert _eodds(preds, labels, groups) == 0.0

    def test_max_convention_picks_larger_gap(self):
        # group 0: TPR 1.0, FPR 0.25; group 1: TPR 0.8, FPR 0.20
        labels = [1] * 5 + [0] * 4 + [1] * 5 + [0] * 5
        preds = [1] * 5 + [1, 0, 0, 0] + [1, 1, 1, 1, 0] + [1, 0, 0, 0, 0]
        groups = [0] * 9 + [1] * 10
        assert _eodds(preds, labels, groups) == pytest.approx(0.2)
        # the label-0 gap alone, with the label-1 rates made equal
        preds[13] = 1
        assert _eodds(preds, labels, groups) == pytest.approx(0.05)

    def test_perfect_classifier_gives_zero(self):
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        groups = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        assert _eodds(labels, labels, groups) == 0.0

    def test_empty_cell_error_names_the_cell(self):
        preds = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        with pytest.raises(ValueError, match="group=0, label=0"):
            evaluate_predictions(preds, [1, 1, 1, 0], groups)

    def test_group_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = 60
            preds = rng.integers(0, 2, n)
            labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)]).astype(int)
            groups = np.tile([0, 1], n // 2)
            original = _eodds(preds, labels, groups)
            swapped = _eodds(preds, labels, 1 - groups)
            assert original == pytest.approx(swapped)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(1)
        n = 40
        preds = rng.integers(0, 2, n)
        labels = np.tile([0, 1], n // 2)
        groups = np.repeat([0, 1], n // 2)
        perm = rng.permutation(n)
        assert _eodds(preds, labels, groups) == pytest.approx(
            _eodds(preds[perm], labels[perm], groups[perm])
        )

    def test_accepts_probabilities(self):
        probs = [0.9, 0.1, 0.8, 0.2]
        labels = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        assert _eodds(probs, labels, groups) == 0.0


class TestAccuracyParity:
    def test_equal_accuracies(self):
        # each group: one of two label-1 rows right, its label-0 row right
        preds = [1, 0, 0, 1, 0, 0]
        labels = [1, 1, 0, 1, 1, 0]
        groups = [0, 0, 0, 1, 1, 1]
        assert _acc_parity(preds, labels, groups) == 0.0

    def test_ten_point_gap(self):
        preds = np.concatenate([np.ones(10), np.ones(10)])
        labels = np.concatenate([np.r_[np.ones(9), 0], np.r_[np.ones(8), 0, 0]])
        groups = np.repeat([0, 1], 10)
        assert _acc_parity(preds, labels, groups) == pytest.approx(10.0)

    def test_missing_group_rejected(self):
        with pytest.raises(ValueError, match="no rows with group=1, label=0"):
            evaluate_predictions([1, 0], [1, 0], [0, 0])


# (group, label) cells in the order their emptiness is reported
CELLS = [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("k", range(4))
def test_the_first_empty_cell_is_named(k):
    # rows in the cells before the k-th and in the last after it; the others are empty
    groups, labels = zip(*CELLS[:k], *CELLS[k + 1:][-1:])
    a, y = CELLS[k]
    with pytest.raises(ValueError, match=re.escape(
        f"the evaluation data has no rows with group={a}, label={y}; "
        "equalized odds needs every (group, label) cell"
    )):
        evaluate_predictions([0.5] * len(groups), labels, groups)


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


@pytest.mark.parametrize("column", ["label", "group"])
def test_a_non_binary_column_is_named(column):
    columns = {"labels": [1, 0, 1, 0], "groups": [0, 0, 1, 1]}
    columns[column + "s"][3] = 2
    with pytest.raises(ValueError, match=f"^{column} column must contain only 0 or 1, found 2$"):
        evaluate_predictions([0.9, 0.1, 0.8, 0.2], **columns)


def test_unequal_lengths_name_all_three():
    with pytest.raises(ValueError, match=re.escape(
        "probs, labels and groups must share length, got 5, 4 and 4"
    )):
        evaluate_predictions([0.9, 0.1, 0.8, 0.2, 0.7], [1, 0, 1, 0], [0, 0, 1, 1])


def test_run_metrics_validation():
    with pytest.raises(ValueError):
        RunMetrics(error_pct=150.0, eodds=0.0, acc_parity_pct=0.0,
                   error_group0_pct=0.0, error_group1_pct=0.0)
    with pytest.raises(ValueError):
        RunMetrics(error_pct=10.0, eodds=1.5, acc_parity_pct=0.0,
                   error_group0_pct=0.0, error_group1_pct=0.0)
