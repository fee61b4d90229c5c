import math
import re
from dataclasses import dataclass
from typing import Annotated

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import multivariate_normal

from fairshift.data import (
    CATEGORICAL,
    CONTINUOUS,
    GaussianShiftTask,
    LabeledDataset,
    NormalizationStats,
    UnlabeledDataset,
    _RULES,
    apply_zscore,
    check_field_types,
    fit_zscore,
    infer_feature_kinds,
    load_csv,
    load_unlabeled_csv,
    make_synthetic_asymmetric_labeled,
    write_csv,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_row_file_shapes(self, tmp_path):
        path = _write(tmp_path, "f0,f1,group,label\n1.5,2,0,1\n0.5,1,1,0\n2.5,3,0,0\n")
        data = load_csv(path)
        assert data.n == 3
        assert data.d == 2
        np.testing.assert_array_equal(data.groups, [0, 1, 0])

    def test_adult_format_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        n, d = 2213, 97
        header = ",".join([f"f{j}" for j in range(d)] + ["group", "label"])
        body = "\n".join(
            ",".join(
                [repr(float(v)) for v in rng.normal(size=d)]
                + [str(rng.integers(0, 2)), str(rng.integers(0, 2))]
            )
            for _ in range(n)
        )
        path = _write(tmp_path, header + "\n" + body + "\n")
        data = load_csv(path)
        assert (data.n, data.d) == (n, d)

    def test_label_outside_binary_rejected(self, tmp_path):
        path = _write(tmp_path, "f0,group,label\n1.0,0,2\n2.0,1,1\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path)

    # 0.5 would pass a check made after the cast to int
    @pytest.mark.parametrize("cell", ["2", "0.5"])
    def test_group_outside_binary_rejected(self, tmp_path, cell):
        # the bad value as a plain float, not numpy's repr np.float64(0.5)
        message = re.escape(f"group column must contain only 0 or 1, found {float(cell)}")
        path = _write(tmp_path, f"f0,group,label\n1.0,{cell},0\n2.0,1,1\n")
        with pytest.raises(ValueError, match=message):
            load_csv(path)
        path = _write(tmp_path, f"f0,group\n1.0,{cell}\n2.0,1\n", "target.csv")
        with pytest.raises(ValueError, match=message):
            load_unlabeled_csv(path)

    @pytest.mark.parametrize("header", ["f0,group,group,label", "f0,f0,group,label"])
    def test_repeated_column_name_rejected(self, tmp_path, header):
        # header.index would take the first one; the second would read as a feature
        name = header.split(",")[1]
        message = re.escape(f"column '{name}' appears more than once in the header")
        path = _write(tmp_path, f"{header}\n1,0,1,1\n2,1,0,0\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + message):
            load_csv(path)
        unlabeled = _write(tmp_path, f"{header.rsplit(',', 1)[0]}\n1,0,1\n2,1,0\n", "target.csv")
        with pytest.raises(ValueError, match=message):
            load_unlabeled_csv(unlabeled)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = _write(tmp_path, "f0,group,label\noops,0,1\n")
        with pytest.raises(ValueError, match="oops"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        message = f"non-finite cell '{cell}' at row 2, column 'f1'"
        path = _write(tmp_path, f"f0,f1,group,label\n1,2,0,1\n3,{cell},1,0\n")
        with pytest.raises(ValueError, match=message):
            load_csv(path)
        path = _write(tmp_path, f"f0,f1,group\n1,2,0\n3,{cell},1\n", "target.csv")
        with pytest.raises(ValueError, match=message):
            load_unlabeled_csv(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_header_only_file(self, tmp_path):
        path = _write(tmp_path, "f0,group,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_kind_inference_and_override(self, tmp_path):
        path = _write(tmp_path, "f0,f1,group,label\n0,1.5,0,1\n1,2.5,1,0\n")
        data = load_csv(path)
        assert data.feature_kinds == (CATEGORICAL, CONTINUOUS)
        (tmp_path / "data.csv.kinds.json").write_text('{"f0": "continuous"}')
        data = load_csv(path)
        assert data.feature_kinds == (CONTINUOUS, CONTINUOUS)

    def test_sidecar_kind_override(self, tmp_path):
        path = _write(tmp_path, "f0,f1,group,label\n0,1.5,0,1\n1,2.5,1,0\n")
        (tmp_path / "data.csv.kinds.json").write_text('{"f1": "categorical"}')
        data = load_csv(path)
        assert data.feature_kinds == (CATEGORICAL, CATEGORICAL)

    @pytest.mark.parametrize(
        "text,cause",
        [
            ("[1]", r": must map column names to kinds, got \[1\]"),
            ('{"nope": "continuous"}', r": 'nope' is no feature column of "),
            ('{"label": "continuous"}', r": 'label' is no feature column of "),
            ('{"f0": "weird"}', r": unknown feature kind 'weird' for column 'f0'"),
            ('{"f0": ', r": invalid JSON: "),
        ],
    )
    def test_malformed_sidecar_names_the_file(self, tmp_path, text, cause):
        path = _write(tmp_path, "f0,f1,group,label\n0,1.5,0,1\n1,2.5,1,0\n")
        (tmp_path / "data.csv.kinds.json").write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}.kinds.json") + cause):
            load_csv(path)

    def test_unlabeled_csv(self, tmp_path):
        path = _write(tmp_path, "f0,group\n1.0,0\n2.0,1\n")
        data = load_unlabeled_csv(path)
        assert data.m == 2
        assert data.has_group(0) and data.has_group(1)

    def test_unlabeled_csv_refuses_a_label_column(self, tmp_path):
        path = _write(tmp_path, "f0,group,label\n1.0,0,1\n2.0,1,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} has a 'label' column; ")):
            load_unlabeled_csv(path)


def test_round_trip_preserves_values_exactly(tmp_path):
    rng = np.random.default_rng(1)
    data = LabeledDataset(
        rng.normal(size=(20, 3)) * 1e3,
        rng.integers(0, 2, 20),
        rng.integers(0, 2, 20),
        (CONTINUOUS,) * 3,
    )
    path = tmp_path / "out.csv"
    write_csv(path, data)
    loaded = load_csv(path)
    np.testing.assert_array_equal(loaded.features, data.features)
    np.testing.assert_array_equal(loaded.labels, data.labels)


def test_unlabeled_needs_two_rows():
    with pytest.raises(ValueError, match="2 rows"):
        UnlabeledDataset(np.zeros((1, 2)), np.zeros(1))


def test_datasets_are_immutable():
    data = LabeledDataset(np.ones((3, 2)), np.zeros(3), np.ones(3), (CONTINUOUS,) * 2)
    with pytest.raises(ValueError):
        data.features[0, 0] = 5.0


class TestZScore:
    def _dataset(self, column):
        col = np.asarray(column, dtype=float)
        return LabeledDataset(
            col[:, None], np.zeros(len(col)), np.zeros(len(col)), (CONTINUOUS,)
        )

    def test_two_point_column(self):
        stats = fit_zscore(self._dataset([0.0, 2.0]))
        assert stats.means[0] == 1.0
        assert stats.stds[0] == 1.0

    def test_constant_column_guard(self):
        stats = fit_zscore(self._dataset([5.0, 5.0, 5.0]))
        assert stats.means[0] == 5.0
        assert stats.stds[0] == 1.0

    def test_four_point_population_std(self):
        stats = fit_zscore(self._dataset([1.0, 2.0, 3.0, 4.0]))
        assert stats.means[0] == pytest.approx(2.5)
        assert stats.stds[0] == pytest.approx(math.sqrt(1.25))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="2 rows"):
            fit_zscore(self._dataset([1.0]))

    def test_self_normalization(self):
        rng = np.random.default_rng(2)
        data = LabeledDataset(
            rng.normal(3.0, 2.0, size=(50, 2)),
            rng.integers(0, 2, 50),
            rng.integers(0, 2, 50),
            (CONTINUOUS, CONTINUOUS),
        )
        out = apply_zscore(data, fit_zscore(data))
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-6)

    def test_identity_stats_are_identity(self):
        data = self._dataset([1.0, 2.0, 3.0])
        out = apply_zscore(data, NormalizationStats(np.zeros(1), np.ones(1)))
        np.testing.assert_array_equal(out.features, data.features)

    def test_pointwise_arithmetic(self):
        data = self._dataset([7.0, 7.0])
        out = apply_zscore(data, NormalizationStats(np.array([5.0]), np.array([2.0])))
        np.testing.assert_array_equal(out.features[:, 0], [1.0, 1.0])

    def test_categorical_columns_pass_through(self):
        data = LabeledDataset(
            np.array([[0.0, 10.0], [1.0, 30.0], [1.0, 20.0]]),
            np.zeros(3),
            np.zeros(3),
            (CATEGORICAL, CONTINUOUS),
        )
        out = apply_zscore(data, fit_zscore(data))
        np.testing.assert_array_equal(out.features[:, 0], data.features[:, 0])
        assert abs(out.features[:, 1].mean()) < 1e-12

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        data = LabeledDataset(
            rng.normal(5.0, 3.0, size=(40, 3)),
            rng.integers(0, 2, 40),
            rng.integers(0, 2, 40),
            (CONTINUOUS,) * 3,
        )
        once = apply_zscore(data, fit_zscore(data))
        twice = apply_zscore(once, fit_zscore(once))
        np.testing.assert_allclose(twice.features, once.features, atol=1e-12)

    def test_dimension_mismatch(self):
        data = self._dataset([1.0, 2.0])
        with pytest.raises(ValueError, match="mismatch"):
            apply_zscore(data, NormalizationStats(np.zeros(3), np.ones(3)))


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(1, 4)),
               elements=st.floats(-1e6, 1e6)),
    st.lists(st.booleans(), min_size=4, max_size=4),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(4)),
               elements=st.floats(-1e6, 1e6)),
)
def test_apply_is_the_zscore_expression_byte_for_byte(fit_rows, categorical, batch):
    # fitted statistics: a categorical column holds 0/1 values and gets mean 0, std 1
    d = fit_rows.shape[1]
    kinds = tuple(CATEGORICAL if c else CONTINUOUS for c in categorical[:d])
    fit_rows = np.where(categorical[:d], fit_rows > 0, fit_rows)
    data = LabeledDataset(fit_rows, np.zeros(len(fit_rows)), np.zeros(len(fit_rows)), kinds)
    stats = fit_zscore(data)
    expected = (data.features - stats.means) / stats.stds
    assert stats.apply(data.features).tobytes() == expected.tobytes()
    assert apply_zscore(data, stats).features.tobytes() == expected.tobytes()
    batch = batch[:, :d]
    assert stats.apply(batch).tobytes() == ((batch - stats.means) / stats.stds).tobytes()
    # a batch of another width: the one mismatch message
    with pytest.raises(ValueError, match=f"data has {d + 1} columns, stats have {d}"):
        stats.apply(np.zeros((2, d + 1)))


class TestSyntheticAsymmetric:
    def test_no_shift_keeps_group1_mean(self):
        train, test = make_synthetic_asymmetric_labeled(0, 2000, (0.0, 0.0))
        mean_train = train.features[train.groups == 1].mean(axis=0)
        mean_test = test.features[test.groups == 1].mean(axis=0)
        se = 0.6 / math.sqrt(2000)
        assert np.all(np.abs(mean_train - mean_test) < 3 * math.sqrt(2) * se)

    def test_shift_vector_moves_group1_mean(self):
        train, test = make_synthetic_asymmetric_labeled(1, 4000, (5.0, 0.0))
        diff = (
            test.features[test.groups == 1].mean(axis=0)
            - train.features[train.groups == 1].mean(axis=0)
        )
        se = 0.6 / math.sqrt(4000)
        assert abs(diff[0] - 5.0) < 4 * se
        assert abs(diff[1]) < 4 * se

    def test_group0_distribution_unchanged(self):
        train, test = make_synthetic_asymmetric_labeled(2, 4000, (5.0, -5.0))
        mean_train = train.features[train.groups == 0].mean(axis=0)
        mean_test = test.features[test.groups == 0].mean(axis=0)
        assert np.all(np.abs(mean_train - mean_test) < 0.2)

    def test_same_seed_bit_identical(self):
        a = make_synthetic_asymmetric_labeled(3, 50)
        b = make_synthetic_asymmetric_labeled(3, 50)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)
        np.testing.assert_array_equal(a[0].labels, b[0].labels)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError, match="at least 10"):
            make_synthetic_asymmetric_labeled(0, 5)

    def test_label_rule_shared_across_splits(self):
        # with no covariate shift the label rates must agree closely
        train, test = make_synthetic_asymmetric_labeled(5, 5000, (0.0, 0.0))
        assert abs(train.labels.mean() - test.labels.mean()) < 0.03


class TestGaussianShiftTask:
    def test_log_ratio_matches_multivariate_normal_oracle(self):
        task = GaussianShiftTask(gamma=1.7)
        x = np.random.default_rng(0).normal(size=(200, 2)) * 2.0
        source = multivariate_normal(mean=np.zeros(2)).logpdf(x)
        target = multivariate_normal(mean=np.array([1.7, 0.0])).logpdf(x)
        np.testing.assert_allclose(
            task.log_ratio_source_over_target(x), source - target, atol=1e-10
        )

    def test_ratio_directions_are_reciprocal(self):
        task = GaussianShiftTask(gamma=2.0)
        x = np.random.default_rng(1).normal(size=(50, 2))
        np.testing.assert_allclose(
            task.source_over_target(x) * task.target_over_source(x), 1.0
        )

    def test_importance_weights_average_to_one(self):
        task = GaussianShiftTask(gamma=1.0)
        source = task.sample_source(200_000, seed=2)
        assert abs(task.target_over_source(source.features).mean() - 1.0) < 0.02

    def test_target_shifted_along_first_axis(self):
        task = GaussianShiftTask(gamma=2.5)
        target = task.sample_target(50_000, seed=3)
        assert abs(target.features[:, 0].mean() - 2.5) < 0.02
        assert abs(target.features[:, 1].mean()) < 0.02

    def test_label_rule_unaffected_by_shift(self):
        task = GaussianShiftTask(gamma=3.0)
        x = np.random.default_rng(4).normal(size=(100, 2))
        no_shift = GaussianShiftTask(gamma=0.0)
        np.testing.assert_array_equal(
            task.label_probability(x), no_shift.label_probability(x)
        )


def test_infer_feature_kinds_rejects_unknown_override():
    with pytest.raises(ValueError, match="unknown feature kind"):
        infer_feature_kinds(np.zeros((2, 1)), {0: "weird"})


TINY = 5e-324  # the smallest positive float
# each range rule, values on the near side of its bounds and values just past them
RULE_CASES = {
    "be >= 0": ([0, 0.0], [-TINY]),
    "be >= 1": ([1], [math.nextafter(1.0, 0.0)]),
    "be >= 10": ([10], [math.nextafter(10.0, 0.0)]),
    "be > 0": ([TINY], [0, -TINY]),
    "be 0 or 1": ([0, 1], [-1, 2, 0.5]),
    "lie in [0, 1)": ([0, math.nextafter(1.0, 0.0)], [-TINY, 1]),
    "lie in (0, 1)": ([TINY, math.nextafter(1.0, 0.0)], [0, 1]),
    "lie in (0, 100)": ([TINY, math.nextafter(100.0, 0.0)], [0, 100]),
    "lie in [0, 1]": ([0, 1], [-TINY, math.nextafter(1.0, 2.0)]),
    "lie in [0, 100]": ([0, 100], [-TINY, math.nextafter(100.0, 200.0)]),
}


def _ruled(rule):
    """A config class with one float field ``x`` under ``rule``, one optional
    field and one tuple field whose entries carry it too."""

    @dataclass(frozen=True)
    class Ruled:
        x: Annotated[float, rule]
        maybe: Annotated[float | None, rule] = None
        xs: tuple[Annotated[float, rule], ...] = (1.0,)

        def __post_init__(self):
            check_field_types(self)

    return Ruled


def test_rule_cases_cover_every_rule():
    assert set(RULE_CASES) == set(_RULES)


@pytest.mark.parametrize("rule", list(RULE_CASES))
def test_range_rule_passes_its_bounds_and_rejects_past_them(rule):
    ruled = _ruled(rule)
    inside, outside = RULE_CASES[rule]
    for value in inside:
        assert ruled(value, maybe=value, xs=(value, value)).x == value
    for value in outside:
        cause = f" must {re.escape(rule)}, got {value!r}$"
        with pytest.raises(ValueError, match="^x" + cause):
            ruled(value)
        with pytest.raises(ValueError, match="^maybe" + cause):
            ruled(inside[0], maybe=value)
        with pytest.raises(ValueError, match="^xs entries" + cause):
            ruled(inside[0], xs=(inside[0], value))
