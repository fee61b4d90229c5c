import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshift.data import CONTINUOUS, LabeledDataset
from fairshift.splitter import (
    ShiftConfig,
    first_principal_projection,
    split,
    split_summary,
    tilt_densities,
)


def _dataset(features, groups=None):
    features = np.asarray(features, dtype=float)
    n = len(features)
    groups = np.zeros(n) if groups is None else np.asarray(groups)
    return LabeledDataset(
        features, groups, np.zeros(n), (CONTINUOUS,) * features.shape[1]
    )


class TestPrincipalProjection:
    def test_diagonal_line(self):
        t = np.linspace(-2, 2, 9)
        proj = first_principal_projection(np.column_stack([t, t]))
        np.testing.assert_allclose(proj, t * math.sqrt(2), atol=1e-12)

    def test_axis_aligned_points(self):
        proj = first_principal_projection([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(proj, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_matches_svd_oracle_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(5, 3)) @ np.diag([3.0, 1.0, 0.3])
            proj = first_principal_projection(x)
            centered = x - x.mean(axis=0)
            _, _, vt = np.linalg.svd(centered, full_matrices=False)
            direction = vt[0]
            lead = np.argmax(np.abs(direction))
            if direction[lead] < 0:
                direction = -direction
            np.testing.assert_allclose(proj, centered @ direction, atol=1e-8)

    def test_identical_rows_rejected(self):
        with pytest.raises(ValueError, match="covariance"):
            first_principal_projection(np.ones((5, 2)))

    def test_sign_fix_is_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        a = first_principal_projection(x)
        b = first_principal_projection(-x + x.mean(axis=0) * 2)
        np.testing.assert_allclose(a, -b, atol=1e-10)


class TestTiltDensities:
    def test_gamma_zero_is_uniform(self):
        dens = tilt_densities(np.random.default_rng(2).normal(size=40), gamma=0.0)
        np.testing.assert_allclose(dens, 1.0 / 40)

    def test_two_point_closed_form(self):
        dens = tilt_densities(np.array([0.0, 0.1]), gamma=10.0)
        e = math.e
        np.testing.assert_allclose(dens, [1 / (1 + e), e / (1 + e)], atol=1e-12)

    def test_anchor_point_has_unit_unnormalized_score(self):
        p = np.random.default_rng(3).normal(size=101)
        b = np.percentile(p, 60.0)
        # any point sitting exactly at the anchor scores exp(0) = 1
        assert math.exp(12.0 * (b - b)) == 1.0

    def test_sums_to_one_under_extreme_gamma(self):
        p = np.random.default_rng(4).normal(size=500) * 50
        dens = tilt_densities(p, gamma=40.0)
        assert np.isfinite(dens).all()
        assert dens.sum() == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_projection_for_positive_gamma(self):
        p = np.random.default_rng(5).normal(size=200)
        dens = tilt_densities(p, gamma=3.0)
        order = np.argsort(p)
        assert np.all(np.diff(dens[order]) >= 0)

    def test_non_finite_projection_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            tilt_densities(np.array([0.0, np.inf]), gamma=1.0)


class TestSplit:
    def _pool(self, n=1000, seed=0):
        rng = np.random.default_rng(seed)
        return _dataset(rng.normal(size=(n, 3)), rng.integers(0, 2, n))

    def test_default_ratio_is_5_1_4(self):
        result = split(self._pool(), ShiftConfig(gamma=10.0, seed=0))
        assert result.counts() == {"train": 500, "val": 100, "test": 400}

    def test_partition_property(self):
        result = split(self._pool(), ShiftConfig(gamma=5.0, seed=1))
        merged = np.concatenate([result.train_idx, result.val_idx, result.test_idx])
        np.testing.assert_array_equal(np.sort(merged), np.arange(1000))

    def test_densities_sum_to_one(self):
        result = split(self._pool(), ShiftConfig(gamma=5.0, seed=2))
        assert result.densities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rerun_is_bit_identical(self):
        pool = self._pool()
        a = split(pool, ShiftConfig(gamma=7.0, seed=3))
        b = split(pool, ShiftConfig(gamma=7.0, seed=3))
        np.testing.assert_array_equal(a.test_idx, b.test_idx)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    # 1e308 overflows gamma * (p - b); at 1e300 the tilt keeps too few rows to draw
    @pytest.mark.parametrize("gamma", [1e300, 1e308])
    @pytest.mark.parametrize("group", [None, 1])
    def test_extreme_gamma_raises_one_clear_error(self, gamma, group):
        cfg = ShiftConfig(gamma=gamma, asymmetric_group=group)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gamma"):
                split(self._pool(), cfg)

    def test_high_gamma_concentrates_above_anchor(self):
        pool = self._pool()
        hits_tilted, hits_uniform = [], []
        for seed in range(30):
            tilted = split(pool, ShiftConfig(gamma=20.0, seed=seed))
            uniform = split(pool, ShiftConfig(gamma=0.0, seed=seed))
            b = tilted.anchor
            hits_tilted.append((tilted.projection[tilted.test_idx] > b).mean())
            hits_uniform.append((uniform.projection[uniform.test_idx] > b).mean())
        wins = sum(t > u for t, u in zip(hits_tilted, hits_uniform))
        assert wins >= 29

    def test_asymmetric_mode_leaves_other_group_uniform(self):
        pool = self._pool(n=2000, seed=4)
        proj = first_principal_projection(pool.features)
        means = []
        for seed in range(60):
            result = split(pool, ShiftConfig(gamma=20.0, seed=seed, asymmetric_group=1))
            test0 = [i for i in result.test_idx if pool.groups[i] == 0]
            means.append(proj[test0].mean())
        pool_mean0 = proj[pool.groups == 0].mean()
        spread = np.std(means)
        assert abs(np.mean(means) - pool_mean0) < 3 * spread / math.sqrt(60)

    def test_asymmetric_mode_shifts_target_group(self):
        pool = self._pool(n=2000, seed=5)
        proj = first_principal_projection(pool.features)
        result = split(pool, ShiftConfig(gamma=20.0, seed=0, asymmetric_group=1))
        test1 = [i for i in result.test_idx if pool.groups[i] == 1]
        assert proj[test1].mean() > proj[pool.groups == 1].mean()

    def test_asymmetric_group_must_exist(self):
        pool = _dataset(np.random.default_rng(6).normal(size=(50, 2)), np.zeros(50))
        with pytest.raises(ValueError, match="absent"):
            split(pool, ShiftConfig(asymmetric_group=1))

    def test_summary_fields(self):
        cfg = ShiftConfig(gamma=10.0, seed=7)
        result = split(self._pool(), cfg)
        summary = split_summary(result, cfg)
        assert summary["gamma"] == 10.0
        assert summary["counts"]["test"] == 400
        assert summary["log_z"] == pytest.approx(result.log_normalizer)


class TestShiftConfigValidation:
    def test_negative_gamma(self):
        with pytest.raises(ValueError):
            ShiftConfig(gamma=-1.0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            ShiftConfig(test_fraction=1.0)
        with pytest.raises(ValueError):
            ShiftConfig(val_fraction_of_train=0.0)

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            ShiftConfig(percentile=100.0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
            ShiftConfig(seed=-1)


FRACTIONS = st.floats(0.01, 0.99)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.integers(3, 40),
    st.integers(0, 40),
    FRACTIONS,
    FRACTIONS,
    st.sampled_from([None, 0, 1]),
    st.integers(0, 2**32 - 1),
)
def test_split_parts_partition_the_rows(n0, n1, test_fraction, val_fraction, group, seed):
    # asymmetric mode splits each group on its own, so each needs 3 rows
    if group is not None:
        n1 += 3
    groups = np.repeat([0, 1], [n0, n1])
    pool = _dataset(np.random.default_rng(seed).normal(size=(n0 + n1, 2)), groups)
    cfg = ShiftConfig(
        gamma=2.0,
        test_fraction=test_fraction,
        val_fraction_of_train=val_fraction,
        asymmetric_group=group,
        seed=seed,
    )
    result = split(pool, cfg)
    parts = (result.train_idx, result.val_idx, result.test_idx)
    merged = np.concatenate(parts)
    np.testing.assert_array_equal(np.sort(merged), np.arange(pool.n))
    assert min(map(len, parts)) >= 1
    if group is not None:
        for g in (0, 1):
            assert all((pool.groups[part] == g).any() for part in parts)


@pytest.mark.parametrize("sizes,group", [((2, 0), None), ((5, 1), 1), ((4, 2), 1), ((2, 5), 1)])
def test_too_few_rows_to_split_rejected(sizes, group):
    groups = np.repeat([0, 1], sizes)
    pool = _dataset(np.random.default_rng(0).normal(size=(sum(sizes), 2)), groups)
    with pytest.raises(ValueError, match="at least 3 rows"):
        split(pool, ShiftConfig(gamma=1.0, asymmetric_group=group))


# SHA-256 of the (train, val, test) indices as int64 on one fixed pool: any
# change to the draws, in either mode, shows here
SPLIT_INDEX_DIGESTS = {
    (None, 0): "6878039b972b27a0db843b71302f8160f432d36285e681c303bfc7f9ac21ad87",
    (None, 1): "caa7c5c9af09582fd68223fb214f696dcaeadf1b5a47e5d8b76ca2dfb9117738",
    (None, 2): "fc0d8575d62bea2ce227fdbcb8d6b4fa8028ad3ce112274f7b097501e1a4f019",
    (1, 0): "931c764c53f2a3f2e65e78ed2ebcafbeb2179d8eb074635679a495a547d6be67",
    (1, 1): "8f250bd4f2e5d4828b79eb024801fe736ad1e6713009ea9d9fd646a4c51c45d5",
    (1, 2): "86a4e5303a20deecdcd7e61ecf4b7c4b3be3606a608d5b2703fbb061259b6cb4",
}


@pytest.mark.parametrize("group,seed", list(SPLIT_INDEX_DIGESTS))
def test_split_indices_are_pinned(group, seed):
    rng = np.random.default_rng(7)
    features = rng.normal(size=(90, 3)) @ np.diag([2.0, 1.0, 0.5])
    pool = _dataset(features, rng.integers(0, 2, size=90))
    result = split(pool, ShiftConfig(gamma=2.0, seed=seed, asymmetric_group=group))
    digest = hashlib.sha256()
    for idx in (result.train_idx, result.val_idx, result.test_idx):
        digest.update(np.ascontiguousarray(idx, dtype=np.int64).tobytes())
    assert digest.hexdigest() == SPLIT_INDEX_DIGESTS[group, seed]
