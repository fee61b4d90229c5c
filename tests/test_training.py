import hashlib
import itertools
import math
import os
import platform
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, fields, replace
from scipy.stats import spearmanr

import fairshift
from fairshift import autodiff as ad
from fairshift.data import (
    CONTINUOUS,
    GaussianShiftTask,
    LabeledDataset,
    NormalizationStats,
    UnlabeledDataset,
    make_synthetic_asymmetric_labeled,
)
from fairshift.losses import (
    _pairwise_sq_dists,
    constraint_penalty,
    solve_coupling,
    weighted_entropy_term,
)
from fairshift import nets, training
from fairshift.nets import GRAD_CLIP_NORM, parameter_digest
from fairshift.training import (
    METHOD_TABLE,
    METHODS,
    RATIO_FLOOR,
    PretrainCache,
    TrainConfig,
    TrainedModel,
    _check_finite,
    _streams,
    _subsample_target,
    load_checkpoint,
    save_checkpoint,
    train,
    weight_summary,
)

QUICK = TrainConfig(pretrain_epochs=3, adapt_epochs=4, m_cap=40, seed=5)


def _cut_key(cfg):
    return training._read_key(cfg, cfg.pretrain_epochs)


# the methods whose first pretrain_epochs epochs of QUICK are erm's
SHARING = tuple(
    method for method in METHODS
    if _cut_key(replace(QUICK, method=method)) == _cut_key(replace(QUICK, method="erm"))
)


@pytest.fixture(scope="module")
def small_task():
    source, test = make_synthetic_asymmetric_labeled(seed=11, n_per_group=100)
    return source, test.without_labels()


class TestDegenerateEquivalences:
    def test_zero_lambdas_reproduce_erm_bitwise(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, lambda1=0.0, lambda2=0.0)
        ours = train(source, target, replace(cfg, method="ours"))
        erm = train(source, None, replace(cfg, method="erm"))
        assert ours.param_digests == erm.param_digests
        # no entropy term: no weight network is built, so none is summarized
        assert ours.weight_net is None and ours.weight_summary is None

    def test_no_adapt_stage_equals_erm_prefix(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, pretrain_epochs=7, adapt_epochs=0)
        ours = train(source, target, replace(cfg, method="ours"))
        erm = train(source, None, replace(cfg, method="erm"))
        assert ours.param_digests == erm.param_digests
        assert len(ours.history) == 7

    def test_unit_ratio_importance_weighting_equals_erm(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, method="kliep_iw", lambda2=0.0)
        iw = train(source, target, cfg, ratio_override=np.ones(source.n))
        erm = train(source, None, replace(cfg, method="erm"))
        assert iw.weight_summary == weight_summary(np.ones(source.n))
        assert iw.param_digests == erm.param_digests

    def test_unweighted_entropy_with_zero_lambdas_equals_erm(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, method="unweighted_entropy", lambda1=0.0, lambda2=0.0)
        unweighted = train(source, target, cfg)
        erm = train(source, None, replace(cfg, method="erm"))
        assert unweighted.param_digests == erm.param_digests

    def test_zero_entropy_weight_reduces_ours_to_risk_plus_matching(self, small_task):
        # with the entropy term off, both adaptive trainers optimize the
        # same risk + matching objective and march in lockstep
        source, target = small_task
        cfg = replace(QUICK, lambda1=0.0, lambda2=0.3)
        ours = train(source, target, replace(cfg, method="ours"))
        unweighted = train(source, target, replace(cfg, method="unweighted_entropy"))
        assert ours.param_digests == unweighted.param_digests
        assert ours.weight_net is None and ours.weight_summary is None

    def test_unit_ratio_importance_weighting_matches_adaptive_trainers(self, small_task):
        # without pre-training and with the entropy term off, all three
        # trainers run risk + matching from epoch 0 on identical batches
        source, target = small_task
        cfg = replace(QUICK, pretrain_epochs=0, lambda1=0.0, lambda2=0.3)
        iw = train(
            source, target, replace(cfg, method="kliep_iw"), ratio_override=np.ones(source.n)
        )
        ours = train(source, target, replace(cfg, method="ours"))
        unweighted = train(source, target, replace(cfg, method="unweighted_entropy"))
        assert iw.param_digests == ours.param_digests == unweighted.param_digests


class TestDeterminism:
    def test_same_seed_same_trajectory(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, method="ours", lambda1=0.5, lambda2=0.2)
        a = train(source, target, cfg)
        b = train(source, target, cfg)
        assert a.param_digests == b.param_digests
        assert [h.total for h in a.history] == [h.total for h in b.history]

    def test_different_seed_different_trajectory(self, small_task):
        source, target = small_task
        a = train(source, None, replace(QUICK, method="erm", seed=1))
        b = train(source, None, replace(QUICK, method="erm", seed=2))
        assert a.param_digests[-1] != b.param_digests[-1]


# param_digests[-1] of QUICK on small_task, recorded before the tape nodes
# were fused (numpy 2.4, OpenBLAS 0.3.31, x86-64); a rewrite of the tape,
# the networks or the optimizer must keep every bit of every trajectory
GOLDEN_FINAL_DIGESTS = {
    "ours": "a9a72c3711059899de80c8a304ef50704f6692fd04d0fec5fb2bcdd828ec146d",
    "erm": "03c818707fe85124fad8c0bf88ba36e213950204a73e4cf2e3682f37de577e49",
    "kliep_iw": "9e616c9e5028737939bf406b4a24cd5932faaf742bedccf3aaa0bec3b6d19d10",
    "lsif_iw": "b3c19ed5542be18508ae8d97e56297f85d61101ea6055ee0ee731e38e76f91c8",
    "zsa": "f8da5ee84b3962d2b845ec629305cb5db2e4bef20234cb6c90f65a2e888e003f",
    "unweighted_entropy": "6138f2c3e89f8556a97d4f69f8cec2e8737d5507c1c123d2eeade5887f917d20",
}


@pytest.mark.parametrize("method", METHODS)
def test_final_digest_matches_the_recorded_trajectory(small_task, method):
    source, target = small_task
    model = train(source, target, replace(QUICK, method=method))
    assert model.param_digests[-1] == GOLDEN_FINAL_DIGESTS[method]


# every epoch of ``ours`` on QUICK, recorded before the ascent's entropy and
# penalty were fused into single nodes: floats as float.hex, counts as is
GOLDEN_OURS_HISTORY = {
    "erm": (
        "0x1.622aa000d9368p-1", "0x1.5b2871182a8a6p-1", "0x1.55c9a4f5f5d73p-1",
        "0x1.56934539eb0dap-1", "0x1.53c647902874dp-1", "0x1.56017509862dap-1",
        "0x1.585d228d164aap-1",
    ),
    "weighted_entropy": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.38a07988aa000p-5",
        "0x1.3ee60d6242415p-5", "0x1.41c2fe53c95ecp-5", "0x1.42825502918bcp-5",
    ),
    "wasserstein": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.f160d505052aap+0",
        "0x1.f0ad06e7b71b7p+0", "0x1.f01c5dbdea18cp+0", "0x1.efcebc671a2d8p+0",
    ),
    "c1_penalty": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ef7ed7f46d942p+1",
        "0x1.dcdc656c95b61p+1", "0x1.d292d653d324dp+1", "0x1.ce07cc481a8dfp+1",
    ),
    "c2_penalty": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.8fcd3ed75b5dbp-2",
        "0x1.8a38b817d84a8p-2", "0x1.870ebb21f0783p-2", "0x1.85a49d1b026cdp-2",
    ),
    "total": (
        "0x1.622aa000d9368p-1", "0x1.5b2871182a8a6p-1", "0x1.55c9a4f5f5d73p-1",
        "0x1.4ed248ce67365p+1", "0x1.4dc7a490735f0p+1", "0x1.4e0f408711b52p+1",
        "0x1.4e7fa7c5a07d4p+1",
    ),
    "coupling_solves": (0, 0, 0, 1, 0, 0, 0),
    "coupling_reuses": (0, 0, 0, 0, 1, 1, 1),
    "theta_grad_norm_max": (
        "0x1.275de9bb70525p+0", "0x1.3f9280b4df43fp-1", "0x1.9165bcf86c319p-1",
        "0x1.0260dbea75b51p+2", "0x1.0211c7b80bb59p+2", "0x1.01630e0372ab3p+2",
        "0x1.01f81e8f80195p+2",
    ),
    "theta_clip_hits": (0, 0, 0, 0, 0, 0, 0),
    "w_grad_norm_max": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.4c4ed2c76bc1ap+4",
        "0x1.40e2ce8ad59a2p+4", "0x1.3a7ebd1a7813cp+4", "0x1.37ca599a697bfp+4",
    ),
    "w_clip_hits": (0, 0, 0, 1, 1, 1, 1),
}


def test_ours_history_matches_the_recorded_epoch_log(small_task):
    source, target = small_task
    model = train(source, target, replace(QUICK, method="ours"))
    history = [entry.to_dict() for entry in model.history]
    for field, expected in GOLDEN_OURS_HISTORY.items():
        logged = tuple(
            entry[field].hex() if isinstance(expected[0], str) else entry[field]
            for entry in history
        )
        assert logged == expected, field
    assert all(entry["epoch_s"] > 0 for entry in history)


@pytest.mark.parametrize("method", ["erm", "ours"])
def test_epoch_wall_time_is_logged_but_not_compared(small_task, method):
    source, target = small_task
    cfg = replace(QUICK, method=method)
    a, b = train(source, target, cfg), train(source, target, cfg)
    assert len(a.history) == cfg.total_epochs
    assert all(isinstance(entry.epoch_s, float) and entry.epoch_s > 0 for entry in a.history)
    assert a.history == b.history


class TestPretrainCache:
    """A run that resumes from the cache is bit for bit its run on its own."""

    GRID = [
        replace(QUICK, method=method, lambda1=lam1, lambda2=lam2, m_cap=m)
        for method in SHARING
        for lam1 in (0.0, 0.1)
        for lam2 in (0.0, 1.0)
        for m in (40, 60)
    ]

    def test_cached_runs_equal_their_solo_runs(self, small_task):
        source, target = small_task
        cache = PretrainCache()
        for i, cfg in enumerate(self.GRID):
            cached = train(source, target, cfg, cache)
            solo = train(source, target, cfg)
            assert cached.resumed_epochs == (0 if i == 0 else cfg.pretrain_epochs)
            assert solo.resumed_epochs == 0
            assert cached.param_digests == solo.param_digests
            assert cached.history == solo.history

    def test_two_resumes_from_one_state_are_identical(self, small_task):
        source, target = small_task
        cache = PretrainCache()
        train(source, target, replace(QUICK, method="erm"), cache)
        stored = cache.state
        cfg = replace(QUICK, method="ours")
        a, b = train(source, target, cfg, cache), train(source, target, cfg, cache)
        assert cache.state is stored
        assert a.resumed_epochs == b.resumed_epochs == cfg.pretrain_epochs
        assert a.param_digests == b.param_digests == train(source, target, cfg).param_digests
        assert a.history == b.history

    # one changed value for every field that keys the cache
    KEY_CHANGES = {
        "pretrain_epochs": 2,
        "adapt_epochs": 3,
        "batch_size": 16,
        "adapt_train_batch_size": 128,
        "seed": 6,
        "weight_decay": 1e-4,
        "learning_rate": 2e-3,
        "hidden_dim": 16,
        "rep_dim": 16,
        "clf_hidden_dim": 8,
        "dropout_rate": 0.1,
    }

    def test_every_field_but_the_adaptation_ones_keys_the_cache(self):
        # before adapting, every sharing row is erm's row, which reads the KEY_CHANGES fields
        row, key = _cut_key(replace(QUICK, method="erm"))
        assert row == METHOD_TABLE["erm"]
        assert all(_cut_key(replace(QUICK, method=method)) == (row, key) for method in SHARING)
        assert [name for name, _ in key] == [f.name for f in fields(TrainConfig)
                                             if f.name in self.KEY_CHANGES]

    @pytest.mark.parametrize("name", sorted(KEY_CHANGES))
    def test_a_changed_key_field_misses(self, small_task, name):
        source, _ = small_task
        cfg = replace(QUICK, method="erm")
        cache = PretrainCache()
        train(source, None, cfg, cache)
        changed = replace(cfg, **{name: self.KEY_CHANGES[name]})
        assert train(source, None, changed, cache).resumed_epochs == 0

    def test_a_changed_source_value_misses(self, small_task):
        source, _ = small_task
        cfg = replace(QUICK, method="erm")
        cache = PretrainCache()
        train(source, None, cfg, cache)
        for column in ("features", "labels"):
            values = getattr(source, column).copy()
            values[7] = 1 - values[7] if column == "labels" else values[7] + 1e-9
            kwargs = {"features": source.features, "labels": source.labels, column: values}
            changed = LabeledDataset(
                kwargs["features"], source.groups, kwargs["labels"], source.feature_kinds
            )
            model = train(changed, None, cfg, cache)
            assert model.resumed_epochs == 0
            assert model.param_digests == train(changed, None, cfg).param_digests
        # the source itself, rebuilt from equal values, still hits
        rebuilt = LabeledDataset(
            source.features.copy(), source.groups, source.labels.copy(), source.feature_kinds
        )
        train(source, None, cfg, cache)
        assert train(rebuilt, None, cfg, cache).resumed_epochs == cfg.pretrain_epochs

    @pytest.mark.parametrize("method", sorted(set(METHODS) - set(SHARING)))
    def test_other_rows_miss_erms_cut(self, small_task, method):
        source, target = small_task
        cache = PretrainCache()
        train(source, target, replace(QUICK, method="erm"), cache)
        cfg = replace(QUICK, method=method)
        model = train(source, target, cfg, cache)
        assert model.resumed_epochs == 0
        assert model.param_digests == train(source, target, cfg).param_digests
        # it stored its own cut, which its next run resumes
        assert train(source, target, cfg, cache).resumed_epochs == cfg.pretrain_epochs

    @pytest.mark.parametrize("method", METHODS)
    def test_a_resumed_run_equals_its_run_alone(self, small_task, method):
        # lambda1 is unread before every row's cut: ours adapts after it, the others never
        source, target = small_task
        cfg = replace(QUICK, method=method)
        cache = PretrainCache()
        train(source, target, replace(cfg, lambda1=0.3), cache)
        resumed, alone = train(source, target, cfg, cache), train(source, target, cfg)
        assert resumed.resumed_epochs == cfg.pretrain_epochs and alone.resumed_epochs == 0
        assert resumed.param_digests == alone.param_digests
        # the coupling counters included: a resumed run keeps the stored simplex basis
        assert resumed.history == alone.history
        assert resumed.weight_summary == alone.weight_summary
        probs = [model.predict_proba(target.features).tobytes() for model in (resumed, alone)]
        assert probs[0] == probs[1]

    # one changed value for every field but the method
    FIELD_CHANGES = {**KEY_CHANGES, "lambda1": 0.3, "lambda2": 0.5, "c1": 2.0, "c2": 2.0,
                     "weight_lr_multiplier": 5.0, "weight_hidden_dim": 16, "m_cap": 60}

    @pytest.mark.parametrize("lambdas", [{}, {"lambda1": 0.0}, {"lambda2": 0.0}],
                             ids=["defaults", "lambda1_0", "lambda2_0"])
    @pytest.mark.parametrize("method", METHODS)
    def test_the_cut_key_holds_every_field_the_cut_reads(self, small_task, method, lambdas):
        source, target = small_task
        cfg = replace(QUICK, method=method, adapt_epochs=1, **lambdas)
        cut = cfg.pretrain_epochs
        cache = PretrainCache()
        base = train(source, target, cfg, cache)
        assert set(self.FIELD_CHANGES) == {f.name for f in fields(TrainConfig)} - {"method"}
        for name, value in self.FIELD_CHANGES.items():
            changed = replace(cfg, **{name: value})
            if _cut_key(changed) == _cut_key(cfg):  # left out: the cut computes alike
                model = train(source, target, changed)
                assert model.param_digests[:cut] == base.param_digests[:cut], name
            else:  # kept: a miss, and the cut computes otherwise
                model = train(source, target, changed, PretrainCache(cache.state))
                assert model.resumed_epochs == 0, name
                assert model.param_digests[:cut] != base.param_digests[:cut], name

    @pytest.mark.parametrize(
        "override,lambda2,hits",
        [(False, 1.0, False), (True, 1.0, False), (True, 0.0, True)],
        ids=["fitted", "unit_ratios", "unit_ratios_no_matching"],
    )
    def test_an_iw_run_on_another_target_sample_misses(self, small_task, override, lambda2,
                                                       hits):
        # the same source: only the target sample differs, and a cut reads it only to adapt
        source, target = small_task
        other = target.subset(np.arange(1, target.m))
        cfg = replace(QUICK, method="kliep_iw", lambda2=lambda2)
        kwargs = {"ratio_override": np.ones(source.n)} if override else {}
        cache = PretrainCache()
        train(source, target, cfg, cache, **kwargs)
        model = train(source, other, cfg, cache, **kwargs)
        assert model.resumed_epochs == (cfg.pretrain_epochs if hits else 0)
        assert model.param_digests == train(source, other, cfg, **kwargs).param_digests

    def test_a_member_failing_before_training_leaves_the_others_exact(self, small_task):
        source, target = small_task
        cache = PretrainCache()
        with pytest.raises(ValueError, match="m_cap"):
            train(source, target, replace(QUICK, method="ours", m_cap=target.m + 1), cache)
        assert cache.state is None
        for i, method in enumerate(("erm", "unweighted_entropy")):
            cfg = replace(QUICK, method=method)
            model = train(source, target, cfg, cache)
            assert model.resumed_epochs == (0 if i == 0 else cfg.pretrain_epochs)
            assert model.param_digests == train(source, target, cfg).param_digests

    def test_a_resumed_run_builds_no_predictor_and_no_optimizer(self, small_task, monkeypatch):
        source, target = small_task
        cache = PretrainCache()
        train(source, target, replace(QUICK, method="erm"), cache)
        built = []

        def counting(name):
            real = getattr(training, name)

            def build(*args, **kwargs):
                built.append(name)
                return real(*args, **kwargs)

            return build

        for name in ("PredictorModel", "AdamOptimizer"):
            monkeypatch.setattr(training, name, counting(name))
        for method, expected in (
            ("erm", []),
            ("unweighted_entropy", []),
            ("ours", ["AdamOptimizer"]),  # its weight network's
        ):
            built.clear()
            model = train(source, target, replace(QUICK, method=method), cache)
            assert model.resumed_epochs == QUICK.pretrain_epochs
            assert built == expected

    def test_training_a_resumed_run_leaves_the_stored_progress_alone(self, small_task):
        source, target = small_task
        cache = PretrainCache()
        train(source, target, replace(QUICK, method="erm"), cache)
        stored = cache.state[-1]
        digest = parameter_digest(stored.model.parameters)
        assert stored.digests[-1] == digest
        for method in SHARING:
            model = train(source, target, replace(QUICK, method=method), cache)
            assert model.resumed_epochs == QUICK.pretrain_epochs
            assert parameter_digest(stored.model.parameters) == digest
            assert len(stored.history) == len(stored.digests) == QUICK.pretrain_epochs

    def test_a_run_without_adaptation_stores_and_resumes_whole(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, adapt_epochs=0)
        cache = PretrainCache()
        train(source, target, replace(cfg, method="erm"), cache)
        ours = replace(cfg, method="ours")
        model = train(source, target, ours, cache)
        assert model.resumed_epochs == cfg.pretrain_epochs == len(model.history)
        assert model.param_digests == train(source, target, ours).param_digests


# one changed value for every field some method never reads
UNREAD_CHANGES = {
    "lambda1": 0.3,
    "lambda2": 0.5,
    "c1": 2.0,
    "c2": 2.0,
    "weight_lr_multiplier": 5.0,
    "weight_hidden_dim": 16,
    "m_cap": 60,
}


def _outcome(model):
    stats = model.input_stats
    stored = None if stats is None else (stats.means.tobytes(), stats.stds.tobytes())
    return model.param_digests, model.history, stored


class TestMethodTable:
    """Each method is one row of switches; its read key says which fields its run reads."""

    @pytest.fixture(scope="class")
    @staticmethod
    def base_runs(small_task):
        source, target = small_task
        return {method: _outcome(train(source, target, replace(QUICK, method=method)))
                for method in METHODS}

    @pytest.mark.parametrize("name", sorted(UNREAD_CHANGES))
    @pytest.mark.parametrize("method", METHODS)
    def test_a_field_changes_the_model_unless_it_is_unread(
        self, small_task, base_runs, method, name
    ):
        source, target = small_task
        cfg = replace(QUICK, method=method, **{name: UNREAD_CHANGES[name]})
        unchanged = _outcome(train(source, target, cfg)) == base_runs[method]
        _, read = training._read_key(replace(QUICK, method=method))
        assert unchanged == (name not in dict(read))

    def test_the_derivation_names_only_train_config_fields(self):
        # every row, both lambdas on and off, every cut and the whole run
        names = [f.name for f in fields(TrainConfig)]
        left_out = set()
        for method, lam1, lam2, epochs in itertools.product(
            METHODS, (0.0, 0.1), (0.0, 1.0), [*range(QUICK.total_epochs + 1), None]
        ):
            cfg = replace(QUICK, method=method, lambda1=lam1, lambda2=lam2)
            read = [name for name, _ in training._read_key(cfg, epochs)[1]]
            assert read == [name for name in names if name in read]
            left_out.update(set(names) - set(read))
        # so the field tests cover every name the derivation can leave out
        assert left_out == set(UNREAD_CHANGES) | {"method"}

    def test_the_rows_derive_what_each_method_needs(self):
        def having(prop):
            return {method for method, row in METHOD_TABLE.items() if prop(row)}

        assert METHODS == ("ours", "erm", "kliep_iw", "lsif_iw", "zsa", "unweighted_entropy")
        assert set(SHARING) == {"erm", "ours", "unweighted_entropy"}
        assert having(lambda row: not row.needs_target) == {"erm"}
        assert having(lambda row: row.matches) == set(METHODS) - {"erm", "zsa"}
        assert having(lambda row: row.ratio_loss) == {"kliep_iw", "lsif_iw"}
        reads = {method: dict(training._read_key(replace(QUICK, method=method))[1])
                 for method in ("erm", "ours")}
        assert set(UNREAD_CHANGES).isdisjoint(reads["erm"])
        assert set(UNREAD_CHANGES) <= set(reads["ours"])

    def test_whole_runs_with_equal_keys_check_alike(self):
        # train() checks a run's target by its method's own row, so equal
        # whole-run keys must mean equal checks, also where a zero lambda
        # leaves two methods' effective rows equal
        keys = {}
        for method, lam1, lam2 in itertools.product(METHODS, (0.0, 0.1), (0.0, 1.0)):
            cfg = replace(QUICK, method=method, lambda1=lam1, lambda2=lam2)
            row = METHOD_TABLE[method]
            keys.setdefault(training._read_key(cfg), set()).add((row.needs_target, row.matches))
        assert all(len(checks) == 1 for checks in keys.values())
        # ours with both terms off trains erm's epochs, yet draws and checks a target
        still = replace(QUICK, method="ours", lambda1=0.0, lambda2=0.0)
        assert _cut_key(still) == _cut_key(replace(QUICK, method="erm"))
        assert training._read_key(still) != training._read_key(replace(QUICK, method="erm"))
        assert ("m_cap", QUICK.m_cap) in training._read_key(replace(QUICK, method="zsa"))[1]

    def test_the_readme_table_is_the_code_table(self):
        # README's table of method x switches, row by row
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        header = "| method | entropy | matching | adapts from | row weights | z-score |"
        start = lines.index(header) + 2
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        readme = [tuple(cell.strip() for cell in row.strip("|").split("|")) for row in rows]
        yes_no = {True: "yes", False: "no"}
        code = [
            (f"`{method}`", row.entropy or "none", yes_no[row.matches],
             "`pretrain_epochs`" if row.pretrains else "0",
             f"`{row.ratio_loss.__name__}`" if row.ratio_loss else "none", yes_no[row.zscore])
            for method, row in METHOD_TABLE.items()
        ]
        assert readme == code


class TestErm:
    def test_linearly_separable_toy(self):
        rng = np.random.default_rng(0)
        n = 200
        x = rng.normal(size=(n, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        x += np.where(y[:, None] == 1, 0.6, -0.6)  # margin, separable by x0+x1=0
        data = LabeledDataset(x, rng.integers(0, 2, n), y, (CONTINUOUS,) * 2)
        cfg = TrainConfig(method="erm", pretrain_epochs=50, adapt_epochs=0, seed=0)
        model = train(data, None, cfg)
        train_error = ((model.predict_proba(data.features) >= 0.5) != data.labels).mean()
        assert train_error < 0.02

    def test_history_covers_all_epochs(self, small_task):
        source, _ = small_task
        model = train(source, None, replace(QUICK, method="erm"))
        assert len(model.history) == QUICK.total_epochs
        assert len(model.param_digests) == QUICK.total_epochs


class TestOurs:
    def test_history_and_breakdown(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, method="ours", lambda1=0.5, lambda2=0.2)
        model = train(source, target, cfg)
        assert len(model.history) == cfg.total_epochs
        adapt = model.history[cfg.pretrain_epochs :]
        for entry in adapt:
            assert entry.total == pytest.approx(
                entry.erm + cfg.lambda1 * entry.weighted_entropy + cfg.lambda2 * entry.wasserstein
            )
            assert entry.c1_penalty >= 0 and entry.c2_penalty >= 0

    @pytest.mark.parametrize(
        "trainer",
        [
            lambda source, target: train(source, target, replace(QUICK, method="ours")),
            lambda source, target: train(
                source,
                target,
                replace(QUICK, method="kliep_iw"),
                ratio_override=np.ones(source.n),
            ),
        ],
        ids=["ours", "kliep_iw"],
    )
    def test_single_group_target_rejected(self, small_task, trainer):
        source, _ = small_task
        rng = np.random.default_rng(0)
        lone = UnlabeledDataset(rng.normal(size=(30, 2)), np.zeros(30))
        with pytest.raises(ValueError, match="both groups"):
            trainer(source, lone)

    def test_m_cap_capped_by_target_size(self, small_task):
        source, target = small_task
        with pytest.raises(ValueError, match="m_cap"):
            train(source, target, replace(QUICK, method="ours", m_cap=target.m + 1))

    @staticmethod
    def _starved_target(target):
        # 100 group-0 points and one group-1 point: an m_cap=5 subsample of
        # this seed's stream draws no group-1 point
        idx = np.concatenate(
            [np.flatnonzero(target.groups == 0)[:100], np.flatnonzero(target.groups == 1)[:1]]
        )
        return target.subset(np.sort(idx))

    @pytest.mark.parametrize("method", ["ours", "unweighted_entropy", "kliep_iw"])
    def test_group_starved_subsample_raises(self, small_task, method):
        source, target = small_task
        cfg = replace(QUICK, method=method, m_cap=5)
        with pytest.raises(ValueError, match="m_cap=5 target subsample has no group-1 point"):
            train(source, self._starved_target(target), cfg)

    def test_group_starved_subsample_is_fine_without_matching(self, small_task):
        source, target = small_task
        model = train(source, self._starved_target(target), replace(QUICK, method="zsa", m_cap=5))
        assert model.input_stats is not None

    @staticmethod
    def _unequal_target(target, sizes=(26, 24)):
        idx = [np.flatnonzero(target.groups == g)[:n] for g, n in enumerate(sizes)]
        return target.subset(np.sort(np.concatenate(idx)))

    def test_reused_plans_cost_what_a_fresh_solve_costs(self, small_task, monkeypatch):
        source, target = small_task
        import fairshift.training as training_module

        real_w2 = training_module.wasserstein2
        checked = []

        def checked_w2(a, b, cache):
            reuses = cache.reuses
            out = real_w2(a, b, cache)
            if cache.reuses > reuses:
                cost = _pairwise_sq_dists(a.value, b.value)
                fresh = (solve_coupling(a.value, b.value).plan * cost).sum()
                checked.append(abs(out.value**2 - fresh) <= 1e-12 * fresh)
            return out

        monkeypatch.setattr(training_module, "wasserstein2", checked_w2)
        cfg = replace(QUICK, method="ours", m_cap=50, adapt_train_batch_size=32)
        train(source, self._unequal_target(target), cfg)
        assert len(checked) > 0 and all(checked)

    def test_epoch_log_accounts_for_every_matching_step(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, method="ours", m_cap=50, adapt_train_batch_size=64)
        model = train(source, self._unequal_target(target), cfg)
        steps_per_epoch = -(-source.n // cfg.adapt_train_batch_size)
        for entry in model.history[: cfg.pretrain_epochs]:
            assert entry.coupling_solves == entry.coupling_reuses == 0
        for entry in model.history[cfg.pretrain_epochs :]:
            assert entry.coupling_solves + entry.coupling_reuses == steps_per_epoch
        assert sum(e.coupling_solves for e in model.history) >= 1

    def test_weight_statistics_match_a_hand_computation(self, small_task, monkeypatch):
        source, target = small_task
        import fairshift.training as training_module

        real_penalty = training_module.constraint_penalty
        seen = []  # (epoch-step order) F_w on the target and on the source batch

        def recording_penalty(fw_t, fw_s, c1, c2):
            seen.append((fw_t.value.copy(), fw_s.value.copy()))
            return real_penalty(fw_t, fw_s, c1, c2)

        monkeypatch.setattr(training_module, "constraint_penalty", recording_penalty)
        cfg = replace(QUICK, method="ours", adapt_train_batch_size=64)
        model = train(source, target, cfg)
        steps = -(-source.n // cfg.adapt_train_batch_size)
        assert len(seen) == cfg.adapt_epochs * steps
        for entry in model.history[: cfg.pretrain_epochs]:
            assert (entry.fw_target_mean, entry.fw_source_recip_mean) == (0.0, 0.0)
            assert (entry.fw_min, entry.fw_max) == (0.0, 0.0)
        for k, entry in enumerate(model.history[cfg.pretrain_epochs :]):
            epoch = seen[k * steps : (k + 1) * steps]
            both = np.concatenate([np.concatenate(pair) for pair in epoch])
            assert entry.fw_target_mean == pytest.approx(
                np.mean([t.mean() for t, _ in epoch]), rel=1e-12
            )
            assert entry.fw_source_recip_mean == pytest.approx(
                np.mean([(1.0 / s).mean() for _, s in epoch]), rel=1e-12
            )
            assert (entry.fw_min, entry.fw_max) == (both.min(), both.max())
            assert entry.c1_penalty == pytest.approx(
                np.mean([(t.mean() - 1.0) ** 2 for t, _ in epoch]), rel=1e-12
            )

    def test_weight_statistics_are_zero_without_a_weight_net(self, small_task):
        source, target = small_task
        cfg = replace(QUICK, method="unweighted_entropy")
        for entry in train(source, target, cfg).history:
            logged = entry.to_dict()
            assert [logged[k] for k in ("fw_target_mean", "fw_source_recip_mean")] == [0.0, 0.0]
            assert [logged[k] for k in ("fw_min", "fw_max")] == [0.0, 0.0]

    def test_clip_statistics_match_a_hand_count(self, small_task, monkeypatch):
        source, target = small_task
        norms = {"theta": [], "w": []}
        real_step = nets.AdamOptimizer.step

        def logged_step(opt, step_index):
            norm = real_step(opt, step_index)
            norms["w" if len(opt.params) == 4 else "theta"].append(norm)
            return norm

        monkeypatch.setattr(nets.AdamOptimizer, "step", logged_step)
        # a large learning rate makes both networks clip
        cfg = replace(QUICK, method="ours", learning_rate=0.05)
        model = train(source, target, cfg)
        theta_steps = [-(-source.n // cfg.batch_size)] * cfg.pretrain_epochs + [
            -(-source.n // cfg.adapt_train_batch_size)
        ] * cfg.adapt_epochs
        w_steps = [0] * cfg.pretrain_epochs + theta_steps[cfg.pretrain_epochs :]
        hits = {"theta": 0, "w": 0}
        for part, steps in (("theta", theta_steps), ("w", w_steps)):
            start = 0
            for entry, count in zip(model.history, steps):
                epoch = norms[part][start : start + count]
                start += count
                clipped = sum(n > GRAD_CLIP_NORM for n in epoch)
                assert getattr(entry, f"{part}_clip_hits") == clipped
                assert getattr(entry, f"{part}_grad_norm_max") == max(epoch, default=0.0)
                hits[part] += clipped
            assert start == len(norms[part])
        assert hits["theta"] > 0 and hits["w"] > 0

    def test_weight_and_classifier_parameters_disjoint(self, small_task):
        source, target = small_task
        model = train(source, target, replace(QUICK, method="ours", lambda1=0.5))
        classifier_ids = {id(p) for p in model.predictor.parameters}
        weight_ids = {id(p) for p in model.weight_net.parameters}
        assert classifier_ids.isdisjoint(weight_ids)

    def test_weight_step_leaves_classifier_untouched(self, small_task):
        # replicate one ascent step of the weight player: representations
        # enter as constants, so no gradient can reach the classifier
        source, target = small_task
        cfg = replace(QUICK, method="ours", adapt_epochs=1, lambda1=0.5)
        model = train(source, target, cfg)
        predictor, wnet = model.predictor, model.weight_net
        before = parameter_digest(predictor.parameters)
        # the optimizer clears what it read, so training leaves no gradient behind
        assert all(p.grad is None for p in predictor.parameters + wnet.parameters)
        rep_t = predictor.representations(target.features[:20])
        rep_s = predictor.representations(source.features[:20])
        fw_t, fw_s = wnet.forward(rep_t), wnet.forward(rep_s)
        we = weighted_entropy_term(fw_t, np.full(20, 0.3))
        ad.weighted_sum([(1.0, constraint_penalty(fw_t, fw_s)), (-0.5, we)]).backward()
        assert all(p.grad is None for p in predictor.parameters)
        assert any(p.grad is not None for p in wnet.parameters)
        assert parameter_digest(predictor.parameters) == before


class TestImportanceWeighted:
    def test_no_shift_ratio_concentrates_near_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(400, 2))
        source = LabeledDataset(
            x, rng.integers(0, 2, 400), (x[:, 0] > 0).astype(int), (CONTINUOUS,) * 2
        )
        target = UnlabeledDataset(rng.normal(size=(80, 2)), rng.integers(0, 2, 80))
        cfg = TrainConfig(
            method="kliep_iw", pretrain_epochs=10, adapt_epochs=10, m_cap=80, seed=0,
            lambda2=0.0,
        )
        model = train(source, target, cfg)
        raw = model.weight_net.ratios(source.features)
        fitted_on_target = model.weight_net.ratios(target.features) / raw.mean()
        assert 0.8 <= fitted_on_target.mean() <= 1.2

    @pytest.mark.parametrize("method", ["kliep_iw", "lsif_iw"])
    def test_the_summary_is_of_the_floored_rescaled_ratios(self, small_task, method):
        source, target = small_task
        model = train(source, target, replace(QUICK, method=method))
        raw = model.weight_net.ratios(source.features)
        rescaled = raw / raw.mean()
        summary = model.weight_summary
        assert summary == weight_summary(np.maximum(rescaled, RATIO_FLOOR), 1.0 / raw.mean())
        assert summary.floored == np.count_nonzero(rescaled <= RATIO_FLOOR)
        assert summary.n == source.n and 0.0 < summary.ess_share <= 1.0

    def test_ratio_override_shape_checked(self, small_task):
        source, target = small_task
        with pytest.raises(ValueError, match="one weight per source row"):
            train(source, target, replace(QUICK, method="lsif_iw"), ratio_override=np.ones(3))

    def test_history_length(self, small_task):
        source, target = small_task
        model = train(source, target, replace(QUICK, method="lsif_iw", lambda2=0.1))
        assert len(model.history) == QUICK.total_epochs
        assert model.config.method == "lsif_iw"


class TestZsa:
    def _shifted_pair(self, offset, seed=0, n=300, m=2000):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        source = LabeledDataset(
            x, rng.integers(0, 2, n), (x[:, 1] > 0).astype(int), (CONTINUOUS,) * 2
        )
        target = UnlabeledDataset(
            rng.normal(size=(m, 2)) + offset, rng.integers(0, 2, m)
        )
        return source, target

    def test_no_shift_matches_erm_predictions(self):
        source, target = self._shifted_pair(offset=0.0)
        cfg = TrainConfig(method="zsa", pretrain_epochs=8, adapt_epochs=0, seed=0, m_cap=2000)
        zsa = train(source, target, cfg)
        erm = train(source, None, replace(cfg, method="erm"))
        se = 1.0 / np.sqrt(target.m)
        assert np.all(np.abs(zsa.input_stats.means) < 3 * se)
        probe = np.random.default_rng(1).normal(size=(50, 2))
        np.testing.assert_allclose(
            zsa.predict_proba(probe), erm.predict_proba(probe), atol=0.05
        )

    def test_mean_shift_absorbed_into_stats(self):
        source, target = self._shifted_pair(offset=np.array([5.0, 0.0]))
        cfg = TrainConfig(method="zsa", pretrain_epochs=5, adapt_epochs=0, seed=0, m_cap=2000)
        model = train(source, target, cfg)
        assert model.input_stats.means[0] == pytest.approx(5.0, abs=0.1)
        assert model.input_stats.means[1] == pytest.approx(0.0, abs=0.1)

    def test_constant_target_feature_guard(self):
        source, target = self._shifted_pair(offset=0.0, m=60)
        frozen = target.features.copy()
        frozen[:, 0] = 2.0
        target = UnlabeledDataset(frozen, target.groups)
        cfg = TrainConfig(method="zsa", pretrain_epochs=2, adapt_epochs=0, seed=0, m_cap=60)
        model = train(source, target, cfg)
        assert model.input_stats.stds[0] == 1.0


class TestAdversarialDynamics:
    """Constraint convergence and ratio recovery on the analytic-shift task."""

    @pytest.fixture(scope="class")
    @staticmethod
    def trained_runs():
        runs = []
        for seed in range(20):
            task = GaussianShiftTask(gamma=2.0)
            kids = np.random.SeedSequence(seed).spawn(2)
            source = task.sample_source(400, kids[0])
            target = task.sample_target(400, kids[1])
            cfg = TrainConfig(method="ours", seed=seed, lambda1=1.0, lambda2=0.05)
            model = train(source, target.without_labels(), cfg)
            runs.append((task, target, cfg, model))
        return runs

    def test_constraint_penalties_trend_to_zero(self, trained_runs):
        decreased = 0
        for _, _, cfg, model in trained_runs:
            pens = [h.c1_penalty + h.c2_penalty for h in model.history[cfg.pretrain_epochs :]]
            decreased += pens[-1] < pens[0]
        assert decreased >= 18  # >= 90% of 20 seeded runs

    def test_learned_weights_rank_correlate_with_true_ratio(self, trained_runs):
        corrs = []
        for task, target, _, model in trained_runs:
            fw = model.weight_net.ratios(model.predictor.representations(target.features))
            true_ratio = task.source_over_target(target.features)
            corrs.append(spearmanr(fw, true_ratio).statistic)
        assert np.median(corrs) > 0.3


def test_trained_run_respects_mean_constraints_and_sides():
    task = GaussianShiftTask(gamma=2.0)
    kids = np.random.SeedSequence(4).spawn(2)
    source = task.sample_source(400, kids[0])
    target = task.sample_target(400, kids[1]).without_labels()
    cfg = TrainConfig(method="ours", seed=4, lambda1=1.0, lambda2=0.05, c1=5.0, c2=5.0)
    model = train(source, target, cfg)
    adaptation_set = _subsample_target(target, cfg, _streams(cfg.seed)["subsample"])
    fw_target, fw_source = (
        model.weight_net.ratios(model.predictor.representations(data.features))
        for data in (adaptation_set, source)
    )
    assert fw_target.mean() == pytest.approx(1.0, abs=0.1)
    assert (1.0 / fw_source).mean() == pytest.approx(1.0, abs=0.1)
    # adaptation points sit around or below ratio one, source above
    assert np.median(fw_target) <= 1.05 < np.median(fw_source)
    # the run's summary is of the damping exp(-F_w) on those same points
    assert model.weight_summary == weight_summary(np.exp(-fw_target))


class TestWeightSummary:
    def test_equal_weights_count_every_row(self):
        summary = weight_summary(np.full(7, 0.3))
        assert (summary.ess, summary.ess_share, summary.n) == (7.0, 1.0, 7)

    def test_one_nonzero_weight_counts_one_row(self):
        summary = weight_summary([0.0, 0.0, 2.5, 0.0])
        assert (summary.ess, summary.ess_share) == (1.0, 0.25)
        assert (summary.smallest, summary.largest) == (0.0, 2.5)

    def test_kish_formula(self):
        # (1 + 3)^2 / (1 + 9)
        assert weight_summary([1.0, 3.0]).ess == pytest.approx(1.6)

    def test_floored_count_and_rescale_are_exact(self):
        weights = np.maximum([0.0, 1e-4, RATIO_FLOOR, 2 * RATIO_FLOOR, 2.0], RATIO_FLOOR)
        summary = weight_summary(weights, rescale=0.8)
        assert (summary.floored, summary.rescale) == (3, 0.8)
        assert weight_summary(weights).rescale is None

    @pytest.mark.parametrize(
        "weights", [[], [1.0, np.nan], [1.0, np.inf], [1.0, -0.5], [0.0, 0.0], [[1.0, 2.0]]]
    )
    def test_a_weight_vector_without_mass_is_rejected(self, weights):
        with pytest.raises(ValueError, match="^weights must be a nonempty vector of finite"):
            weight_summary(weights)


def test_unweighted_entropy_is_less_stable_than_weighted(asymmetric_sweep):
    # the damped objective ignores training-typical target points; plain
    # entropy pressure on every point swings final error run to run
    methods = ("ours", "unweighted_entropy")
    # unweighted_entropy resumes from the pretraining epochs ours stored
    rows = asymmetric_sweep(methods, lambda1s=(1.0,), lambda2s=(0.1,))
    err_ours, err_unweighted = ([row["error_pct"] for row in rows[m]] for m in methods)
    assert np.std(err_unweighted) > np.std(err_ours)


class TestDispatch:
    @pytest.mark.parametrize("method", METHODS)
    def test_train_runs_the_configured_method(self, small_task, method):
        source, target = small_task
        model = train(source, target, replace(QUICK, method=method, adapt_epochs=1))
        assert model.config.method == method
        assert (model.weight_net is not None) == (method in ("ours", "kliep_iw", "lsif_iw"))
        assert (model.weight_summary is not None) == (model.weight_net is not None)
        assert (model.input_stats is not None) == (method == "zsa")

    @pytest.mark.parametrize("method", sorted(set(METHODS) - {"kliep_iw", "lsif_iw"}))
    def test_ratio_override_needs_an_importance_weighted_method(self, small_task, method):
        source, target = small_task
        with pytest.raises(ValueError, match=f"ratio_override needs .* got '{method}'"):
            train(source, target, replace(QUICK, method=method), ratio_override=np.ones(source.n))

    def test_erm_needs_no_target(self, small_task):
        source, _ = small_task
        model = train(source, None, replace(QUICK, method="erm"))
        assert model.config.method == "erm"

    def test_target_required_otherwise(self, small_task):
        source, _ = small_task
        for method in sorted(set(METHODS) - {"erm"}):
            with pytest.raises(ValueError, match=f"method '{method}' requires target"):
                train(source, None, replace(QUICK, method=method))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            TrainConfig(method="mystery")


def test_nonfinite_loss_aborts_with_diagnostic():
    with pytest.raises(RuntimeError, match="non-finite"):
        _check_finite(float("nan"), epoch=3, what="loss")


def test_a_diverging_ratio_fit_names_its_epoch(small_task):
    # numpy's default error handling; an overflow warning would fail this test
    source, target = small_task
    # without decay, which learning_rate * weight_decay < 1 would refuse first
    cfg = replace(QUICK, method="kliep_iw", learning_rate=1e300, weight_decay=0.0)
    message = "^the ratio fit diverged at epoch 0: overflow encountered in matmul$"
    with np.errstate(all="warn"), pytest.raises(RuntimeError, match=message):
        train(source, target, cfg)


FLOAT_FIELDS = [name for name, hint in typing.get_type_hints(TrainConfig).items() if hint is float]


def test_float_fields_are_known():
    assert FLOAT_FIELDS == [
        "lambda1",
        "lambda2",
        "c1",
        "c2",
        "weight_decay",
        "learning_rate",
        "weight_lr_multiplier",
        "dropout_rate",
    ]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_nonfinite_float_field_rejected(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, -1e-300])
def test_dropout_rate_outside_unit_interval_rejected(rate):
    with pytest.raises(ValueError, match=r"dropout_rate must lie in \[0, 1\)"):
        TrainConfig(dropout_rate=rate)


@pytest.mark.parametrize("rate", [0.0, 0.5, math.nextafter(1.0, 0.0)])
def test_dropout_rate_inside_unit_interval_accepted(rate):
    assert TrainConfig(dropout_rate=rate).dropout_rate == rate


def test_zero_total_epochs_rejected():
    with pytest.raises(ValueError, match=r"^pretrain_epochs \+ adapt_epochs must be >= 1"):
        TrainConfig(pretrain_epochs=0, adapt_epochs=0)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lambda1=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(c1=0.0)
    with pytest.raises(ValueError):
        TrainConfig(m_cap=0)


@pytest.mark.parametrize(
    "name,value",
    [
        ("hidden_dim", 0),
        ("hidden_dim", -2),
        ("rep_dim", 0),
        ("clf_hidden_dim", 0),
        ("weight_hidden_dim", 0),
        ("learning_rate", 0.0),
        ("learning_rate", -1.0),
        ("weight_lr_multiplier", 0.0),
        ("weight_lr_multiplier", -1.0),
        ("weight_decay", -1.0),
        ("weight_decay", -1e-300),
        ("seed", -1),
    ],
)
def test_field_outside_its_domain_rejected(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("label", [0, 1])
@pytest.mark.parametrize("method", METHODS)
def test_one_label_source_rejected(small_task, monkeypatch, method, label):
    # before any work: no stream is drawn and no density ratio is fitted
    import fairshift.training as training_module

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-label source reached the work before training")

    monkeypatch.setattr(training_module, "_streams", forbidden)
    monkeypatch.setattr(training_module, "_fit_ratio_net", forbidden)
    source, target = small_task
    one_label = LabeledDataset(
        source.features, source.groups, np.full(source.n, label), source.feature_kinds
    )
    with pytest.raises(ValueError, match=f"only label {label};"):
        train(one_label, target, replace(QUICK, method=method))


@pytest.mark.parametrize("method", METHODS)
def test_target_of_another_width_rejected(small_task, monkeypatch, method):
    # before any work, next to the one-label check
    def forbidden(*args, **kwargs):
        raise AssertionError("a too-wide target reached the work before training")

    monkeypatch.setattr(training, "_streams", forbidden)
    monkeypatch.setattr(training, "_fit_ratio_net", forbidden)
    source, target = small_task
    wide = UnlabeledDataset(np.hstack([target.features, target.features[:, :1]]), target.groups)
    with pytest.raises(ValueError, match="the target has 3 feature columns and the source 2;"):
        train(source, wide, replace(QUICK, method=method))


@pytest.mark.parametrize("method", METHODS)
def test_checkpoint_round_trip_predicts_bit_for_bit(small_task, tmp_path, method):
    source, target = small_task
    model = train(source, target, replace(QUICK, method=method, pretrain_epochs=1, adapt_epochs=1))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, model, extra={"tag": "kept"})
    loaded, extra = load_checkpoint(path)
    assert loaded.config == model.config and extra["tag"] == "kept"
    x = source.features
    assert loaded.predict_proba(x).tobytes() == model.predict_proba(x).tobytes()
    if method == "zsa":
        for key in ("means", "stds"):
            stored = [getattr(m.input_stats, key).tobytes() for m in (loaded, model)]
            assert stored[0] == stored[1]
    else:
        assert loaded.input_stats is None
    # the weight network of ours and the ratio net of the IW fits
    if method in ("ours", "kliep_iw", "lsif_iw"):
        digests = [parameter_digest(m.weight_net.parameters) for m in (loaded, model)]
        assert digests[0] == digests[1]
    else:
        assert loaded.weight_net is None


@pytest.mark.parametrize("method", METHODS)
def test_trained_models_are_immutable(small_task, method):
    # train() builds the whole model in one constructor call; nothing patches it later
    source, target = small_task
    model = train(source, target, replace(QUICK, method=method, pretrain_epochs=1, adapt_epochs=1))
    for f in fields(TrainedModel):
        with pytest.raises(FrozenInstanceError):
            setattr(model, f.name, getattr(model, f.name))


def test_checkpoint_bytes_are_pinned(tmp_path):
    # format version 1, byte for byte: key order, float text and every slot
    cfg = TrainConfig(method="zsa", seed=5, hidden_dim=3, rep_dim=2, clf_hidden_dim=2,
                      weight_hidden_dim=2)
    model = TrainedModel(
        nets.PredictorModel(cfg.net_config(2), seed=0),
        cfg,
        weight_net=nets.WeightNetwork(2, seed=1, hidden_dim=2),
        input_stats=NormalizationStats([0.5, -1.0], [2.0, 0.25]),
    )
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, model, extra={"train_data_sha256": "0" * 64})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9dbeb88f922b84b31545da02df4363a517258b103e5c65ed5df94736d0467f12"
    )


# a fresh interpreter: one tiny train() call, then 256-row dropout forwards
# of a 97-input predictor, whose masks (320 KiB) and temporaries (128 KiB)
# sit at glibc's default sliding mmap threshold
_FORWARD_FAULTS = """
import resource
import numpy as np
from fairshift.data import make_synthetic_asymmetric_labeled
from fairshift.nets import NetConfig, PredictorModel
from fairshift.training import TrainConfig, train

source, _ = make_synthetic_asymmetric_labeled(seed=1, n_per_group=30)
train(source, None, TrainConfig(method="erm", pretrain_epochs=1, adapt_epochs=0))
model = PredictorModel(NetConfig(input_dim=97), 0)
x = np.random.default_rng(0).standard_normal((256, 97))
rng = np.random.default_rng(1)
for _ in range(5):
    model.forward(x, dropout_rng=rng)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    model.forward(x, dropout_rng=rng)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


class TestAllocatorPin:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc only")
    def test_dropout_forwards_take_no_page_faults_after_train(self):
        src = os.path.dirname(os.path.dirname(fairshift.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        cmd = [sys.executable, "-c", _FORWARD_FAULTS]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        assert float(out.stdout) < 1.0

    @staticmethod
    def _record_mallopt(monkeypatch, libc):
        """Patch a fresh process's view: ``libc`` as the C library, mallopt recorded."""
        calls = []

        class FakeLibc:
            def __init__(self, name):
                self.mallopt = lambda param, value: calls.append((param, value)) or 1

        monkeypatch.setattr(training, "_set_up_pid", None)
        monkeypatch.setattr(training.platform, "libc_ver", lambda *args, **kw: (libc, "1.0"))
        monkeypatch.setattr(training.ctypes, "CDLL", FakeLibc)
        return calls

    def test_other_c_libraries_are_left_alone(self, small_task, monkeypatch):
        calls = self._record_mallopt(monkeypatch, "musl")
        train(small_task[0], None, replace(QUICK, method="erm", adapt_epochs=0))
        assert calls == []

    def test_pinned_once_per_process(self, small_task, monkeypatch):
        calls = self._record_mallopt(monkeypatch, "glibc")
        cfg = replace(QUICK, method="erm", adapt_epochs=0)
        train(small_task[0], None, cfg)
        ceiling = 4 * 1024 * 1024 * training.ctypes.sizeof(training.ctypes.c_long)
        assert calls == [(-3, ceiling), (-1, 2 * ceiling)]
        train(small_task[0], None, cfg)
        assert len(calls) == 2


@pytest.mark.skipif(training.resource is None, reason="no resource module")
def test_a_warm_erm_run_logs_almost_no_page_faults():
    # an asymmetric draw of the benchmark's size at the default schedule
    source, _ = make_synthetic_asymmetric_labeled(seed=1, n_per_group=300)
    cfg = TrainConfig(method="erm", seed=1)
    train(source, None, cfg)
    history = train(source, None, cfg).history
    assert len(history) == 50
    assert all(isinstance(entry.minor_faults, int) for entry in history)
    assert sum(entry.minor_faults for entry in history) < 100
