import copy
import math
import warnings

import numpy as np
import pytest

import reference_tape as ref
from fairshift import autodiff as ad
from fairshift.nets import (
    PROB_CLAMP,
    AdamOptimizer,
    NetConfig,
    PredictorModel,
    WeightNetwork,
    cosine_lr,
    parameter_digest,
)
from fairshift.training import TrainConfig, TrainedModel, load_checkpoint, save_checkpoint

CFG = NetConfig(input_dim=6, hidden_dim=16, rep_dim=8, clf_hidden_dim=8)


def test_forward_shapes_and_clamp():
    model = PredictorModel(CFG, seed=0)
    rng = np.random.default_rng(1)
    rep, probs = model.forward(rng.normal(size=(10, 6)))
    assert rep.value.shape == (10, 8)
    assert probs.value.shape == (10,)
    assert np.all(probs.value >= PROB_CLAMP)
    assert np.all(probs.value <= 1.0 - PROB_CLAMP)


def test_zero_final_layer_gives_half_probability():
    model = PredictorModel(CFG, seed=0)
    model.w4.value = np.zeros_like(model.w4.value)
    model.b4.value = np.zeros_like(model.b4.value)
    probs = model.predict_proba(np.random.default_rng(2).normal(size=(7, 6)))
    np.testing.assert_array_equal(probs, np.full(7, 0.5))


def test_inference_is_deterministic_for_duplicated_rows():
    model = PredictorModel(CFG, seed=3)
    row = np.random.default_rng(4).normal(size=6)
    probs = model.predict_proba(np.tile(row, (5, 1)))
    assert np.all(probs == probs[0])


def test_dropout_changes_training_forward_but_not_inference():
    model = PredictorModel(CFG, seed=5)
    x = np.random.default_rng(6).normal(size=(4, 6))
    _, p_train = model.forward(x, dropout_rng=np.random.default_rng(7))
    _, p_eval = model.forward(x)
    _, p_eval2 = model.forward(x)
    assert not np.array_equal(p_train.value, p_eval.value)
    np.testing.assert_array_equal(p_eval.value, p_eval2.value)


def test_width_mismatch_raises():
    model = PredictorModel(CFG, seed=0)
    with pytest.raises(ValueError, match="width"):
        model.forward(np.zeros((3, 5)))
    with pytest.raises(ValueError, match="width"):
        model.representations(np.zeros((3, 5)))


def test_representations_are_the_inference_forward_encoder_output():
    model = PredictorModel(CFG, seed=8)
    x = np.random.default_rng(9).normal(size=(11, 6))
    np.testing.assert_array_equal(model.representations(x), model.forward(x)[0].value)


def test_one_dropout_draw_equals_three_per_layer_draws():
    # the forward pass as it was with one rng draw per dropout mask
    model = PredictorModel(CFG, seed=12)
    x = np.random.default_rng(13).normal(size=(9, 6))
    rng = np.random.default_rng(14)
    masks = [
        (rng.random((9, width)) >= CFG.dropout_rate) / (1.0 - CFG.dropout_rate)
        for width in (CFG.hidden_dim, CFG.rep_dim, CFG.clf_hidden_dim)
    ]
    h1 = ad.dense(x, model.w1, model.b1, relu=True)
    rep = ad.dense(h1, model.w2, model.b2, relu=True, mask=masks[0])
    h3 = ad.dense(rep, model.w3, model.b3, relu=True, mask=masks[1])
    logits = ref.sum(ad.dense(h3, model.w4, model.b4, mask=masks[2]), axis=1)
    probs = ad.clamped_sigmoid(logits, PROB_CLAMP, 1.0 - PROB_CLAMP)
    fused_rng = np.random.default_rng(14)
    rep_f, probs_f = model.forward(x, dropout_rng=fused_rng)
    np.testing.assert_array_equal(rep_f.value, rep.value)
    np.testing.assert_array_equal(probs_f.value, probs.value)
    assert fused_rng.random() == rng.random()  # the streams stay in step


def test_same_seed_same_model():
    a = PredictorModel(CFG, seed=11)
    b = PredictorModel(CFG, seed=11)
    assert parameter_digest(a.parameters) == parameter_digest(b.parameters)
    x = np.random.default_rng(0).normal(size=(3, 6))
    np.testing.assert_array_equal(a.predict_proba(x), b.predict_proba(x))


class TestWeightNetwork:
    def test_positive_on_wide_input_range(self):
        net = WeightNetwork(8, seed=0)
        rng = np.random.default_rng(1)
        values = net.ratios(rng.normal(scale=10.0, size=(100_000, 8)))
        assert np.all(values > 0)
        assert np.all(np.isfinite(values))

    def test_output_bounded_by_preactivation_clamp(self):
        net = WeightNetwork(4, seed=2)
        net.w2.value = net.w2.value + 100.0
        values = net.ratios(np.random.default_rng(3).normal(size=(50, 4)))
        assert values.max() <= math.exp(10.0)
        assert values.min() >= math.exp(-10.0)

    def test_input_width_checked(self):
        with pytest.raises(ValueError, match="width"):
            WeightNetwork(4, seed=0).forward(np.zeros((2, 3)))


class TestCosineSchedule:
    def test_starts_at_base_and_ends_at_zero(self):
        assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(100, 100, 1e-3) == 0.0
        assert cosine_lr(150, 100, 1e-3) == 0.0

    def test_nonincreasing(self):
        lrs = [cosine_lr(t, 50, 1e-3) for t in range(51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestAdam:
    def _params(self):
        return [PredictorModel(CFG, seed=0).w1]

    def test_zero_gradient_is_fixed_point(self):
        params = self._params()
        before = params[0].value.copy()
        opt = AdamOptimizer(params, total_steps=10, weight_decay=0.0)
        params[0].grad = np.zeros_like(before)
        opt.step(0)
        np.testing.assert_array_equal(params[0].value, before)

    def test_gradient_norm_clipped_to_five(self):
        params = self._params()
        opt = AdamOptimizer(params, total_steps=10)
        g = np.full_like(params[0].value, 1.0)
        g *= 50.0 / np.linalg.norm(g)
        params[0].grad = g.copy()
        opt.step(0)
        clipped = g * (5.0 / 50.0)
        np.testing.assert_allclose(opt.m.reshape(g.shape), 0.1 * clipped)

    def test_step_at_schedule_end_changes_nothing(self):
        params = self._params()
        before = params[0].value.copy()
        opt = AdamOptimizer(params, total_steps=10, weight_decay=1e-2)
        params[0].grad = np.ones_like(before)
        opt.step(10)
        np.testing.assert_array_equal(params[0].value, before)

    def test_nonfinite_gradient_rejected(self):
        params = self._params()
        opt = AdamOptimizer(params, total_steps=10)
        g = np.zeros_like(params[0].value)
        g[0, 0] = np.nan
        params[0].grad = g
        with pytest.raises(FloatingPointError, match="non-finite"):
            opt.step(0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_rejected(self, bad):
        params = self._params()
        opt = AdamOptimizer(params, total_steps=10)
        g = np.zeros_like(params[0].value)
        g[1, 2] = bad
        params[0].grad = g
        with pytest.raises(FloatingPointError, match="non-finite"):
            opt.step(0)

    def test_gradient_whose_squares_overflow_rejected(self):
        # finite entries, infinite norm: clipping by it would zero the step
        params = self._params()
        before = params[0].value.copy()
        opt = AdamOptimizer(params, total_steps=10)
        params[0].grad = np.full_like(before, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite"):
                opt.step(0)
        np.testing.assert_array_equal(params[0].value, before)

    def test_step_returns_the_pre_clip_norm(self):
        params = self._params()
        opt = AdamOptimizer(params, total_steps=10)
        params[0].grad = np.full_like(params[0].value, 2.0)
        assert opt.step(0) == pytest.approx(2.0 * math.sqrt(params[0].value.size))

    def test_flat_update_matches_per_parameter_adam_bit_for_bit(self):
        model = PredictorModel(CFG, seed=4)
        params = model.parameters
        ref = [p.value.copy() for p in params]
        ref_m = [np.zeros_like(v) for v in ref]
        ref_v = [np.zeros_like(v) for v in ref]
        opt = AdamOptimizer(params, total_steps=6, weight_decay=1e-2)
        rng = np.random.default_rng(5)
        for step in range(6):
            grads = [rng.normal(scale=3.0, size=v.shape) for v in ref]
            for i, p in enumerate(params):
                # one parameter without a gradient, and one replaced between steps
                p.grad = None if (i == 3 and step == 2) else grads[i].copy()
            if step == 2:
                grads[3] = np.zeros_like(ref[3])
            if step == 4:
                params[1].value = ref[1] = ref[1] + 1.0
            opt.step(step)
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
            if norm > 5.0:
                grads = [g * (5.0 / norm) for g in grads]
            lr = cosine_lr(step, 6, 1e-3)
            bc1, bc2 = 1.0 - 0.9 ** (step + 1), 1.0 - 0.999 ** (step + 1)
            for i, g in enumerate(grads):
                ref_m[i] = 0.9 * ref_m[i] + (1.0 - 0.9) * g
                ref_v[i] = 0.999 * ref_v[i] + (1.0 - 0.999) * g * g
                update = (ref_m[i] / bc1) / (np.sqrt(ref_v[i] / bc2) + 1e-8)
                ref[i] = ref[i] - lr * update - lr * 1e-2 * ref[i]
            for p, r in zip(params, ref):
                np.testing.assert_array_equal(p.value, r)
                assert p.grad is None

    def test_values_bound_by_a_step_are_never_written_later(self):
        model = PredictorModel(CFG, seed=6)
        opt = AdamOptimizer(model.parameters, total_steps=5, weight_decay=1e-2)
        rng = np.random.default_rng(7)
        held = []
        for step in range(4):
            held.append([(p.value, p.value.copy()) for p in model.parameters])
            if step == 2:  # an in-place edit of a bound value is honoured
                model.w1.value += 1.0
                expected_w1 = model.w1.value.copy()
            for p in model.parameters:
                p.grad = rng.normal(size=p.value.shape)
            opt.step(step)
        for values in held[:2] + held[3:]:
            for value, copy in values:
                np.testing.assert_array_equal(value, copy)
        assert not np.array_equal(model.w1.value, expected_w1)
        assert np.abs(model.w1.value - expected_w1).max() < 0.1

    def test_a_deep_copy_steps_bit_for_bit_like_the_original(self):
        model = PredictorModel(CFG, seed=8)
        opt = AdamOptimizer(model.parameters, total_steps=8, weight_decay=1e-2)
        rng = np.random.default_rng(9)

        def step(params, opt, grads, index):
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step(index)

        for index in range(2):
            grads = [rng.normal(size=p.value.shape) for p in model.parameters]
            step(model.parameters, opt, grads, index)
        twin, twin_opt = copy.deepcopy((model, opt))
        assert twin_opt.params == twin.parameters
        for index in range(2, 7):
            if index in (2, 4):  # an in-place edit of a value is honoured, copied or not
                for params in (model.parameters, twin.parameters):
                    params[0].value += 1.0
            grads = [rng.normal(size=p.value.shape) for p in model.parameters]
            step(model.parameters, opt, grads, index)
            step(twin.parameters, twin_opt, grads, index)
            for p, q in zip(model.parameters, twin.parameters):
                assert not np.shares_memory(p.value, q.value)
            assert parameter_digest(twin.parameters) == parameter_digest(model.parameters)
        np.testing.assert_array_equal(twin_opt.m, opt.m)
        np.testing.assert_array_equal(twin_opt.v, opt.v)

    def test_weight_decay_shrinks_parameters(self):
        params = self._params()
        before = params[0].value.copy()
        opt = AdamOptimizer(params, total_steps=10, weight_decay=0.1)
        params[0].grad = np.zeros_like(before)
        opt.step(0)
        np.testing.assert_allclose(params[0].value, before * (1.0 - 1e-3 * 0.1))


def test_checkpoint_round_trip_is_exact(tmp_path):
    model = PredictorModel(CFG, seed=9)
    wnet = WeightNetwork(CFG.rep_dim, seed=10)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, TrainedModel(model, TrainConfig(), weight_net=wnet), extra={"tag": 1})
    loaded, extra = load_checkpoint(path)
    assert extra["method"] == "ours" and extra["tag"] == 1
    assert parameter_digest(loaded.predictor.parameters) == parameter_digest(model.parameters)
    assert parameter_digest(loaded.weight_net.parameters) == parameter_digest(wnet.parameters)
    x = np.random.default_rng(0).normal(size=(4, 6))
    np.testing.assert_array_equal(loaded.predict_proba(x), model.predict_proba(x))


def test_checkpoint_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)
