import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairshift.config import (
    experiment_spec_from_dict,
    parse_kv_file,
    parse_kv_text,
    shift_config_from_dict,
    train_config_from_dict,
)
from fairshift.splitter import ShiftConfig
from fairshift.training import METHODS, TrainConfig


class TestParseKvText:
    def test_scalars_and_comments(self):
        values = parse_kv_text(
            """
            # a comment
            method = ours
            lambda1 = 0.5   # trailing comment
            seed = 7
            pretrain_epochs = 15
            """
        )
        assert values == {
            "method": "ours",
            "lambda1": 0.5,
            "seed": 7,
            "pretrain_epochs": 15,
        }

    def test_lists_from_commas(self):
        values = parse_kv_text("gammas = 0, 5, 10\nmethods = ours, erm\n")
        assert values["gammas"] == (0, 5, 10)
        assert values["methods"] == ("ours", "erm")

    def test_booleans_and_none(self):
        values = parse_kv_text("flag = true\nnothing = none\n")
        assert values["flag"] is True
        assert values["nothing"] is None

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_kv_text("just words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError, match="empty key"):
            parse_kv_text("= 3\n")


def test_parse_kv_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("method = erm\nseed = 3\n")
    assert parse_kv_file(path) == {"method": "erm", "seed": 3}


class TestBuilders:
    def test_train_config_with_overrides(self):
        cfg = train_config_from_dict({"lambda1": 0.2, "seed": 1}, seed=9, method="zsa")
        assert cfg.lambda1 == 0.2
        assert cfg.seed == 9
        assert cfg.method == "zsa"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown TrainConfig keys"):
            train_config_from_dict({"learning_rt": 0.1})

    def test_shift_config(self):
        cfg = shift_config_from_dict({"gamma": 5.0, "percentile": 70})
        assert cfg.gamma == 5.0
        assert cfg.percentile == 70

    def test_experiment_spec_nested_prefixes(self):
        spec = experiment_spec_from_dict(
            {
                "dataset": "synthetic:asymmetric",
                "methods": ("ours", "erm"),
                "gammas": 5.0,
                "repetitions": 3,
                "train.pretrain_epochs": 2,
                "train.adapt_epochs": 1,
                "shift.percentile": 70.0,
            }
        )
        assert spec.gammas == (5.0,)
        assert spec.methods == ("ours", "erm")
        assert spec.train.pretrain_epochs == 2
        assert spec.shift.percentile == 70.0

    def test_none_overrides_are_ignored(self):
        spec = experiment_spec_from_dict(
            {"dataset": "synthetic:asymmetric"}, repetitions=None, base_seed=4
        )
        assert spec.repetitions == 50
        assert spec.base_seed == 4


# -- round trips: a checkpoint stores dataclasses.asdict(cfg) as JSON, and
# the evaluate command rebuilds the config from it -------------------------

COUNTS = st.integers(0, 10**6)
SIZES = st.integers(1, 10**6)
NONNEGATIVE = st.floats(0.0, 1e6)
POSITIVE = st.floats(1e-9, 1e6)
UNIT_OPEN = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

# every value TrainConfig accepts: each field in its domain, and at least one epoch
TRAIN_CONFIGS = st.builds(
    dict,
    pretrain_epochs=COUNTS,
    adapt_epochs=COUNTS,
    batch_size=SIZES,
    adapt_train_batch_size=SIZES,
    lambda1=NONNEGATIVE,
    lambda2=NONNEGATIVE,
    c1=POSITIVE,
    c2=POSITIVE,
    seed=st.integers(0, 2**63 - 1),
    weight_decay=NONNEGATIVE,
    learning_rate=POSITIVE,
    weight_lr_multiplier=POSITIVE,
    m_cap=SIZES,
    method=st.sampled_from(METHODS),
    hidden_dim=SIZES,
    rep_dim=SIZES,
    clf_hidden_dim=SIZES,
    weight_hidden_dim=SIZES,
    dropout_rate=st.floats(0.0, 1.0, exclude_max=True),
).filter(lambda v: v["pretrain_epochs"] + v["adapt_epochs"] > 0).map(lambda v: TrainConfig(**v))
SHIFT_CONFIGS = st.builds(
    ShiftConfig,
    gamma=NONNEGATIVE,
    percentile=st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
    test_fraction=UNIT_OPEN,
    val_fraction_of_train=UNIT_OPEN,
    asymmetric_group=st.sampled_from([None, 0, 1]),
    seed=st.integers(0, 2**63 - 1),
)


@given(TRAIN_CONFIGS)
def test_train_config_round_trips_through_a_checkpoint(cfg):
    values = dataclasses.asdict(cfg)
    assert train_config_from_dict(values) == cfg
    assert train_config_from_dict(json.loads(json.dumps(values))) == cfg


@given(SHIFT_CONFIGS)
def test_shift_config_round_trips_through_a_dict(cfg):
    values = dataclasses.asdict(cfg)
    assert shift_config_from_dict(values) == cfg
    assert shift_config_from_dict(json.loads(json.dumps(values))) == cfg
