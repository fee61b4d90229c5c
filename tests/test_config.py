import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairshift.config import (
    config_from_dict,
    experiment_spec_from_dict,
    parse_kv_file,
    parse_kv_text,
)
from fairshift.experiment import ExperimentSpec, VarianceStudySpec
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
        cfg = config_from_dict(TrainConfig, {"lambda1": 0.2, "seed": 1}, seed=9, method="zsa")
        assert cfg.lambda1 == 0.2
        assert cfg.seed == 9
        assert cfg.method == "zsa"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown TrainConfig keys"):
            config_from_dict(TrainConfig, {"learning_rt": 0.1})

    def test_shift_config(self):
        cfg = config_from_dict(ShiftConfig, {"gamma": 5.0, "percentile": 70})
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

    def test_scalar_grids_become_one_entry_tuples(self):
        spec = config_from_dict(VarianceStudySpec, {"gammas": 2.0, "ms": 10}, n=100)
        assert (spec.gammas, spec.ms, spec.n) == ((2.0,), (10,), 100)

    @pytest.mark.parametrize(
        "cls,values,cause",
        [
            (ExperimentSpec, {"train.lr": 0.1}, r"unknown TrainConfig keys: \['lr'\]"),
            (ExperimentSpec, {"shift.gama": 1.0}, r"unknown ShiftConfig keys: \['gama'\]"),
            (ExperimentSpec, {"dataset": "x", "train": 5}, "train must be TrainConfig, got 5"),
            # only a field annotated with a config class takes dotted keys
            (TrainConfig, {"train.seed": 1}, r"unknown TrainConfig keys: \['train.seed'\]"),
            (ExperimentSpec, {"dataset.x": 1}, r"unknown ExperimentSpec keys: \['dataset.x'\]"),
            (ExperimentSpec, {"methods": "erm"}, r"missing ExperimentSpec keys: \['dataset'\]"),
        ],
    )
    def test_a_bad_key_names_itself(self, cls, values, cause):
        with pytest.raises(ValueError, match=cause):
            config_from_dict(cls, values)


# -- round trips: a checkpoint stores dataclasses.asdict(cfg) as JSON, and
# the evaluate command rebuilds the config from it -------------------------

COUNTS = st.integers(0, 10**6)
SIZES = st.integers(1, 10**6)
NONNEGATIVE = st.floats(0.0, 1e6)
POSITIVE = st.floats(1e-9, 1e6)
UNIT_OPEN = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

# every value TrainConfig accepts: each field in its domain, at least one epoch,
# and learning_rate * weight_decay below 1
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
).filter(
    lambda v: v["pretrain_epochs"] + v["adapt_epochs"] > 0
    and v["learning_rate"] * v["weight_decay"] < 1
).map(lambda v: TrainConfig(**v))
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
    assert config_from_dict(TrainConfig, values) == cfg
    assert config_from_dict(TrainConfig, json.loads(json.dumps(values))) == cfg


@given(SHIFT_CONFIGS)
def test_shift_config_round_trips_through_a_dict(cfg):
    values = dataclasses.asdict(cfg)
    assert config_from_dict(ShiftConfig, values) == cfg
    assert config_from_dict(ShiftConfig, json.loads(json.dumps(values))) == cfg


def _kv_text(values, prefix=""):
    """Key-value text that ``parse_kv_text`` reads back as ``values`` (from
    ``dataclasses.asdict``): nested configs as prefixed keys, a one-entry
    tuple as a scalar."""
    lines = []
    for key, value in values.items():
        if isinstance(value, dict):
            lines.append(_kv_text(value, f"{prefix}{key}."))
        elif isinstance(value, tuple):
            lines.append(f"{prefix}{key} = {', '.join(map(str, value))}")
        else:
            lines.append(f"{prefix}{key} = {value}")
    return "\n".join(lines)


def _grid(entries):
    return st.lists(entries, min_size=1, max_size=3).map(tuple)


EXPERIMENT_SPECS = st.builds(
    ExperimentSpec,
    dataset=st.sampled_from(["synthetic:asymmetric", "synthetic:gaussian", "data/adult.csv"]),
    methods=_grid(st.sampled_from(METHODS)),
    gammas=_grid(NONNEGATIVE | COUNTS),
    lambda1s=_grid(NONNEGATIVE),
    lambda2s=_grid(NONNEGATIVE),
    ms=_grid(SIZES),
    repetitions=SIZES,
    base_seed=st.integers(0, 2**63 - 1),
    n_per_group=st.integers(10, 10**6),
    train=TRAIN_CONFIGS,
    shift=SHIFT_CONFIGS,
)
VARIANCE_STUDY_SPECS = st.builds(
    VarianceStudySpec,
    gammas=_grid(NONNEGATIVE),
    ms=_grid(SIZES),
    repetitions=SIZES,
    n=SIZES,
    base_seed=st.integers(0, 2**63 - 1),
)


@given(EXPERIMENT_SPECS)
def test_experiment_spec_round_trips_through_key_value_text(spec):
    text = _kv_text(dataclasses.asdict(spec))
    assert config_from_dict(ExperimentSpec, parse_kv_text(text)) == spec
    assert experiment_spec_from_dict(parse_kv_text(text)) == spec


@given(VARIANCE_STUDY_SPECS)
def test_variance_study_spec_round_trips_through_key_value_text(spec):
    text = _kv_text(dataclasses.asdict(spec))
    assert config_from_dict(VarianceStudySpec, parse_kv_text(text)) == spec
