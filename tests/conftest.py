import math
from dataclasses import replace

import pytest

from fairshift import experiment
from fairshift.experiment import ExperimentSpec, run_experiment
from fairshift.training import SHARES_PRETRAINING, train


@pytest.fixture
def asymmetric_sweep(monkeypatch):
    """``sweep(methods, **grid)``: each method's rows of seeds 0-19, run at workers=2.

    Gamma ``5 * sqrt(2)`` shifts group 1 by the task's default ``(5.0, -5.0)``.
    When the second method resumes the first's pretraining, its rows must say
    so, and seed 0's resumed run, repeated in-process, must equal bit for bit
    its config trained alone on the provider's draw.
    """

    def sweep(methods, **grid):
        spec = ExperimentSpec("synthetic:asymmetric", methods, gammas=(5 * math.sqrt(2),),
                              repetitions=20, base_seed=0, n_per_group=300, **grid)
        rows, _ = run_experiment(spec, workers=2)
        assert [row["status"] for row in rows] == ["ok"] * len(rows)
        rows = {m: [row for row in rows if row["method"] == m] for m in methods}
        if set(methods) <= set(SHARES_PRETRAINING):
            epochs = spec.train.pretrain_epochs
            assert [row["resumed_epochs"] for row in rows[methods[1]]] == [epochs] * 20
            trained = []

            def recording(*args):
                trained.append(train(*args))
                return trained[-1]

            with monkeypatch.context() as patch:
                patch.setattr(experiment, "train", recording)
                run_experiment(replace(spec, repetitions=1))
            resumed = trained[1]
            source, target, _ = experiment._DataProvider(spec).make(spec.gammas[0], 0)
            assert resumed.resumed_epochs == epochs
            assert resumed.param_digests == train(source, target, resumed.config).param_digests
        return rows

    return sweep
