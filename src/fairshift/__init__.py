"""Fair classification under covariate shift.

Trains a classifier on labeled source data plus a small unlabeled target
sample by combining the source risk, a ratio-damped prediction-entropy
term on the target (with the damping weights learned by an adversarial
network under mean-one constraints), and a Wasserstein-2 matching loss
between the group-conditional representation clouds.  Ships the shift
construction used to benchmark such methods, importance-weighting and
normalization-adaptation baselines, fairness metrics, and a seeded
experiment harness.
"""

from .data import (
    GaussianShiftTask,
    LabeledDataset,
    NormalizationStats,
    UnlabeledDataset,
    apply_zscore,
    fit_zscore,
    load_csv,
    load_unlabeled_csv,
    make_synthetic_asymmetric_labeled,
    write_csv,
)
from .experiment import (
    ExperimentSpec,
    VarianceStudySpec,
    pareto_frontier,
    run_experiment,
    run_variance_study,
)
from .losses import (
    CouplingPlan,
    LossBreakdown,
    conditional_entropy,
    constraint_penalty,
    cross_entropy_risk,
    kliep_loss,
    lsif_loss,
    risk_bound_gap,
    solve_coupling,
    wasserstein2,
    weighted_entropy_term,
)
from .metrics import RunMetrics, evaluate_model, evaluate_predictions
from .nets import (
    AdamOptimizer,
    NetConfig,
    PredictorModel,
    WeightNetwork,
)
from .splitter import ShiftConfig, SplitResult, first_principal_projection, split, tilt_densities
from .training import (
    PretrainCache,
    TrainConfig,
    TrainedModel,
    WeightSummary,
    load_checkpoint,
    save_checkpoint,
    train,
    weight_summary,
)

__version__ = "0.1.0"
