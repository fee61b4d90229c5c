"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the workload seed, so one seed
always yields the same inputs.  The program under test receives only
what these functions produce: run seeds, a CSV pool and a config file.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import ndtri

ASYM_RUNS = 4  # runs per iteration on the *_asym workloads
ASYM_N_PER_GROUP = 300
# the unlabeled target handed to the trainers: m_cap (50) test points with
# unequal group clouds, so every matching step takes the transport LP path
# (equal clouds would take the assignment path instead)
ASYM_TARGET_GROUPS = (26, 24)

# adult-shaped pool: 2213 rows x 97 features (6 continuous, 91 binary)
POOL_ROWS = 2213
POOL_CONTINUOUS = 6
POOL_BINARY = 91
POOL_RANK = 6
POPULATION_SEED = 20231011
SWEEP_METHODS = ("ours", "erm", "kliep_iw", "zsa")


def run_seeds(seed: int, count: int = ASYM_RUNS) -> list:
    """Distinct per-run seeds for the asymmetric-task draws and trainers."""
    rng = np.random.default_rng([seed, 0xA5])
    return [int(s) for s in rng.choice(2**31 - 1, size=count, replace=False)]


def target_index(groups, seed: int):
    """Sorted test-row indices of the target sample: ASYM_TARGET_GROUPS rows per group."""
    rng = np.random.default_rng([seed, 0x7A])
    picks = [
        rng.choice(np.flatnonzero(np.asarray(groups) == g), size=count, replace=False)
        for g, count in enumerate(ASYM_TARGET_GROUPS)
    ]
    return np.sort(np.concatenate(picks))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _population():
    """Fixed pool population: factor loadings, column prevalences, label rule.

    Only the rows are drawn from the workload seed, so every seed samples
    the same task and its difficulty does not change from seed to seed.
    """
    rng = np.random.default_rng(POPULATION_SEED)
    load_c = rng.normal(0.0, 0.6, (POOL_RANK, POOL_CONTINUOUS))
    load_b = rng.normal(0.0, 0.8, (POOL_RANK, POOL_BINARY))
    prevalence = rng.uniform(0.03, 0.5, POOL_BINARY)
    # latent binary scores are N(0, |load|^2 + 1): threshold at the prevalence
    thresholds = np.sqrt((load_b**2).sum(axis=0) + 1.0) * ndtri(1.0 - prevalence)
    d = POOL_CONTINUOUS + POOL_BINARY
    beta = rng.normal(0.0, 1.0, d) * (rng.random(d) < 0.3)
    beta[:POOL_CONTINUOUS] = rng.normal(0.0, 1.0, POOL_CONTINUOUS)
    return load_c, load_b, thresholds, beta


def adult_like_pool(seed: int, rows: int = POOL_ROWS):
    """Return ``(header, matrix)`` for a tabular pool shaped like adult.

    A low-rank latent factor drives both the continuous columns and the
    binary ones (thresholded at per-column prevalences), so the binary
    columns are correlated the way one-hot census fields are.  The group
    attribute leans on the first factor and the label is logistic in the
    features with a group-dependent intercept.
    """
    load_c, load_b, thresholds, beta = _population()
    rng = np.random.default_rng([seed, 0xAD])
    z = rng.standard_normal((rows, POOL_RANK))
    group = (0.8 * z[:, 0] + rng.standard_normal(rows) > -0.45).astype(np.int64)

    cont = z @ load_c + rng.standard_normal((rows, POOL_CONTINUOUS))
    cont[:, 0] = np.clip(np.round(38.0 + 13.0 * cont[:, 0]), 17, 90)  # age-like
    cont[:, 1] = np.round(np.exp(12.0 + 0.5 * cont[:, 1]))  # weight-like
    cont[:, 2] = np.clip(np.round(10.0 + 2.5 * cont[:, 2]), 1, 16)  # years-like
    cont[:, 3] = np.where(cont[:, 3] > 1.6, np.round(np.exp(7.0 + cont[:, 3])), 0.0)
    cont[:, 4] = np.where(cont[:, 4] > 2.0, np.round(np.exp(6.0 + cont[:, 4])), 0.0)
    cont[:, 5] = np.clip(np.round(40.0 + 12.0 * cont[:, 5]), 1, 99)  # hours-like

    latent = z @ load_b + rng.standard_normal((rows, POOL_BINARY))
    binary = (latent > thresholds).astype(np.float64)

    features = np.hstack([cont, binary])
    scaled = (features - features.mean(axis=0)) / features.std(axis=0)
    logits = 0.5 * scaled @ beta - 2.0 + 0.9 * group
    label = (rng.random(rows) < _sigmoid(logits)).astype(np.int64)

    header = [f"c{j}" for j in range(POOL_CONTINUOUS)]
    header += [f"b{j}" for j in range(POOL_BINARY)] + ["group", "label"]
    matrix = np.column_stack([features, group, label])
    return header, matrix


def write_pool_csv(path, seed: int, rows: int = POOL_ROWS) -> None:
    header, matrix = adult_like_pool(seed, rows)
    n_cont = POOL_CONTINUOUS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in matrix:
            cells = [repr(float(v)) for v in row[:n_cont]]
            cells += [str(int(v)) for v in row[n_cont:]]
            writer.writerow(cells)


def experiment_config_text(seed: int, methods=SWEEP_METHODS) -> str:
    """Sweep config: one repetition of each method at gamma 10, m 50."""
    base_seed = int(np.random.default_rng([seed, 0xC0]).integers(0, 2**20))
    return "\n".join(
        [
            "# generated by perfbench/inputs.py",
            f"methods = {', '.join(methods)}" + ("," if len(methods) == 1 else ""),
            "gammas = 10",
            "ms = 50",
            "repetitions = 1",
            f"base_seed = {base_seed}",
            "",
        ]
    )
