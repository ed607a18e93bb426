"""Risk-ratio estimation from binary outcomes.

The generator reuses the jagged baseline as a success probability (so
the true arm probabilities move with x) while the treatment shifts
nothing: the true risk ratio is exactly 1 everywhere.  The corrected
learner regresses the delta-method risk-ratio signal; its predictions
should hover around 1 across the covariate range.
"""

import dataclasses

import numpy as np

from pseudolearn.crossfit import CrossfitConfig
from pseudolearn.iflearner import IFLearnerConfig, fit_if_learner
from pseudolearn.learners import LearnerSpec
from pseudolearn.pseudo import PseudoOutcomeSpec
from pseudolearn.simulate import Dgp1dConfig, evaluate_mse, sample_1d

kernel = LearnerSpec(kind="kernel")
cfg = IFLearnerConfig(
    crossfit=CrossfitConfig(outcome_spec=kernel, propensity_spec=kernel, n_folds=5),
    # binary mode: arm models are clipped into [p_clip, 1-p_clip]
    pseudo=PseudoOutcomeSpec(target="risk_ratio", binary_outcome=True),
    second_stage=kernel,
    seed=6,
)

train = sample_1d(Dgp1dConfig(propensity="constant_half", binary_outcome=True,
                              n=4000, seed=21))
test = sample_1d(Dgp1dConfig(propensity="constant_half", binary_outcome=True,
                             n=1000, seed=22))

model = fit_if_learner(train.dataset, cfg, known_propensity=train.nominal_pi)

print("binary outcomes, true risk ratio = 1 everywhere, n=4000\n")
grid = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
for x, r in zip(grid[:, 0], model.predict(grid)):
    print(f"  x={x:+.1f}   estimated risk ratio {r:.3f}")

print(f"\ntest MSE against the flat truth: {evaluate_mse(model, test):.4f}")

small = dataclasses.replace(cfg, seed=7)
train_small = sample_1d(Dgp1dConfig(propensity="constant_half",
                                    binary_outcome=True, n=500, seed=23))
model_small = fit_if_learner(train_small.dataset, small,
                             known_propensity=train_small.nominal_pi)
print(f"same pipeline at n=500:         {evaluate_mse(model_small, test):.4f}")
print("\nratio targets need more data than differences: the signal divides")
print("by the estimated control probability, which inflates its variance.")
