"""The survival toolbox on a small worked cohort.

Discrete hazards and the likelihood, concordance, Kaplan-Meier curves, the
log-rank test, fixed-horizon AUC, and median-risk stratification.
"""

import numpy as np

from mgct import numkit as nk
from mgct import survival as sv

# --- discrete-time loss -------------------------------------------------------
hazards = nk.Tensor(np.array([[0.1], [0.2], [0.3], [0.4]]))
for event, b in ((1, 2), (0, 2)):
    label = sv.SurvivalLabel(t=14.0, event=event, bin=b)
    kind = "death" if event else "censored"
    print(f"{kind} in bin {b}: nll = {sv.nll_loss(hazards, [label]).item():.4f}")

pred = sv.SurvivalPrediction.from_hazards([0.1, 0.2, 0.3, 0.4])
print(f"survival curve {np.round(pred.survival, 3)}  risk {pred.risk:.3f}")

# --- a twelve-patient cohort with two clear risk groups -----------------------
rng = np.random.default_rng(4)
high_risk = [sv.SurvivalLabel(float(t), 1) for t in rng.integers(2, 14, size=6)]
low_risk = [sv.SurvivalLabel(float(t), e) for t, e in zip(rng.integers(30, 80, size=6), [1, 1, 0, 1, 0, 1])]
cohort = high_risk + low_risk
risks = list(rng.normal(1.5, 0.2, 6)) + list(rng.normal(-1.5, 0.2, 6))

print(f"\nc-index: {sv.concordance_index(risks, cohort):.3f}")
print(f"auc at 24 months: {sv.binary_auc(risks, cohort, horizon=24.0):.3f}")

low_idx, high_idx = sv.stratify(risks, cohort)
low_group = [cohort[i] for i in low_idx]
high_group = [cohort[i] for i in high_idx]
print(f"stratified {len(low_group)} low / {len(high_group)} high")

for name, group in (("low", low_group), ("high", high_group)):
    steps = sv.kaplan_meier(group)
    path = "  ".join(f"t={t:g}:{s:.2f}" for t, s in steps[:5])
    print(f"KM {name:>4}: {path}{' ...' if len(steps) > 5 else ''}")

res = sv.logrank_test(low_group, high_group)
print(f"log-rank: statistic {res.statistic:.3f}, p = {res.p_value:.2e}")
