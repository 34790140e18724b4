"""Discrete-time survival loss and evaluation metrics.

Hazards are per-bin conditional death probabilities h(b) in (0, 1); the
survival curve is the cumulative product S(b) = prod_{j<=b} (1 - h(j)) with
S(-1) = 1, and the scalar risk score is -sum_b S(b), so higher risk means
worse expected survival. The metrics are pure functions with no RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from . import numkit as nk

HAZARD_EPS = 1e-7


@dataclass(frozen=True)
class SurvivalLabel:
    t: float  # months, > 0
    event: int  # 1 = death observed, 0 = censored
    bin: int | None = None  # discrete-time bin, assigned from training-fold quantiles

    def __post_init__(self):
        if not 0 < self.t < math.inf:
            raise ValueError(f"survival time must be positive and finite, got {self.t}")
        if self.event not in (0, 1):
            raise ValueError(f"event must be 0 or 1, got {self.event}")


@dataclass(frozen=True)
class SurvivalPrediction:
    hazards: np.ndarray  # (bins,)
    survival: np.ndarray  # (bins,), non-increasing
    risk: float

    @classmethod
    def from_hazards(cls, hazards) -> "SurvivalPrediction":
        h = np.asarray(hazards, dtype=np.float64).reshape(-1)
        survival = np.cumprod(1.0 - h)
        return cls(hazards=h, survival=survival, risk=float(-survival.sum()))


def time_bin_edges(labels: Sequence[SurvivalLabel], bins: int) -> np.ndarray:
    """Interior bin edges at quantiles of the uncensored times.

    Falls back to quantiles of all times when a fold has no observed deaths.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    times = np.array([lab.t for lab in labels if lab.event == 1], dtype=np.float64)
    if times.size == 0:
        times = np.array([lab.t for lab in labels], dtype=np.float64)
    if times.size == 0:
        raise ValueError("cannot derive bin edges from an empty label set")
    qs = np.arange(1, bins) / bins
    return np.quantile(times, qs)


def assign_bin(t: float, edges: np.ndarray) -> int:
    """Bin index for a time given interior edges (edge values close downward)."""
    return int(np.searchsorted(edges, t, side="left"))


# ---------------------------------------------------------------------------
# loss


def nll_loss(hazards: nk.Tensor, labels: Sequence[SurvivalLabel], alpha: float = 0.0) -> nk.Tensor:
    """Negative log-likelihood of B samples under discrete hazards, one column each.

    A death in bin b contributes -log S(b-1) - log h(b); a sample censored
    in bin b contributes -log S(b). ``alpha`` in [0, 1) optionally
    down-weights censored terms, which up-weights the observed deaths.
    Scores (bins, B) hazards against B labels and returns the (1, B) row of
    losses, one ``numkit.bernoulli_nll`` node with weight ``death`` on log h
    and ``keep`` on log(1 - h); hazards are clipped to [HAZARD_EPS,
    1 - HAZARD_EPS] there, so the loss is always finite. It participates in
    the tape when ``hazards`` does.
    """
    bins, n = hazards.shape
    if len(labels) != n:
        raise nk.ShapeError(f"{len(labels)} labels for {n} hazard columns")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    # per-column weights of log h and log(1 - h) in the negative log-likelihood
    death = np.zeros((bins, n))
    keep = np.zeros((bins, n))
    for j, label in enumerate(labels):
        b = label.bin
        if b is None or not 0 <= b < bins:
            raise ValueError(f"label bin {b} outside [0, {bins})")
        if label.event == 1:
            death[b, j] = 1.0  # -log h(b)
            keep[:b, j] = 1.0  # -log S(b-1)
        else:
            keep[: b + 1, j] = 1.0 - alpha  # -log S(b)
    return nk.bernoulli_nll(hazards, death, keep, HAZARD_EPS)


# ---------------------------------------------------------------------------
# rank metrics


def concordance_index(risks: Sequence[float], labels: Sequence[SurvivalLabel]) -> float | None:
    """Fraction of comparable pairs ordered correctly by risk.

    A pair (i, j) is comparable when i's death is observed and t_i < t_j;
    risk ties count 0.5. Returns None when no pair is comparable.
    """
    r = np.asarray(risks, dtype=np.float64)
    t = np.array([lab.t for lab in labels], dtype=np.float64)
    e = np.array([lab.event for lab in labels], dtype=np.int64)
    if r.shape != t.shape:
        raise ValueError(f"risks ({r.shape}) and labels ({t.shape}) differ in length")
    comparable = (e[:, None] == 1) & (t[:, None] < t[None, :])
    n_pairs = int(comparable.sum())
    if n_pairs == 0:
        return None
    greater = r[:, None] > r[None, :]
    ties = r[:, None] == r[None, :]
    score = (comparable & greater).sum() + 0.5 * (comparable & ties).sum()
    return float(score / n_pairs)


def kaplan_meier(labels: Sequence[SurvivalLabel]) -> list[tuple[float, float]]:
    """Product-limit survival estimate as (time, survival) step points.

    Starts at (0, 1); censored samples shrink the risk set without a step.
    """
    if not labels:
        raise ValueError("kaplan_meier needs at least one label")
    points, surv, at_risk = [(0.0, 1.0)], 1.0, len(labels)
    for t, tied in groupby(sorted(labels, key=lambda lab: lab.t), key=lambda lab: lab.t):
        tied = list(tied)
        deaths = sum(lab.event for lab in tied)
        if deaths > 0:
            surv *= 1.0 - deaths / at_risk
            points.append((t, surv))
        at_risk -= len(tied)
    return points


@dataclass(frozen=True)
class LogRankResult:
    statistic: float | None
    p_value: float | None
    observed_a: float
    expected_a: float

    @property
    def defined(self) -> bool:
        return self.statistic is not None


def chi2_sf_1dof(x: float) -> float:
    """Survival function of chi-square with one degree of freedom."""
    if x < 0:
        raise ValueError("chi-square statistic must be nonnegative")
    return math.erfc(math.sqrt(x / 2.0))


def logrank_test(
    group_a: Sequence[SurvivalLabel], group_b: Sequence[SurvivalLabel]
) -> LogRankResult:
    """Two-group log-rank test: observed vs expected deaths over event times.

    Undefined (flagged, not raised) when neither group has any event or the
    variance degenerates.
    """
    if not group_a or not group_b:
        raise ValueError("both groups must be non-empty")
    ta = np.array([lab.t for lab in group_a])
    ea = np.array([lab.event for lab in group_a])
    tb = np.array([lab.t for lab in group_b])
    eb = np.array([lab.event for lab in group_b])
    event_times = np.unique(np.concatenate([ta[ea == 1], tb[eb == 1]]))
    observed = 0.0
    expected = 0.0
    variance = 0.0
    for t in event_times:
        n1 = int((ta >= t).sum())
        n2 = int((tb >= t).sum())
        d1 = int(((ta == t) & (ea == 1)).sum())
        d2 = int(((tb == t) & (eb == 1)).sum())
        n = n1 + n2
        d = d1 + d2
        if n < 2:
            continue
        observed += d1
        expected += d * n1 / n
        variance += d * (n1 / n) * (n2 / n) * (n - d) / (n - 1)
    if event_times.size == 0 or variance <= 0.0:
        return LogRankResult(None, None, observed, expected)
    stat = (observed - expected) ** 2 / variance
    return LogRankResult(stat, chi2_sf_1dof(stat), observed, expected)


def stratify(risks: Sequence[float], labels: Sequence[SurvivalLabel]) -> tuple[np.ndarray, np.ndarray]:
    """Split sample indices at the median risk; ties at the median go low."""
    r = np.asarray(risks, dtype=np.float64)
    if r.size < 2:
        raise ValueError("stratify needs at least 2 samples")
    if len(labels) != r.size:
        raise ValueError("risks and labels differ in length")
    median = float(np.median(r))
    low = np.flatnonzero(r <= median)
    high = np.flatnonzero(r > median)
    return low, high


def binary_auc(
    risks: Sequence[float], labels: Sequence[SurvivalLabel], horizon: float
) -> float | None:
    """Rank AUC of risk against death-by-horizon.

    Positives died at or before the horizon; negatives survived past it;
    samples censored at or before the horizon are excluded. Returns None if
    either class is empty after exclusions.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    r = np.asarray(risks, dtype=np.float64)
    t = np.array([lab.t for lab in labels])
    e = np.array([lab.event for lab in labels])
    pos = (e == 1) & (t <= horizon)
    neg = t > horizon
    if not pos.any() or not neg.any():
        return None
    rp = r[pos][:, None]
    rn = r[neg][None, :]
    wins = (rp > rn).sum() + 0.5 * (rp == rn).sum()
    return float(wins / (rp.size * rn.size))
