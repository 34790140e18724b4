"""Survival loss and metric tests against independent oracles.

The rank metrics are checked against explicit pair-enumeration oracles
written in exact Fraction arithmetic; Kaplan-Meier and log-rank fixtures
carry their hand-worked risk-set tables in comments.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scipy_stats

from mgct import numkit as nk
from mgct import survival as sv
from mgct.verify import gradient_error


def lab(t, event, b=None):
    return sv.SurvivalLabel(t=t, event=event, bin=b)


# ---------------------------------------------------------------------------
# independent oracles (loops + exact arithmetic, no shared code with mgct)


def cindex_oracle(risks, labels):
    num = Fraction(0)
    pairs = 0
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            if i == j or li.event != 1 or not li.t < lj.t:
                continue
            pairs += 1
            if risks[i] > risks[j]:
                num += 1
            elif risks[i] == risks[j]:
                num += Fraction(1, 2)
    return None if pairs == 0 else num / pairs


def auc_oracle(risks, labels, horizon):
    pos = [r for r, l in zip(risks, labels) if l.event == 1 and l.t <= horizon]
    neg = [r for r, l in zip(risks, labels) if l.t > horizon]
    if not pos or not neg:
        return None
    num = Fraction(0)
    for rp in pos:
        for rn in neg:
            if rp > rn:
                num += 1
            elif rp == rn:
                num += Fraction(1, 2)
    return num / (len(pos) * len(neg))


def logrank_oracle(group_a, group_b):
    """Exact observed/expected/variance sums over distinct event times."""
    times = sorted({l.t for l in list(group_a) + list(group_b) if l.event == 1})
    obs = Fraction(0)
    exp = Fraction(0)
    var = Fraction(0)
    for t in times:
        n1 = sum(1 for l in group_a if l.t >= t)
        n2 = sum(1 for l in group_b if l.t >= t)
        d1 = sum(1 for l in group_a if l.t == t and l.event == 1)
        d2 = sum(1 for l in group_b if l.t == t and l.event == 1)
        n, d = n1 + n2, d1 + d2
        if n < 2:
            continue
        obs += d1
        exp += Fraction(d * n1, n)
        var += Fraction(d * n1 * n2 * (n - d), n * n * (n - 1))
    if var == 0:
        return None
    return float((obs - exp) ** 2 / var)


# ---------------------------------------------------------------------------
# loss


class TestNllLoss:
    def test_uniform_hazards_death_in_first_bin(self):
        h = nk.Tensor(np.full((4, 1), 0.5))
        loss = sv.nll_loss(h, [lab(1.0, 1, 0)])
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_death_in_later_bin(self):
        # -log S(1) - log h(2) with h = 0.5: 2*log2 + log2
        h = nk.Tensor(np.full((4, 1), 0.5))
        loss = sv.nll_loss(h, [lab(9.0, 1, 2)])
        assert loss.item() == pytest.approx(3 * np.log(2.0), abs=1e-12)

    def test_censored_vanishing_hazard_gives_zero_loss(self):
        h = nk.Tensor(np.full((4, 1), 1e-12))
        loss = sv.nll_loss(h, [lab(50.0, 0, 3)])
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_extreme_hazards_stay_finite(self):
        for value in (0.0, 1.0):
            h = nk.Tensor(np.full((4, 1), value))
            for event in (0, 1):
                assert np.isfinite(sv.nll_loss(h, [lab(5.0, event, 2)]).item())

    def test_alpha_downweights_censored_only(self):
        h = nk.Tensor(np.full((4, 1), 0.3))
        censored = lab(5.0, 0, 1)
        dead = lab(5.0, 1, 1)
        assert sv.nll_loss(h, [censored], alpha=0.5).item() == pytest.approx(
            0.5 * sv.nll_loss(h, [censored]).item()
        )
        assert sv.nll_loss(h, [dead], alpha=0.5).item() == sv.nll_loss(h, [dead]).item()

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = nk.Tensor(rng.uniform(0.01, 0.99, (4, 1)))
            b = int(rng.integers(0, 4))
            e = int(rng.integers(0, 2))
            assert sv.nll_loss(h, [lab(1.0, e, b)]).item() >= 0.0

    @pytest.mark.parametrize("event,b", [(1, 0), (1, 2), (0, 1), (0, 3)])
    def test_gradient_vs_finite_differences(self, event, b):
        rng = np.random.default_rng(b + event)
        logits = rng.uniform(-1.5, 1.5, (4, 1))
        label = lab(5.0, event, b)
        err, _ = gradient_error(lambda t: sv.nll_loss(nk.sigmoid(t["z"]), [label]), {"z": logits})
        assert err < 1e-5

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    @pytest.mark.parametrize("cols", [1, 7])
    def test_bitwise_the_composed_chain(self, alpha, cols):
        # oracle: the loss as separate clip, 1 - h, log, product, sum and minus-ones matmul steps in
        # numpy, gradients summed in the order a backward over those steps takes; some hazards are clipped
        rng = np.random.default_rng(cols)
        bins, eps = 5, sv.HAZARD_EPS
        h = rng.uniform(0, 1, (bins, cols))
        h.flat[rng.choice(h.size, h.size // 3, replace=False)] = rng.choice([0.0, 1e-9, eps, 1 - eps, 1.0], h.size // 3)
        labels = [lab(1.0, int(rng.integers(0, 2)), int(rng.integers(0, bins))) for _ in range(cols)]
        at = np.arange(bins)[:, None]
        bin_of, event = np.array([[x.bin for x in labels]]), np.array([[x.event for x in labels]])
        death = (event * (at == bin_of)).astype(float)
        keep = np.where(event == 1, (at < bin_of) * 1.0, (at <= bin_of) * (1.0 - alpha))
        clipped = np.clip(h, eps, 1 - eps)
        rest = np.ones((bins, 1)) - clipped
        minus_ones = np.full((1, bins), -1.0)
        rows = minus_ones.dot(death * np.log(clipped) + keep * np.log(rest))
        g = rng.normal(size=(1, cols))
        pulled = minus_ones.T @ g
        inside = ((h >= eps) & (h <= 1 - eps)).astype(float)
        grad = ((pulled * death) / clipped + -((pulled * keep) / rest)) * inside

        tape = nk.Tape()
        leaf = tape.leaf(h)
        out = sv.nll_loss(leaf, labels, alpha)
        assert out.data.tobytes() == rows.tobytes()
        assert sv.nll_loss(nk.Tensor(h), labels, alpha).data.tobytes() == rows.tobytes()
        assert nk.backward(nk.sum_all(nk.mul(out, nk.Tensor(g))), tape)[leaf].tobytes() == grad.tobytes()
        assert not inside.all()  # some hazards were clipped

    def test_bin_required(self):
        h = nk.Tensor(np.full((4, 1), 0.5))
        with pytest.raises(ValueError, match="bin"):
            sv.nll_loss(h, [lab(1.0, 1, None)])


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan"), float("inf")])
def test_label_time_must_be_positive_and_finite(t):
    with pytest.raises(ValueError, match="positive and finite"):
        lab(t, 1)


class TestSurvivalPrediction:
    def test_survival_curve_and_risk(self):
        pred = sv.SurvivalPrediction.from_hazards([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(pred.survival, np.cumprod([0.9, 0.8, 0.7, 0.6]))
        assert pred.risk == pytest.approx(-pred.survival.sum())
        assert np.all(np.diff(pred.survival) <= 0)


class TestTimeBins:
    def test_quartile_edges(self):
        labels = [lab(float(t), 1) for t in range(1, 9)]
        edges = sv.time_bin_edges(labels, 4)
        assert len(edges) == 3
        assert edges[0] < edges[1] < edges[2]

    def test_censored_excluded_from_edges(self):
        dead = [lab(float(t), 1) for t in (1, 2, 3, 4)]
        censored = [lab(1000.0, 0)] * 10
        edges = sv.time_bin_edges(dead + censored, 2)
        assert edges[0] <= 4.0

    def test_all_censored_falls_back_to_all_times(self):
        labels = [lab(float(t), 0) for t in (1, 2, 3, 4)]
        assert sv.time_bin_edges(labels, 2)[0] > 0

    def test_assignment_covers_range(self):
        edges = np.array([2.0, 4.0, 8.0])
        assert sv.assign_bin(1.0, edges) == 0
        assert sv.assign_bin(2.0, edges) == 0  # edge value closes downward
        assert sv.assign_bin(3.0, edges) == 1
        assert sv.assign_bin(100.0, edges) == 3


# ---------------------------------------------------------------------------
# concordance


class TestConcordanceIndex:
    def test_perfect_anti_ordering(self):
        labels = [lab(t, 1) for t in (1.0, 2.0, 3.0, 4.0)]
        assert sv.concordance_index([4.0, 3.0, 2.0, 1.0], labels) == 1.0

    def test_all_risks_equal(self):
        labels = [lab(t, 1) for t in (1.0, 2.0, 3.0)]
        assert sv.concordance_index([5.0, 5.0, 5.0], labels) == 0.5

    def test_handcrafted_mixed_censoring_fixture(self):
        # comparable pairs (death first, earlier time): A with B,C,D,E,F;
        # B with C,D,E,F; D with E,F -> 11 pairs, one tie (B,D), one
        # discordance (D vs F) -> 10.5 / 11
        labels = [lab(2, 1), lab(4, 1), lab(5, 0), lab(6, 1), lab(8, 0), lab(9, 1)]
        risks = [0.9, 0.8, 0.7, 0.8, 0.2, 0.75]
        expected = 10.5 / 11
        assert sv.concordance_index(risks, labels) == pytest.approx(expected, abs=0)
        assert float(cindex_oracle(risks, labels)) == pytest.approx(expected, abs=0)

    def test_matches_bruteforce_on_random_data(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(3, 25))
            risks = list(np.round(rng.normal(size=n), 2))
            labels = [lab(float(rng.integers(1, 10)), int(rng.integers(0, 2))) for _ in range(n)]
            got = sv.concordance_index(risks, labels)
            want = cindex_oracle(risks, labels)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(float(want), abs=1e-12)

    def test_no_comparable_pairs_is_undefined(self):
        labels = [lab(5.0, 0), lab(6.0, 0)]
        assert sv.concordance_index([1.0, 2.0], labels) is None

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        risks = rng.normal(size=15)
        labels = [lab(float(rng.integers(1, 20)), int(rng.integers(0, 2))) for _ in range(15)]
        base = sv.concordance_index(risks, labels)
        for transform in (np.exp, np.tanh, lambda r: 3 * r + 7, np.cbrt):
            assert sv.concordance_index(transform(risks), labels) == pytest.approx(base, abs=1e-12)

    def test_negation_complements(self):
        rng = np.random.default_rng(3)
        risks = rng.normal(size=12)  # continuous, so no ties
        labels = [lab(float(t), 1) for t in rng.permutation(12) + 1]
        c = sv.concordance_index(risks, labels)
        c_neg = sv.concordance_index(-risks, labels)
        assert c + c_neg == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Kaplan-Meier


class TestKaplanMeier:
    def test_four_uncensored_steps(self):
        labels = [lab(t, 1) for t in (1.0, 2.0, 3.0, 4.0)]
        assert sv.kaplan_meier(labels) == [
            (0.0, 1.0),
            (1.0, 0.75),
            (2.0, 0.5),
            (3.0, 0.25),
            (4.0, 0.0),
        ]

    def test_all_censored_flat(self):
        labels = [lab(t, 0) for t in (1.0, 2.0, 3.0)]
        assert sv.kaplan_meier(labels) == [(0.0, 1.0)]

    def test_ten_sample_mixed_fixture(self):
        # risk-set walk: t=1 d=1 n=10 -> 9/10; t=2 d=1 n=9 -> 4/5;
        # censor at 3; t=4 d=1 n=7 -> 24/35; censor at 5; t=6 d=1 n=5 ->
        # 96/175; censor at 7; t=8 d=1 n=3 -> 64/175; censor at 9;
        # t=10 d=1 n=1 -> 0
        labels = [
            lab(1, 1), lab(2, 1), lab(3, 0), lab(4, 1), lab(5, 0),
            lab(6, 1), lab(7, 0), lab(8, 1), lab(9, 0), lab(10, 1),
        ]
        expected = [
            (0.0, Fraction(1)),
            (1, Fraction(9, 10)),
            (2, Fraction(4, 5)),
            (4, Fraction(24, 35)),
            (6, Fraction(96, 175)),
            (8, Fraction(64, 175)),
            (10, Fraction(0)),
        ]
        got = sv.kaplan_meier(labels)
        assert len(got) == len(expected)
        for (t_got, s_got), (t_want, s_want) in zip(got, expected):
            assert t_got == t_want
            assert s_got == pytest.approx(float(s_want), abs=1e-12)

    def test_nonincreasing_and_starts_at_one(self):
        rng = np.random.default_rng(4)
        labels = [lab(float(rng.integers(1, 30)), int(rng.integers(0, 2))) for _ in range(50)]
        curve = sv.kaplan_meier(labels)
        assert curve[0] == (0.0, 1.0)
        values = [s for _, s in curve]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_censoring_equals_empirical_survival(self):
        rng = np.random.default_rng(5)
        times = rng.integers(1, 12, size=40).astype(float)
        labels = [lab(t, 1) for t in times]
        for t, s in sv.kaplan_meier(labels)[1:]:
            assert s == pytest.approx(np.mean(times > t), abs=1e-12)

    def test_tied_deaths_single_step(self):
        labels = [lab(2.0, 1), lab(2.0, 1), lab(5.0, 1), lab(6.0, 0)]
        assert sv.kaplan_meier(labels) == [(0.0, 1.0), (2.0, 0.5), (5.0, 0.25)]


# ---------------------------------------------------------------------------
# log-rank


class TestLogRank:
    def test_identical_groups(self):
        group = [lab(float(t), 1) for t in range(1, 8)]
        res = sv.logrank_test(group, list(group))
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_groups_significant(self):
        # all of group a dies before any of group b: per event time t=k in
        # 1..10, group a has 10-k+1 at risk and b keeps all 10
        a = [lab(float(t), 1) for t in range(1, 11)]
        b = [lab(float(t), 1) for t in range(11, 21)]
        res = sv.logrank_test(a, b)
        assert res.defined
        assert res.statistic == pytest.approx(logrank_oracle(a, b), abs=1e-12)
        # hand-worked expected deaths in a: 1/2 + 9/19 + ... + 1/11
        expected_a = float(sum(Fraction(n1, n1 + 10) for n1 in range(10, 0, -1)))
        assert res.expected_a == pytest.approx(expected_a, abs=1e-12)
        assert res.observed_a == 10
        assert res.p_value < 0.05

    def test_group_swap_symmetric(self):
        rng = np.random.default_rng(6)
        a = [lab(float(rng.integers(1, 20)), int(rng.integers(0, 2))) for _ in range(15)]
        b = [lab(float(rng.integers(1, 20)), int(rng.integers(0, 2))) for _ in range(12)]
        r1, r2 = sv.logrank_test(a, b), sv.logrank_test(b, a)
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)

    def test_matches_oracle_on_random_mixed_data(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = [lab(float(rng.integers(1, 15)), int(rng.integers(0, 2))) for _ in range(12)]
            b = [lab(float(rng.integers(1, 15)), int(rng.integers(0, 2))) for _ in range(12)]
            want = logrank_oracle(a, b)
            got = sv.logrank_test(a, b)
            if want is None:
                assert not got.defined
            else:
                assert got.statistic == pytest.approx(want, abs=1e-12)

    def test_no_events_flagged_undefined(self):
        a = [lab(5.0, 0), lab(6.0, 0)]
        b = [lab(7.0, 0), lab(8.0, 0)]
        res = sv.logrank_test(a, b)
        assert not res.defined
        assert res.statistic is None and res.p_value is None

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sv.logrank_test([], [lab(1.0, 1)])

    def test_chi2_sf_matches_scipy(self):
        for x in (0.0, 0.1, 1.0, 3.84, 10.0, 25.0, 60.0):
            assert sv.chi2_sf_1dof(x) == pytest.approx(
                scipy_stats.chi2.sf(x, df=1), abs=1e-12, rel=1e-10
            )


# ---------------------------------------------------------------------------
# stratification and AUC


class TestStratify:
    def test_even_split(self):
        labels = [lab(1.0, 1)] * 4
        low, high = sv.stratify([1.0, 2.0, 3.0, 4.0], labels)
        assert low.tolist() == [0, 1] and high.tolist() == [2, 3]

    def test_ties_go_low(self):
        labels = [lab(1.0, 1)] * 4
        low, high = sv.stratify([2.0, 2.0, 2.0, 2.0], labels)
        assert low.size == 4 and high.size == 0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        risks = rng.normal(size=21)
        labels = [lab(1.0, 1)] * 21
        low0, high0 = sv.stratify(risks, labels)
        for transform in (np.exp, lambda r: r**3, lambda r: 10 * r - 4):
            low, high = sv.stratify(transform(risks), labels)
            np.testing.assert_array_equal(low, low0)
            np.testing.assert_array_equal(high, high0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            sv.stratify([1.0], [lab(1.0, 1)])


class TestBinaryAuc:
    def test_perfect_separation(self):
        labels = [lab(1.0, 1), lab(2.0, 1), lab(20.0, 1), lab(30.0, 0)]
        assert sv.binary_auc([9.0, 8.0, 1.0, 2.0], labels, horizon=10.0) == 1.0

    def test_censored_before_horizon_excluded(self):
        labels = [lab(1.0, 1), lab(5.0, 0), lab(20.0, 1)]
        # the censored sample would be a spurious negative if kept
        assert sv.binary_auc([2.0, 3.0, 1.0], labels, horizon=10.0) == 1.0

    def test_random_risks_near_half(self):
        rng = np.random.default_rng(9)
        labels = [lab(float(rng.integers(1, 40)), 1) for _ in range(1000)]
        auc = sv.binary_auc(rng.normal(size=1000), labels, horizon=20.0)
        assert abs(auc - 0.5) < 0.05

    def test_eight_sample_fixture_matches_bruteforce(self):
        labels = [
            lab(2, 1), lab(4, 1), lab(6, 0), lab(9, 1),
            lab(12, 1), lab(15, 0), lab(20, 1), lab(25, 0),
        ]
        risks = [0.9, 0.7, 0.7, 0.4, 0.35, 0.2, 0.5, 0.1]
        horizon = 10.0
        got = sv.binary_auc(risks, labels, horizon)
        want = auc_oracle(risks, labels, horizon)
        assert got == pytest.approx(float(want), abs=0)
        # positives die by t=10 (risks 0.9, 0.7, 0.4); negatives survive past
        # it (0.35, 0.2, 0.5, 0.1); censored-at-6 excluded; 0.4 < 0.5 is the
        # one discordant pair of twelve
        assert want == Fraction(11, 12)

    def test_single_class_undefined(self):
        labels = [lab(1.0, 1), lab(2.0, 1)]
        assert sv.binary_auc([1.0, 2.0], labels, horizon=10.0) is None

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            sv.binary_auc([1.0], [lab(1.0, 1)], horizon=0.0)
