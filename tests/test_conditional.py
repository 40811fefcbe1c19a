import itertools
import math
from fractions import Fraction as F

import mpmath
import pytest

from mdl_lab.conditional import (
    ConditionalClass,
    GaussianModel,
    InputAgnosticModel,
    LabelNoiseModel,
    PiecewiseConstantDensity,
    classify_dynamic,
    classify_static,
    conditional_to_sequence_class,
    footnote_densities,
    footnote_density_demo,
    gaussian_hellinger,
    model_hellinger,
    monte_carlo_regression_hellinger,
    piecewise_hellinger,
    piecewise_kl,
    piecewise_square,
    regression_map,
)
from mdl_lab.enclosure import GRID_BITS, FracInterval, ln_interval
from mdl_lab.errors import DegenerateLikelihoodError, ZeroHistoryError
from mdl_lab.metrics import check_bounds
from mdl_lab.model_class import LARGEST_WEIGHT, LOWEST_INDEX, round_robin
from mdl_lab.suites import suite_rng
from oracle import outcome


class TestClassification:
    def noise_class(self):
        return ConditionalClass(
            [LabelNoiseModel(F(1, 4)), LabelNoiseModel(F(3, 4))],
            [F(1, 2), F(1, 2)],
            true_index=1,
        )

    def test_single_model(self):
        cc = ConditionalClass([LabelNoiseModel(F(3, 4))], [F(1)], true_index=0)
        dist = classify_static(cc, [], [], 1)
        assert dist.values == (F(1, 4), F(3, 4))

    def test_two_channel_selection(self):
        # Inputs 0,0 with outcomes 0,0: joints 1/16 vs 9/16, so the
        # faithful channel wins and predicts 3/4 on outcome 0 at input 0.
        cc = self.noise_class()
        dist = classify_static(cc, [0, 0], [0, 0], 0)
        assert dist.values == (F(3, 4), F(1, 4))

    def test_dynamic_on_same_history(self):
        cc = self.noise_class()
        dist = classify_dynamic(cc, [0, 0], [0, 0], 0)
        assert all(0 <= v <= 1 for v in dist.values)

    def test_reduction_matches_sequence_predictors(self):
        # Input-agnostic models: classification must agree bit for bit
        # with the plain sequence machinery on the same outputs.
        from mdl_lab.model_class import WeightedClass
        from mdl_lab.measures import IidModel
        from mdl_lab.predictors import predict_dynamic, predict_static

        thetas = [(F(1, 4), F(3, 4)), (F(2, 3), F(1, 3))]
        cc = ConditionalClass(
            [InputAgnosticModel(t) for t in thetas],
            [F(1, 2), F(1, 2)],
            true_index=0,
        )
        seq = WeightedClass(
            [IidModel(t) for t in thetas], [F(1, 2), F(1, 2)], true_index=0
        )
        rng = suite_rng(8, 8)
        for _ in range(20):
            outputs = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
            inputs = [rng.randrange(2) for _ in outputs]
            static_a = classify_static(cc, inputs, outputs, 0)
            static_b = predict_static(seq, outputs)
            assert static_a.values == static_b.values
            dyn_a = classify_dynamic(cc, inputs, outputs, 1)
            dyn_b = predict_dynamic(seq, outputs)
            assert dyn_a.values == dyn_b.values

    def test_matches_joint_likelihood_reference(self):
        # Every label-noise pair over p in {0, 1/4, ..., 1} with equal and
        # unequal weights, every history of up to two steps, both next
        # inputs and all three tie-breaks; exact ties and vanished
        # histories both occur.
        grid = [F(k, 4) for k in range(5)]
        classes = [
            ConditionalClass([LabelNoiseModel(p), LabelNoiseModel(q)], weights)
            for p, q in itertools.product(grid, repeat=2)
            for weights in ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)))
        ]
        histories = [
            (inputs, outputs)
            for n in range(3)
            for inputs in itertools.product((0, 1), repeat=n)
            for outputs in itertools.product((0, 1), repeat=n)
        ]
        rules = ((classify_static, False), (classify_dynamic, True))
        tie_breaks = (LARGEST_WEIGHT, LOWEST_INDEX, round_robin(1))
        seen = {"tie": 0, "value": 0, ZeroHistoryError: 0}
        for cc, (inputs, outputs) in itertools.product(classes, histories):
            scores = _joint_scores(cc, inputs, outputs)
            seen["tie"] += scores[0] == scores[1] != 0
            for u, tb, (classify, dynamic) in itertools.product((0, 1), tie_breaks, rules):
                want = outcome(
                    lambda: _joint_reference(cc, inputs, outputs, u, tb, dynamic)
                )
                got = outcome(lambda: classify(cc, inputs, outputs, u, tb).values)
                assert got == want, (cc.models, cc.weights, inputs, outputs, u, tb)
                seen[want if want is ZeroHistoryError else "value"] += 1
        assert all(seen.values()), seen

    def test_misaligned_history_refused(self):
        for classify in (classify_static, classify_dynamic):
            with pytest.raises(ValueError):
                classify(self.noise_class(), [0, 1], [0], 0)

    def test_bounds_via_reduction(self):
        # Square budgets hold for every fixed input sequence tested.
        cc = self.noise_class()
        for case in range(3):
            rng = suite_rng(9, case)
            inputs = [rng.randrange(2) for _ in range(6)]
            seq = conditional_to_sequence_class(cc, inputs)
            for report in check_bounds(seq, 6):
                assert report.passed, (case, report.bound_name)


def _joint_scores(cc, inputs, outputs):
    """w_nu * nu(outputs | inputs), the joint likelihood written out."""
    scores = []
    for m, w in zip(cc.models, cc.weights):
        for u, x in zip(inputs, outputs):
            w *= m.prob(x, u)
        scores.append(w)
    return scores


def _joint_reference(cc, inputs, outputs, next_input, tie_break, dynamic):
    """Classification straight from the joint likelihoods of the history."""
    scores = _joint_scores(cc, inputs, outputs)
    best = max(scores)
    if best == 0:
        raise ZeroHistoryError("all joint likelihoods vanished")
    if dynamic:
        return tuple(
            max(s * m.prob(a, next_input) for s, m in zip(scores, cc.models)) / best
            for a in cc.alphabet.symbols()
        )
    chosen, _ = tie_break.select(scores, cc.weights, len(outputs))
    return cc.models[chosen].distribution(next_input)


class TestRegressionMap:
    def test_single_model(self):
        models = [GaussianModel(0.0)]
        assert regression_map(models, [F(1)], [0], [2.5]) == 0

    def test_two_gaussians_small_data(self):
        # Log-likelihood gap sum((x-1)^2 - x^2)/2 > 0 for x = .1, -.2.
        models = [GaussianModel(0.0), GaussianModel(1.0)]
        gap = sum((x - 1) ** 2 - x**2 for x in (0.1, -0.2)) / 2
        assert gap > 0
        chosen = regression_map(models, [F(1, 2), F(1, 2)], [0, 0], [0.1, -0.2])
        assert chosen == 0

    def test_midpoint_tie_largest_weight(self):
        models = [GaussianModel(0.0), GaussianModel(1.0)]
        chosen = regression_map(models, [F(1, 4), F(3, 4)], [0], [0.5])
        assert chosen == 1

    def test_degenerate(self):
        f = PiecewiseConstantDensity([0.0, 1.0], [1.0])
        with pytest.raises(DegenerateLikelihoodError):
            regression_map([f], [F(1)], [0], [5.0])

    def test_sigma_floor(self):
        with pytest.raises(ValueError):
            GaussianModel(0.0, sigma=1e-4)

    @pytest.mark.parametrize(
        "weights, match",
        [
            ([F(1)], "equal length"),
            ([F(1, 2), F(0)], "positive"),
            ([F(1, 2), F(3, 4)], "at most 1"),
        ],
    )
    def test_malformed_prior_refused(self, weights, match):
        models = [GaussianModel(0.0), GaussianModel(1.0)]
        with pytest.raises(ValueError, match=match):
            regression_map(models, weights, [0], [5.0])

    def test_empty_prior_refused(self):
        with pytest.raises(ValueError, match="at least one model"):
            regression_map([], [], [0], [5.0])


class TestHellingerDensity:
    def test_identical_zero(self):
        f = GaussianModel(0.0)
        assert model_hellinger(f, f) <= 1e-12

    def test_disjoint_boxes_two(self):
        f = PiecewiseConstantDensity([0.0, 1.0], [1.0])
        g = PiecewiseConstantDensity([2.0, 3.0], [1.0])
        # Every piece has a zero level, so each term is an exact point and
        # so is their weighted sum: the rational 2, not a grid enclosure.
        total = piecewise_hellinger(f, g)
        assert total.is_point
        assert total == FracInterval.exact(2)
        assert type(total.lo) is F and total.lo == 2

    def test_unit_gaussians(self):
        # Unit-variance means 0 and 1: h = 2 - 2 exp(-1/8).
        closed = 2 - 2 * math.exp(-1 / 8)
        assert abs(closed - 0.2350061948308091) < 1e-12
        h = model_hellinger(GaussianModel(0.0), GaussianModel(1.0))
        assert abs(h - closed) < 1e-9

    def test_closed_form_matches_quadrature(self):
        # The closed form against an independent 30-digit quadrature,
        # split at both means, on seeded random pairs.
        rng = suite_rng(10, 2)
        root = lambda x, m, s: mpmath.sqrt(mpmath.npdf(x, m, s))
        with mpmath.workdps(30):
            for _ in range(25):
                m1, m2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
                s1, s2 = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
                numeric = mpmath.quad(
                    lambda x: (root(x, m1, s1) - root(x, m2, s2)) ** 2,
                    [-mpmath.inf, min(m1, m2), max(m1, m2), mpmath.inf],
                )
                closed = gaussian_hellinger(m1, s1, m2, s2)
                assert abs(closed - float(numeric)) < 1e-12, (m1, s1, m2, s2)

    def test_mixed_pair_refused(self):
        box = PiecewiseConstantDensity([0, 1], [1])
        for pair in ((GaussianModel(0.0), box), (box, GaussianModel(0.0)), (box, box)):
            with pytest.raises(TypeError):
                model_hellinger(*pair)

    def test_symmetry_range(self):
        rng = suite_rng(10, 0)
        for _ in range(25):
            a = GaussianModel(rng.uniform(-3, 3), sigma=rng.uniform(0.3, 2.0))
            b = GaussianModel(rng.uniform(-3, 3), sigma=rng.uniform(0.3, 2.0))
            hab = gaussian_hellinger(a.intercept, a.sigma, b.intercept, b.sigma)
            hba = gaussian_hellinger(b.intercept, b.sigma, a.intercept, a.sigma)
            assert abs(hab - hba) < 1e-12
            assert 0 <= hab <= 2

    def test_sqrt_triangle_inequality(self):
        rng = suite_rng(10, 1)
        for _ in range(50):
            ms = [rng.uniform(-2, 2) for _ in range(3)]
            ss = [rng.uniform(0.3, 1.5) for _ in range(3)]
            h = lambda i, j: math.sqrt(
                gaussian_hellinger(ms[i], ss[i], ms[j], ss[j])
            )
            assert h(0, 2) <= h(0, 1) + h(1, 2) + 1e-12


class TestFootnoteDensities:
    @pytest.mark.parametrize("n", [3, 9, 27])
    def test_square_and_kl(self, n):
        square, kl = footnote_density_demo(n)
        assert abs(square - 2 * n / 9) <= 1e-8
        assert abs(kl - math.log(2) / 3) <= 1e-8
        # The exact values behind the floats.
        f, g = footnote_densities(n)
        assert piecewise_square(f, g) == F(2 * n, 9)
        kl_exact = piecewise_kl(f, g)
        # On the 2^-GRID_BITS grid a proper enclosure is at least one step
        # wide; this one is at most two.
        assert kl_exact.width <= 2 * F(1, 2**GRID_BITS)
        target = ln_interval(F(2)) * F(1, 3)
        assert kl_exact.lo <= target.hi and target.lo <= kl_exact.hi

    def test_square_scales_linearly(self):
        s3, _ = footnote_density_demo(3)
        s9, _ = footnote_density_demo(9)
        assert abs(s9 / s3 - 3.0) < 1e-9

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantDensity([0.0, 1.0], [0.5])
        # 3 * float(1/3) misses 1 by about 1e-17; only the exact check sees it.
        with pytest.raises(ValueError):
            PiecewiseConstantDensity([0, 3], [1 / 3])
        PiecewiseConstantDensity([0, 3], [F(1, 3)])


class TestRegressionLedger:
    def test_hellinger_within_static_budget(self):
        models = [GaussianModel(0.0), GaussianModel(1.0)]
        summary = monte_carlo_regression_hellinger(
            models, [F(1, 2), F(1, 2)], 0, [0] * 30, samples=120, seed=5
        )
        assert summary.bound == 42.0
        assert summary.within_bound
        assert summary.mean < 2.0  # far inside the budget in practice

    @pytest.mark.parametrize(
        "weights, true_index, match",
        [
            ([F(1, 2)], 0, "equal length"),
            ([F(1, 2), F(0)], 0, "positive"),
            ([F(1, 2), F(3, 4)], 0, "at most 1"),
            ([F(1, 2), F(1, 2)], -1, "true_index"),
            ([F(1, 2), F(1, 2)], 2, "true_index"),
        ],
    )
    def test_malformed_prior_refused(self, weights, true_index, match):
        models = [GaussianModel(0.0), GaussianModel(1.0)]
        with pytest.raises(ValueError, match=match):
            monte_carlo_regression_hellinger(
                models, weights, true_index, [0] * 3, samples=2, seed=0
            )

    def test_zero_samples_refused(self):
        with pytest.raises(ValueError):
            monte_carlo_regression_hellinger(
                [GaussianModel(0.0)], [F(1)], 0, [0] * 3, samples=0, seed=0
            )
