"""Input-conditioned classification and bounded-density regression.

Classification adds an input u_t to each observation: models are proper
conditional measures nu(x|u) over a finite outcome alphabet, selected by
the weighted joint likelihood of the observed (input, outcome) history.
For any fixed input sequence this reduces to the plain sequence problem
with per-step distributions nu(.|u_t).  ``classify_static`` and
``classify_dynamic`` freeze the history's inputs and the next input into
such a sequence class and read the sequence predictors; the square-error
bounds {2, 8, 21} * 1/w_mu are verified on the same reduction.

Regression replaces the finite alphabet with real outcomes and uniformly
bounded densities; squared error is the wrong gauge there (a sliver of
density can blow it up while the relative entropy stays put, see
``footnote_density_demo``), so the continuous Hellinger distance
h(f, g) = integral (sqrt f - sqrt g)^2 takes over.  No integral needs
quadrature: Gaussian pairs take the closed form (in floats), and
piecewise-constant pairs are finite sums over their merged pieces, with
the square distance an exact rational and Hellinger and KL certified
rational enclosures.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple, Union

from .enclosure import ZERO_INTERVAL, FracInterval, hellinger_term, kl_term
from .errors import DegenerateLikelihoodError
from .measures import Alphabet, BINARY, FactorizableModel, check_samples, derived_rng
from .metrics import mean_stderr
from .model_class import LARGEST_WEIGHT, TieBreak, WeightedClass
from .predictors import PredictiveDistribution, predict_dynamic, predict_static

SIGMA_MIN = 1e-3


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------


class ConditionalModel:
    """Proper conditional measure nu(x|u) over a finite outcome alphabet."""

    alphabet: Alphabet
    input_space: str = "arbitrary"

    def prob(self, x: int, u) -> Fraction:
        raise NotImplementedError

    def distribution(self, u) -> Tuple[Fraction, ...]:
        dist = tuple(self.prob(x, u) for x in self.alphabet.symbols())
        if sum(dist) != 1 or any(p < 0 for p in dist):
            raise ValueError(f"{self!r} is not a conditional measure at u={u!r}")
        return dist


class LabelNoiseModel(ConditionalModel):
    """Binary channel: the outcome equals the input with probability p."""

    input_space = "binary"

    def __init__(self, p):
        self.alphabet = BINARY
        self.p = Fraction(p)
        if not 0 <= self.p <= 1:
            raise ValueError("channel fidelity must lie in [0, 1]")

    def prob(self, x: int, u) -> Fraction:
        return self.p if x == int(u) else 1 - self.p

    def __repr__(self) -> str:
        return f"label_noise(p={self.p})"


class InputAgnosticModel(ConditionalModel):
    """Ignores the input: nu(x|u) = theta_x.  Reduction witness."""

    def __init__(self, theta: Sequence):
        self.theta = tuple(Fraction(t) for t in theta)
        self.alphabet = Alphabet(len(self.theta))

    def prob(self, x: int, u) -> Fraction:
        return self.theta[x]

    def __repr__(self) -> str:
        return f"input_agnostic({','.join(str(t) for t in self.theta)})"


@dataclass
class ConditionalClass:
    """Weighted conditional models; regression checks its priors here too."""

    models: Sequence[ConditionalModel]
    weights: Sequence[Fraction]
    true_index: Optional[int] = None

    def __post_init__(self):
        self.weights = tuple(Fraction(w) for w in self.weights)
        if not self.models:
            raise ValueError("a conditional class needs at least one model")
        if len(self.models) != len(self.weights):
            raise ValueError("models and weights must have equal length")
        if any(w <= 0 for w in self.weights) or sum(self.weights) > 1:
            raise ValueError("weights must be positive and sum to at most 1")
        if self.true_index is not None and not 0 <= self.true_index < len(self.models):
            raise ValueError("true_index out of range")

    @property
    def alphabet(self) -> Alphabet:
        return self.models[0].alphabet


def classify_static(
    cc: ConditionalClass,
    inputs,
    outputs,
    next_input,
    tie_break: TieBreak = LARGEST_WEIGHT,
) -> PredictiveDistribution:
    """Select once on the history, predict with nu^history(.|u_t)."""
    return predict_static(_frozen(cc, inputs, outputs, next_input), outputs, tie_break)


def classify_dynamic(
    cc: ConditionalClass,
    inputs,
    outputs,
    next_input,
    tie_break: TieBreak = LARGEST_WEIGHT,
) -> PredictiveDistribution:
    """Re-select per candidate outcome: rho(x_<t a|u_1:t) / rho(x_<t|u_<t)."""
    return predict_dynamic(_frozen(cc, inputs, outputs, next_input), outputs, tie_break)


def _frozen(cc: ConditionalClass, inputs, outputs, next_input) -> WeightedClass:
    """The sequence class of the history's inputs followed by the next one."""
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must be aligned")
    return conditional_to_sequence_class(cc, [*inputs, next_input])


def conditional_to_sequence_class(cc: ConditionalClass, inputs) -> WeightedClass:
    """Freeze an input sequence: each model becomes a factorizable measure.

    Step t of the sequence model is nu(.|u_t); beyond the given inputs the
    last one repeats.  The reduction is exact, so every sequence-level
    bound check and predictor applies verbatim to classification with
    fixed inputs.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("need at least one input")

    def make(model: ConditionalModel) -> FactorizableModel:
        dists = [model.distribution(u) for u in inputs]
        return FactorizableModel.from_steps(
            cc.alphabet, dists[:-1], dists[-1], name=f"seq({model!r})"
        )

    return WeightedClass(
        [make(m) for m in cc.models], cc.weights, true_index=cc.true_index
    )


# ----------------------------------------------------------------------
# Regression: uniformly bounded densities on the line
# ----------------------------------------------------------------------


class BoundedDensityModel:
    """Conditional density on the reals, uniformly bounded by ``bound``."""

    bound: float
    input_space: str = "arbitrary"

    def density(self, x: float, u) -> float:
        raise NotImplementedError

    def log_density(self, x: float, u) -> float:
        d = self.density(x, u)
        return -math.inf if d == 0 else math.log(d)


class GaussianModel(BoundedDensityModel):
    """Gaussian with affine input-dependent mean and fixed scale.

    sigma is floored at SIGMA_MIN so the uniform density bound
    1/(sigma sqrt(2 pi)) exists.
    """

    def __init__(self, intercept: float, slope: float = 0.0, sigma: float = 1.0):
        if sigma < SIGMA_MIN:
            raise ValueError(f"sigma must be at least {SIGMA_MIN}")
        self.intercept = float(intercept)
        self.slope = float(slope)
        self.sigma = float(sigma)
        self.bound = 1.0 / (self.sigma * math.sqrt(2.0 * math.pi))

    def mean(self, u) -> float:
        return self.intercept + self.slope * (0.0 if u is None else float(u))

    def density(self, x: float, u) -> float:
        z = (x - self.mean(u)) / self.sigma
        return self.bound * math.exp(-0.5 * z * z)

    def log_density(self, x: float, u) -> float:
        z = (x - self.mean(u)) / self.sigma
        return math.log(self.bound) - 0.5 * z * z

    def sample(self, u, rng: random.Random) -> float:
        return rng.gauss(self.mean(u), self.sigma)

    def __repr__(self) -> str:
        return f"gauss(m={self.intercept}+{self.slope}u, sigma={self.sigma})"


class PiecewiseConstantDensity(BoundedDensityModel):
    """Density constant on consecutive intervals; input-independent.

    ``breaks`` are the n+1 interval endpoints, ``values`` the n levels,
    both held as exact Fractions (floats convert exactly).  Total mass
    must be exactly 1 (checked on construction).
    """

    def __init__(self, breaks: Sequence, values: Sequence):
        if len(breaks) != len(values) + 1:
            raise ValueError("need one more breakpoint than level")
        self.breaks = tuple(Fraction(b) for b in breaks)
        self.values = tuple(Fraction(v) for v in values)
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("density levels must be nonnegative")
        mass = sum(
            v * (c - b) for v, b, c in zip(self.values, self.breaks, self.breaks[1:])
        )
        if mass != 1:
            raise ValueError(f"total mass {mass} != 1")
        self.bound = max(self.values)

    def level(self, x) -> Fraction:
        """The exact density on the piece [lo, hi) holding x; 0 outside."""
        i = bisect_right(self.breaks, x) - 1
        return self.values[i] if 0 <= i < len(self.values) else Fraction(0)

    def density(self, x: float, u=None) -> float:
        return float(self.level(x))

    def __repr__(self) -> str:
        return f"piecewise({','.join(str(b) for b in self.breaks)})"


def regression_map(
    models: Sequence[BoundedDensityModel],
    weights: Sequence[Fraction],
    inputs,
    xs: Sequence[float],
) -> int:
    """argmax of w * product of densities, computed in the log domain.

    Densities routinely exceed 1, so there is no exact-rational path
    here; ties (exact float ties) fall back to largest weight, then
    lowest index.
    """
    weights = ConditionalClass(models, weights).weights
    if len(inputs) != len(xs):
        raise ValueError("inputs and observations must be aligned")
    scores = []
    for m, w in zip(models, weights):
        s = math.log(float(w))
        for u, x in zip(inputs, xs):
            s += m.log_density(x, u)
            if s == -math.inf:
                break
        scores.append(s)
    index, _ = LARGEST_WEIGHT.select(scores, weights, len(xs))
    if scores[index] == -math.inf:
        raise DegenerateLikelihoodError("all joint densities are zero")
    return index


# ----------------------------------------------------------------------
# Distances between densities
# ----------------------------------------------------------------------


def gaussian_hellinger(m1: float, s1: float, m2: float, s2: float) -> float:
    """Closed form 2 - 2 * BC for two Gaussians (Bhattacharyya coefficient)."""
    bc = math.sqrt(2.0 * s1 * s2 / (s1 * s1 + s2 * s2)) * math.exp(
        -((m1 - m2) ** 2) / (4.0 * (s1 * s1 + s2 * s2))
    )
    return 2.0 - 2.0 * bc


def model_hellinger(f: BoundedDensityModel, g: BoundedDensityModel, u=None) -> float:
    """Hellinger distance between two Gaussian models at one input.

    Closed form only; piecewise-constant pairs have the exact
    ``piecewise_hellinger``, and other pairs raise TypeError.
    """
    if not (isinstance(f, GaussianModel) and isinstance(g, GaussianModel)):
        raise TypeError(f"no closed-form Hellinger distance for {f!r} and {g!r}")
    return gaussian_hellinger(f.mean(u), f.sigma, g.mean(u), g.sigma)


def _pieces(
    f: PiecewiseConstantDensity, g: PiecewiseConstantDensity
) -> Iterator[Tuple[Fraction, Fraction, Fraction]]:
    """(width, f level, g level) on each interval between merged breakpoints."""
    cuts = sorted(set(f.breaks) | set(g.breaks))
    for lo, hi in zip(cuts, cuts[1:]):
        yield hi - lo, f.level(lo), g.level(lo)


def piecewise_square(f: PiecewiseConstantDensity, g: PiecewiseConstantDensity) -> Fraction:
    """integral (f - g)^2, exactly."""
    return sum(((a - b) ** 2 * w for w, a, b in _pieces(f, g)), Fraction(0))


def piecewise_hellinger(
    f: PiecewiseConstantDensity, g: PiecewiseConstantDensity
) -> FracInterval:
    """Certified enclosure of integral (sqrt f - sqrt g)^2."""
    return sum(
        (hellinger_term(a, b) * w for w, a, b in _pieces(f, g)), ZERO_INTERVAL
    ).outward()


def piecewise_kl(
    f: PiecewiseConstantDensity, g: PiecewiseConstantDensity
) -> Union[FracInterval, float]:
    """Certified enclosure of integral f ln(f/g), or math.inf."""
    total = ZERO_INTERVAL
    for w, a, b in _pieces(f, g):
        term = kl_term(a, b)
        if term == math.inf:
            return math.inf
        total = total + term * w
    return total.outward()


def footnote_densities(n: int) -> Tuple[PiecewiseConstantDensity, PiecewiseConstantDensity]:
    """The mirrored two-level pair: levels n/3 and 2n/3 on [-1/n, 0) and [0, 1/n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    breaks = [Fraction(-1, n), 0, Fraction(1, n)]
    low, high = Fraction(n, 3), 2 * Fraction(n, 3)
    return (
        PiecewiseConstantDensity(breaks, [low, high]),
        PiecewiseConstantDensity(breaks, [high, low]),
    )


def footnote_density_demo(n: int) -> Tuple[float, float]:
    """(square distance, KL) of the mirrored two-level density pair.

    f places density n/3 on [-1/n, 0) and 2n/3 on [0, 1/n); its mirror
    swaps the levels.  The square distance is exactly 2n/9 while the
    relative entropy stays at ln(2)/3: squared error is useless as a
    density gauge, which is why regression uses Hellinger distance.
    The exact values are ``piecewise_square`` and ``piecewise_kl`` of
    ``footnote_densities(n)``; this returns their floats.
    """
    f, g = footnote_densities(n)
    return float(piecewise_square(f, g)), piecewise_kl(f, g).midpoint_float()


# ----------------------------------------------------------------------
# Monte-Carlo regression ledger
# ----------------------------------------------------------------------


@dataclass
class RegressionHellingerSummary:
    mean: float
    stderr: float
    bound: float
    samples: int
    horizon: int

    @property
    def within_bound(self) -> bool:
        return self.mean <= self.bound + 3.0 * self.stderr


def monte_carlo_regression_hellinger(
    models: Sequence[GaussianModel],
    weights: Sequence[Fraction],
    true_index: int,
    inputs,
    samples: int,
    seed: int,
) -> RegressionHellingerSummary:
    """Estimate the cumulative Hellinger ledger of static selection.

    Draws data from the true Gaussian along the input sequence, reselects
    the maximizer at every step, and accumulates the closed-form
    Hellinger distance between the true and selected densities; the
    static budget is 21 / w_mu.
    """
    check_samples(samples)
    weights = ConditionalClass(models, weights, true_index).weights
    inputs = list(inputs)
    true = models[true_index]
    log_w = [math.log(float(w)) for w in weights]
    totals = []
    for i in range(samples):
        rng = derived_rng(seed, i)
        scores = list(log_w)
        total = 0.0
        for u in inputs:
            chosen, _ = LARGEST_WEIGHT.select(scores, weights, 0)
            total += gaussian_hellinger(
                true.mean(u), true.sigma, models[chosen].mean(u), models[chosen].sigma
            )
            x = true.sample(u, rng)
            for j, m in enumerate(models):
                scores[j] += m.log_density(x, u)
        totals.append(total)
    mean, stderr = mean_stderr(totals)
    return RegressionHellingerSummary(
        mean=mean,
        stderr=stderr,
        bound=21.0 / float(weights[true_index]),
        samples=samples,
        horizon=len(inputs),
    )
