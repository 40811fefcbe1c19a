"""Bayes-optimal actions under bounded losses, and the regret bounds.

Binary alphabet throughout.  A predictor with belief phi = phi(1|x) acts

    action(phi) = argmin over a~ of (1-phi) * loss(0, a~) + phi * loss(1, a~)

with exact ties resolved toward action 0 (recorded choice).  For the true
distribution mu with per-step expected losses l_t, the regret of a
phi-predictor obeys, step by step and cumulatively,

    delta_t   <= 2 h_t + 2 sqrt(2 h_t l_t-of-mu)
    Delta_1:n <= 2 H_1:n + 2 sqrt(2 H_1:n L-of-mu)

where h is the binary Hellinger distance between the scalar beliefs
(mu(1|x) against phi(1|x), each paired with its complement -- the form
the decision layer actually consumes).  The chain to the class bounds
yields, for each MDL predictor with corollary constant c in {2,8,21,32},

    L-of-phi <= L-of-mu + 2 sqrt(2 c L-of-mu / w_mu) + 2 c / w_mu.

The instantaneous reduction rests on two scalar facts checked here
numerically: the special-function inequality on the unit square, and the
super-additivity of (H, L) -> sqrt(H * L).

Actions are decided on integers.  A loss keeps each table it validates in
integer form, entries L_xa over their common denominator D, and a belief
num/den takes action 1 exactly when

    (den - num)(L00 - L01) + num (L10 - L11) > 0,

so an exact tie goes to action 0.  At each node of an exact walk the
mu-expected loss of each action taken is one Fraction over b0 b1 D
(b_x the denominators of mu(x|.)), shared by every kind, and the truth,
that takes that action.  A kind whose step loss equals the truth's has
delta = 0, and 0 <= 2h + 2 sqrt(2 h l) since both terms are nonnegative,
so its instantaneous check takes no square root; so does a belief equal
to mu(1), whose Hellinger term is 0.  Each distinct belief's Hellinger
term is formed once per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, Union

from .enclosure import FracInterval, ZERO_INTERVAL, hellinger_term, sqrt_interval
from .errors import LossFunctionError
from .measures import Word
from .metrics import (
    COROLLARY_CONSTANTS,
    DEFAULT_NODE_GUARD,
    BoundReport,
    mean_stderr,
    prefix_key,
    sampled_rows,
    walk_support,
)
from .model_class import LARGEST_WEIGHT, TieBreak, WeightedClass
from .predictors import PredictionNode

Belief = Union[Fraction, float]


class LossFunction:
    """Bounded, possibly history-dependent binary loss.

    ``table`` maps history to a dict {(outcome, action): loss in [0, 1]}
    via a callable; stationary losses ignore the history.  Construction
    rejects tables whose shifted form loss(x, a) - loss(x, x) leaves
    [0, 1]: a correct prediction may never cost more than a wrong one.

    ``history_key`` maps a history to what the rule reads of it, so
    histories with equal keys get equal tables; exact tree walks merge
    on it, and a non-stationary table is validated, and its integer
    :meth:`form` made, once per key (on every read when the key is the
    whole history).  It defaults to a constant for stationary losses and
    to the history itself otherwise.
    """

    def __init__(
        self,
        rule: Callable[[Word], dict],
        stationary: bool,
        name: str = "loss",
        history_key: Optional[Callable[[Word], Hashable]] = None,
    ):
        self._rule = rule
        self.stationary = stationary
        self.name = name
        if history_key is None:
            history_key = _constant_key if stationary else prefix_key
        self.history_key = history_key
        self._validated_keys: dict = {}  # validated history key -> its integer form
        if stationary:
            self._stationary_form = _integer_form(self._validate(self.table(())))

    @staticmethod
    def _validate(table: dict) -> dict:
        for x in (0, 1):
            for a in (0, 1):
                value = table[(x, a)]
                if not 0 <= value <= 1:
                    raise LossFunctionError(f"loss{(x, a)}={value} outside [0,1]")
        for x in (0, 1):
            if table[(x, 1 - x)] < table[(x, x)]:
                raise LossFunctionError(
                    "shifted loss leaves [0,1]: correct prediction costs "
                    f"more than the wrong one for outcome {x}"
                )
        return table

    def table(self, history: Word) -> dict:
        table = self._rule(history)
        if not self.stationary:
            self.form(history, table)
        return table

    def form(self, history: Word, table: Optional[dict] = None) -> tuple:
        """The table at ``history`` as integers (L00, L01, L10, L11, D):
        loss(x, a) = L[2x + a] / D over the common denominator D.

        Made where the table is validated: once for a stationary loss,
        once per history key otherwise, and on every read for a
        whole-history key.
        """
        if self.stationary:
            return self._stationary_form
        key = self.history_key(history)
        form = self._validated_keys.get(key)
        if form is None:
            if table is None:
                table = self._rule(history)
            form = _integer_form(self._validate(table))
            # Whole-history keys are not kept: on sampled paths the
            # kept histories would hold samples * horizon^2 symbols.
            if self.history_key is not prefix_key:
                self._validated_keys[key] = form
        return form

    def __call__(self, history: Word, outcome: int, action: int) -> Fraction:
        return self.table(history)[(outcome, action)]

    def shifted(self) -> "LossFunction":
        """Zero loss for correct predictions; regret-equivalent form."""

        def rule(history: Word, _inner=self._rule):
            t = _inner(history)
            return {
                (x, a): t[(x, a)] - t[(x, x)] for x in (0, 1) for a in (0, 1)
            }

        return LossFunction(
            rule, self.stationary, name=f"{self.name}_shifted", history_key=self.history_key
        )

    def __repr__(self) -> str:
        return f"LossFunction({self.name})"


def _constant_key(history: Word) -> None:
    return None


def _ones_parity(history: Word) -> int:
    return sum(history) % 2


def zero_one_loss() -> LossFunction:
    return table_loss({(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, name="zero_one")


def table_loss(table: dict, name: str = "table") -> LossFunction:
    frozen = {k: Fraction(v) for k, v in table.items()}
    return LossFunction(lambda history: frozen, stationary=True, name=name)


def history_parity_loss(even: dict, odd: dict, name: str = "history_parity") -> LossFunction:
    """Non-stationary preset: the table depends on the parity of ones seen."""
    even_f = {k: Fraction(v) for k, v in even.items()}
    odd_f = {k: Fraction(v) for k, v in odd.items()}
    LossFunction._validate(even_f)
    LossFunction._validate(odd_f)

    def rule(history: Word):
        return even_f if _ones_parity(history) == 0 else odd_f

    return LossFunction(rule, stationary=False, name=name, history_key=_ones_parity)


def _integer_form(table: dict) -> tuple:
    entries = [Fraction(table[(x, a)]) for x in (0, 1) for a in (0, 1)]
    den = math.lcm(*(e.denominator for e in entries))
    return (*(e.numerator * (den // e.denominator) for e in entries), den)


def bayes_optimal_action(belief: Belief, loss: LossFunction, history: Word = ()) -> int:
    """Least expected loss under the belief; exact ties go to action 0."""
    return _optimal_action(Fraction(belief), loss.form(history))


def _optimal_action(belief: Fraction, form: tuple) -> int:
    """Action 0 iff (1-b)(L00-L01) + b(L10-L11) <= 0, decided on integers."""
    num, den = belief.numerator, belief.denominator
    l00, l01, l10, l11, _ = form
    return 0 if (den - num) * (l00 - l01) + num * (l10 - l11) <= 0 else 1


def _acted_losses(beliefs: Sequence[Fraction], mu_cond: list, form: tuple) -> list:
    """(action, its mu-expected loss) for an actor holding each belief in 1.

    The mu-expected loss of each action is one Fraction over b0 b1 D,
    built at most once however many beliefs choose that action.
    """
    m0, m1 = mu_cond
    n0, b0, n1, b1 = m0.numerator, m0.denominator, m1.numerator, m1.denominator
    expected: list = [None, None]
    out = []
    for belief in beliefs:
        a = _optimal_action(belief, form)
        value = expected[a]
        if value is None:
            value = expected[a] = Fraction(
                n0 * b1 * form[a] + n1 * b0 * form[2 + a], b0 * b1 * form[4]
            )
        out.append((a, value))
    return out


# ----------------------------------------------------------------------
# Exact decision traces
# ----------------------------------------------------------------------


@dataclass
class DecisionTrace:
    """Expected losses of a predictor's actions along the true process.

    Per-step arrays hold mu-expected values; ``hellinger`` carries the
    scalar-belief Hellinger distances entering the regret bounds.
    ``instantaneous_ok`` certifies delta_t <= 2h + 2 sqrt(2 h l_mu) at
    every positive-probability prefix, not merely in expectation.
    """

    predictor: str
    horizon: int
    loss_name: str
    l_phi: List[Fraction]
    l_mu: List[Fraction]
    hellinger: List[FracInterval]
    instantaneous_ok: bool

    def cumulative_phi(self, upto: Optional[int] = None) -> Fraction:
        return sum(self.l_phi[:upto], Fraction(0))

    def cumulative_mu(self, upto: Optional[int] = None) -> Fraction:
        return sum(self.l_mu[:upto], Fraction(0))

    def regret(self, upto: Optional[int] = None) -> Fraction:
        return self.cumulative_phi(upto) - self.cumulative_mu(upto)

    def cumulative_hellinger(self, upto: Optional[int] = None) -> FracInterval:
        total = ZERO_INTERVAL
        for h in self.hellinger[:upto]:
            total = total + h
        return total

    def cumulative_bound_ok(self) -> bool:
        """Delta_{1:n} <= 2 H + 2 sqrt(2 H L_mu), certified from below."""
        return _regret_ineq_certified(
            self.regret(), self.cumulative_hellinger(), self.cumulative_mu()
        )


def _belief_hellinger(mu1: Fraction, phi1: Fraction) -> FracInterval:
    return hellinger_term(mu1, phi1) + hellinger_term(1 - mu1, 1 - phi1)


SQRT_BITS = 64
SQRT_BITS_CAP = 1024


def _escalating(verdict_at: Callable[[int], object], what: str):
    """The first conclusive ``verdict_at(bits)``, doubling the sqrt bits.

    ``verdict_at`` returns None when its square-root enclosures at ``bits``
    extra bits cannot decide; it is retried at 64, 128, ... up to
    SQRT_BITS_CAP bits, past which the comparison raises RuntimeError.
    """
    bits = SQRT_BITS
    while bits <= SQRT_BITS_CAP:
        verdict = verdict_at(bits)
        if verdict is not None:
            return verdict
        bits *= 2
    raise RuntimeError(f"{what} inconclusive at {SQRT_BITS_CAP} extra sqrt bits")


def _regret_ineq_certified(delta: Fraction, h: FracInterval, l_mu: Fraction) -> bool:
    """Certify delta <= 2h + 2 sqrt(2 h l_mu) for true (unknown) h in [h.lo, h.hi]."""
    h_lo, h_hi = h.lo, h.hi

    def verdict_at(bits: int) -> Optional[bool]:
        if delta <= 2 * h_lo + 2 * sqrt_interval(2 * h_lo * l_mu, bits).lo:
            return True
        if delta > 2 * h_hi + 2 * sqrt_interval(2 * h_hi * l_mu, bits).hi:
            return False
        return None

    return _escalating(verdict_at, "instantaneous regret check")


def decision_traces(
    cls: WeightedClass,
    predictor_kinds: Sequence[str],
    loss: LossFunction,
    horizon: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
    guard: int = DEFAULT_NODE_GUARD,
) -> dict:
    """Exact decision traces for several predictors in one tree walk."""
    if cls.alphabet.size != 2:
        raise ValueError("the decision layer is binary-alphabet only")
    kinds = list(predictor_kinds)
    l_phi = {k: [Fraction(0)] * horizon for k in kinds}
    l_mu = [Fraction(0)] * horizon
    hell = {k: [ZERO_INTERVAL] * horizon for k in kinds}
    inst_ok = {k: True for k in kinds}

    def visit(node: PredictionNode):
        t = node.t
        w = node.weight
        form = loss.form(node.prefix)
        mu_cond = node.true_conditionals()
        mu1 = mu_cond[1]
        beliefs = [mu1] + [node.prediction(k)[1] for k in kinds]
        acted = _acted_losses(beliefs, mu_cond, form)
        step_mu = acted[0][1]
        weighted = {a: w * step for a, step in dict(acted).items()}  # per action taken
        l_mu[t] += weighted[acted[0][0]]
        terms = {}  # phi(1) -> its belief Hellinger term; none where phi(1) = mu(1)
        for k, phi1, (a, step_phi) in zip(kinds, beliefs[1:], acted[1:]):
            l_phi[k][t] += weighted[a]
            if phi1 == mu1:
                continue  # h = 0, the same action, delta = 0
            h = terms.get(phi1)
            if h is None:
                h = terms[phi1] = _belief_hellinger(mu1, phi1)
            hell[k][t] = hell[k][t] + w * h
            # delta = 0 <= 2h + 2 sqrt(2 h l_mu) needs no square root.
            if inst_ok[k] and step_phi != step_mu:
                inst_ok[k] = _regret_ineq_certified(step_phi - step_mu, h, step_mu)

    walk_support(cls, horizon, visit, tie_break, guard, history_key=loss.history_key)
    return {
        k: DecisionTrace(
            predictor=k,
            horizon=horizon,
            loss_name=loss.name,
            l_phi=l_phi[k],
            l_mu=l_mu,
            hellinger=[h.outward() for h in hell[k]],
            instantaneous_ok=inst_ok[k],
        )
        for k in kinds
    }


def decision_trace(
    cls: WeightedClass,
    predictor_kind: str,
    loss: LossFunction,
    horizon: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
    guard: int = DEFAULT_NODE_GUARD,
) -> DecisionTrace:
    return decision_traces(cls, [predictor_kind], loss, horizon, tie_break, guard)[
        predictor_kind
    ]


@dataclass
class MonteCarloDecisionTrace:
    """Sampled-path estimate of the expected-loss ledgers.

    ``l_phi`` / ``l_mu`` are per-step means over sampled paths with
    standard errors; ``sample_actions`` records the action sequence taken
    on the first sampled path (actions are per-history, so only sampled
    paths have a single action sequence to show).
    """

    predictor: str
    horizon: int
    samples: int
    seed: int
    l_phi: List[float]
    l_mu: List[float]
    stderr_phi: List[float]
    stderr_mu: List[float]
    sample_actions: List[int]

    def regret(self) -> float:
        return sum(self.l_phi) - sum(self.l_mu)


def monte_carlo_decision_trace(
    cls: WeightedClass,
    predictor_kind: str,
    loss: LossFunction,
    horizon: int,
    samples: int,
    seed: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
    workers: int = 1,
) -> MonteCarloDecisionTrace:
    """Unbiased estimate of the decision ledgers from sampled paths.

    The paths come from :func:`~mdl_lab.metrics.sampled_rows`: the true,
    static and static_norm kinds read them off one MAP trace per path,
    every other kind steps a prediction node per step.
    """
    if cls.alphabet.size != 2:
        raise ValueError("the decision layer is binary-alphabet only")

    def row(x: Word, t: int, mu_cond, phi) -> Tuple[float, float, int]:
        (action, step_phi), (_, step_mu) = _acted_losses(
            (phi[1], mu_cond[1]), mu_cond, loss.form(x[:t])
        )
        return float(step_phi), float(step_mu), action

    paths = sampled_rows(cls, predictor_kind, horizon, samples, seed, row, tie_break, workers)
    steps = list(zip(*paths))
    phi = [mean_stderr([r[0] for r in step]) for step in steps]
    mu = [mean_stderr([r[1] for r in step]) for step in steps]
    return MonteCarloDecisionTrace(
        predictor=predictor_kind,
        horizon=horizon,
        samples=samples,
        seed=seed,
        l_phi=[mean for mean, _ in phi],
        l_mu=[mean for mean, _ in mu],
        stderr_phi=[se for _, se in phi],
        stderr_mu=[se for _, se in mu],
        sample_actions=[r[2] for r in paths[0]],
    )


def check_regret_bound(
    cls: WeightedClass,
    predictor_kind: str,
    loss: LossFunction,
    horizon: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
    trace: Optional[DecisionTrace] = None,
) -> BoundReport:
    """L_phi <= L_mu + 2 sqrt(2 c L_mu W) + 2 c W with the predictor's c."""
    c = COROLLARY_CONSTANTS[predictor_kind]
    if trace is None:
        trace = decision_trace(cls, predictor_kind, loss, horizon, tie_break)
    winv = 1 / cls.true_weight
    l_phi = trace.cumulative_phi()
    l_mu = trace.cumulative_mu()
    base = l_mu + 2 * c * winv
    radicand = 2 * c * l_mu * winv

    def verdict_at(bits: int) -> Optional[tuple]:
        root = sqrt_interval(radicand, bits)
        bound = FracInterval(base + 2 * root.lo, base + 2 * root.hi)
        if l_phi <= bound.lo:
            return True, bound
        if l_phi > bound.hi:
            return False, bound
        return None

    passed, bound = _escalating(verdict_at, "regret bound comparison")
    return BoundReport(
        predictor=predictor_kind,
        metric="expected_loss",
        bound_name=f"loss_theorem_{c}x",
        bound=bound,
        measured=FracInterval.exact(l_phi),
        passed=passed,
    )


# ----------------------------------------------------------------------
# Special functions and the unit-square inequality
# ----------------------------------------------------------------------


def special_functions(mu: Belief, phi: Belief) -> Tuple:
    """(delta~, ell~): normalized regret and worst-case true loss scalars.

    delta~ = |phi - mu| / max(phi, 1 - phi); ell~ dispatches on the four
    cases (mu vs phi) x (phi vs 1/2); boundary points agree across cases.
    Exact when called with Fractions.
    """
    one = mu - mu + 1  # 1 in the caller's arithmetic (Fraction or float)
    half = one / 2
    if not (0 <= mu <= 1 and 0 <= phi <= 1):
        raise ValueError("special_functions needs arguments in [0, 1]")
    delta = abs(phi - mu) / max(phi, one - phi)
    if mu <= phi:
        ell = mu if phi <= half else mu * (one - phi) / phi
    else:
        ell = (one - mu) if phi >= half else (one - mu) * phi / (one - phi)
    return delta, ell


def unit_square_inequality_scan(resolution: int = 2001) -> float:
    """Max of delta~ - 2h - 2 sqrt(2 h ell~) over an m x m grid of (mu, phi).

    The decisive scalar inequality behind the instantaneous regret bound;
    nonpositive within 1e-12 across the whole unit square.  Vectorized:
    the full 2001 x 2001 grid takes well under a second.
    """
    import numpy as np  # only this float scan needs numpy

    if resolution < 2:
        raise ValueError("need at least a 2x2 grid")
    grid = np.linspace(0.0, 1.0, resolution)
    mu, phi = np.meshgrid(grid, grid, indexing="ij")
    delta = np.abs(phi - mu) / np.maximum(phi, 1.0 - phi)
    ell = np.where(
        mu <= phi,
        np.where(phi <= 0.5, mu, mu * (1.0 - phi) / np.maximum(phi, 1e-300)),
        np.where(
            phi >= 0.5,
            1.0 - mu,
            (1.0 - mu) * phi / np.maximum(1.0 - phi, 1e-300),
        ),
    )
    h = (np.sqrt(mu) - np.sqrt(phi)) ** 2 + (np.sqrt(1.0 - mu) - np.sqrt(1.0 - phi)) ** 2
    violation = delta - 2.0 * h - 2.0 * np.sqrt(2.0 * h * ell)
    return float(np.max(violation))


def sqrt_product_superadditive(h1, l1, h2, l2) -> bool:
    """sqrt((h1+h2)(l1+l2)) >= sqrt(h1 l1) + sqrt(h2 l2), exactly.

    Squaring reduces the claim to h1*l2 + h2*l1 >= 2 sqrt(h1 l1 h2 l2),
    i.e. AM-GM; checked here by comparing squares in exact arithmetic.
    """
    h1, l1, h2, l2 = (Fraction(v) for v in (h1, l1, h2, l2))
    if min(h1, l1, h2, l2) < 0:
        raise ValueError("superadditivity is over nonnegative quadruples")
    lhs = (h1 + h2) * (l1 + l2)
    cross = h1 * l2 + h2 * l1
    # lhs - (sqrt(h1 l1) + sqrt(h2 l2))^2 = cross - 2 sqrt(h1 l1 h2 l2)
    return cross * cross >= 4 * h1 * l1 * h2 * l2
