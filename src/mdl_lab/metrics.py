"""Distances between true and predicted distributions, and bound checks.

The per-step distances between the true conditionals and a prediction are

* square:    s_t = sum_a (mu(a|x) - phi(a|x))^2
* Hellinger: h_t = sum_a (sqrt(mu(a|x)) - sqrt(phi(a|x)))^2
* KL:        d_t = sum_a mu(a|x) ln(mu(a|x)/phi(a|x)),  extended to +inf
* absolute:  a_t = sum_a |mu(a|x) - phi(a|x)|

applied verbatim to raw prediction entries (no implicit normalization;
the unnormalized variants are bounded as-is).  Cumulative ledgers take
expectations over the true measure by exact enumeration of the sequence
tree (:func:`walk_support`), pruning zero-probability subtrees, or by
seeded Monte Carlo, and :func:`mean_stderr` reduces the sampled columns.
The distance and decision ledgers sample their paths with
:func:`sampled_rows`.  The kinds that read only the MAP choice (true,
static, static_norm) draw each path with ``sample_path``; static and
static_norm read it off ``stabilization.sampled_trace``, the
``sample_path`` and ``map_trace`` pair that ``monte_carlo_stabilization``
also draws with, and true reads no choice.  Their rows read each member's
conditionals with ``measures.step_conditionals``, the reader the draws
use too.  Every other kind steps a
prediction node per step (:func:`monte_carlo_rows`).  All draw the same
paths.  (``monte_carlo_regression_hellinger`` draws its own samples.)
Both the walk and the sampled paths need a fully materialized class.

Exact ledgers hold square and absolute sums as exact rationals and
Hellinger and KL sums as certified rational enclosures, so every bound
comparison below is an exact statement, never a float one.  Monte-Carlo
ledgers are float estimates.

The bound table verified by :func:`check_bounds` against the inverse
prior weight W = 1/w_mu of the true model:

    mixture squared error         <= ln W
    normalized dynamic square/KL  <= W + ln W
    |ln sum_a rho(a|x)| summed    <= 2W     (dynamic, part i)
    |1 - sum_a rho(a|x)| summed   <= 2W     (dynamic, part ii)
    |1 - sum_a rho^x(a|x)| summed <= W      (static)
    square and Hellinger sums     <= {2, 8, 21, 32} * W
        for normalized dynamic / dynamic / static / normalized static.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from .enclosure import (
    ZERO_INTERVAL,
    FracInterval,
    hellinger_term,
    kl_term,
    ln_interval,
)
from .errors import SamplingError, TooLargeError
from .measures import (
    Word,
    _draw_exact,
    check_samples,
    derived_rng,
    ordered_parallel_map,
    sample_path,
    step_conditionals,
)
from .model_class import LARGEST_WEIGHT, TieBreak, WeightedClass
from .predictors import (
    ALL_KINDS,
    RHO,
    RHO_NORM,
    STATIC,
    STATIC_NORM,
    TRUE,
    XI,
    PredictionNode,
    _normalize_list,
)
from .stabilization import sampled_trace
from .values import EXACT, FLOAT, check_mode

DEFAULT_NODE_GUARD = 20_000_000

COROLLARY_CONSTANTS = {RHO_NORM: 2, RHO: 8, STATIC: 21, STATIC_NORM: 32}

METRICS = ("square", "hellinger", "kl", "absolute")

ExtendedInterval = Union[FracInterval, float]  # float only for math.inf


@dataclass(frozen=True)
class StepDistances:
    """Instantaneous distances of one prediction from the true conditionals."""

    square: Union[Fraction, float]
    hellinger: ExtendedInterval
    kl: ExtendedInterval
    absolute: Union[Fraction, float]


def step_distances(true_probs, predicted, mode: str = EXACT) -> StepDistances:
    """Distances between a true distribution and raw prediction entries."""
    check_mode(mode)
    if mode == EXACT:
        mu = [Fraction(p) for p in true_probs]
        phi = [Fraction(q) for q in predicted]
        return StepDistances(
            square=_sq_exact(mu, phi),
            hellinger=_hell_exact(mu, phi),
            kl=_kl_exact(mu, phi),
            absolute=_abs_exact(mu, phi),
        )
    mu_f = [float(p) for p in true_probs]
    phi_f = [float(q) for q in predicted]
    return StepDistances(
        square=sum((p - q) ** 2 for p, q in zip(mu_f, phi_f)),
        hellinger=sum((math.sqrt(p) - math.sqrt(q)) ** 2 for p, q in zip(mu_f, phi_f)),
        kl=_kl_float(mu_f, phi_f),
        absolute=sum(abs(p - q) for p, q in zip(mu_f, phi_f)),
    )


def _sq_exact(mu, phi) -> Fraction:
    return sum(((p - q) ** 2 for p, q in zip(mu, phi)), Fraction(0))


def _abs_exact(mu, phi) -> Fraction:
    return sum((abs(p - q) for p, q in zip(mu, phi)), Fraction(0))


def _hell_exact(mu, phi) -> FracInterval:
    total = ZERO_INTERVAL
    for p, q in zip(mu, phi):
        total = total + hellinger_term(p, q)
    return total


def _kl_exact(mu, phi) -> ExtendedInterval:
    total = ZERO_INTERVAL
    for p, q in zip(mu, phi):
        term = kl_term(p, q)
        if term == math.inf:
            return math.inf
        total = total + term
    return total


def _kl_float(mu, phi) -> float:
    total = 0.0
    for p, q in zip(mu, phi):
        if p == 0:
            continue
        if q == 0:
            return math.inf
        total += p * math.log(p / q)
    return total


def walk_support(
    cls: WeightedClass,
    horizon: int,
    visit: Callable[[PredictionNode], None],
    tie_break: TieBreak = LARGEST_WEIGHT,
    guard: int = DEFAULT_NODE_GUARD,
    history_key: Optional[Callable[[Word], Hashable]] = None,
) -> int:
    """Visit every state of positive true probability, level by level.

    Visits lengths 0 .. horizon-1 in increasing order (predictions at the
    visited prefix concern the next step).  Prefixes of one length merge
    into one node when every model cursor has the same ``state_key()``
    and ``history_key(prefix)`` agrees: such prefixes have equal
    predictions and identical subtrees.  The merged node carries the
    lexicographically first of its prefixes and, as ``weight``, the exact
    sum of their true-measure weights, so visits that accumulate linearly
    in the weight give exactly the sums of a prefix-by-prefix walk.

    ``history_key`` is for visits that read ``node.prefix``: the key of
    ``prefix + (a,)`` must depend only on the key of ``prefix`` and ``a``.
    The default merges regardless of history; :func:`prefix_key` never
    merges.  Memory is the widest lumped level.  Raises TooLargeError as
    soon as more than ``guard`` lumped nodes have been built; returns the
    number of nodes visited, 0 at horizon 0.
    """
    if cls.true_index is None:
        raise ValueError("walking the support needs a designated true model")
    _check_path_class(cls, horizon)
    if horizon == 0:
        return 0
    k = cls.alphabet.size
    level = [
        PredictionNode(cls, tie_break, (), [m.cursor() for m in cls.models], Fraction(1))
    ]
    nodes = 1
    depth = 0
    while True:
        for node in level:
            visit(node)
        depth += 1
        if depth >= horizon:
            return nodes
        merged: dict = {}
        for node in level:
            mu_cond = node.true_conditionals()
            for a in range(k):
                if mu_cond[a] == 0:
                    continue
                weight = node.weight * mu_cond[a]
                cursors = node.child_cursors[a]
                prefix = node.prefix + (a,)
                key = tuple(c.state_key() for c in cursors)
                if history_key is not None:
                    key += (history_key(prefix),)
                entry = merged.get(key)
                if entry is None:
                    nodes += 1
                    if nodes > guard:
                        raise TooLargeError(f"enumeration exceeded {guard} nodes")
                    merged[key] = [prefix, cursors, weight]
                else:
                    entry[2] += weight
        level = [
            PredictionNode(cls, tie_break, prefix, cursors, weight)
            for prefix, cursors, weight in merged.values()
        ]


def _check_path_class(cls: WeightedClass, horizon: int) -> None:
    """Refuse a walk or sampled paths over an open tail or a negative horizon.

    Predictions on a class with an unmaterialized tail may be refused at
    any node, so a ledger over one would leave them out.
    """
    if cls.tail_bound is not None:
        raise ValueError("ledgers need a fully materialized class")
    if horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {horizon}")


def prefix_key(prefix: Word) -> Word:
    """History key of a visit that reads the whole prefix."""
    return prefix


# ----------------------------------------------------------------------
# Cumulative ledgers
# ----------------------------------------------------------------------


@dataclass
class CumulativeLedger:
    """Per-step expected distances and their running sums."""

    horizon: int
    square: list
    hellinger: list
    kl: list
    absolute: list
    stderr: Optional[Dict[str, list]] = None

    def per_step(self, metric: str) -> list:
        return getattr(self, metric)

    def cumulative(self, metric: str, upto: Optional[int] = None):
        """S_{1:upto} (default the whole horizon); +inf once any term is."""
        sums = self.series(metric)[: upto if upto is not None else self.horizon]
        return sums[-1] if sums else Fraction(0)

    def series(self, metric: str) -> list:
        """Prefix sums S_{1:1}, S_{1:2}, ..., S_{1:n}."""
        out = []
        running = None
        for term in self.per_step(metric):
            running = term if running is None else add_extended(running, term)
            out.append(running)
        return out


def _outward(x: ExtendedInterval) -> ExtendedInterval:
    """An enclosure rounded outward onto the grid once its walk is done; inf stays."""
    return x if x == math.inf else x.outward()


def add_extended(a, b):
    if a == math.inf or b == math.inf:
        return math.inf
    return a + b


def cumulative_distances(
    cls: WeightedClass,
    kind: str,
    horizon: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
    guard: int = DEFAULT_NODE_GUARD,
) -> CumulativeLedger:
    """Exact expected per-step distance ledgers against the true conditionals.

    ``kind`` names one of the predictors of :data:`ALL_KINDS`; each lumped
    node of the walk reads that prediction.
    """
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown predictor kind {kind!r}")
    sq = [Fraction(0)] * horizon
    he = [ZERO_INTERVAL] * horizon
    kl: list = [ZERO_INTERVAL] * horizon
    ab = [Fraction(0)] * horizon

    def visit(node: PredictionNode):
        t = node.t
        d = step_distances(node.true_conditionals(), node.prediction(kind))
        w = node.weight
        sq[t] = sq[t] + w * d.square
        he[t] = he[t] + w * d.hellinger
        kl[t] = add_extended(kl[t], math.inf if d.kl == math.inf else w * d.kl)
        ab[t] = ab[t] + w * d.absolute

    walk_support(cls, horizon, visit, tie_break, guard)
    he = [h.outward() for h in he]
    kl = [_outward(d) for d in kl]
    return CumulativeLedger(horizon, sq, he, kl, ab)


def monte_carlo_rows(
    cls: WeightedClass,
    horizon: int,
    samples: int,
    seed: int,
    row: Callable[[PredictionNode, list], object],
    tie_break: TieBreak = LARGEST_WEIGHT,
    workers: int = 1,
) -> List[list]:
    """Per-step rows along ``samples`` paths drawn from the true model.

    Path i starts at the root node and records ``row(node, mu_cond)`` at
    each of ``horizon`` steps; between rows it draws the next symbol from
    the true conditionals ``mu_cond`` with ``derived_rng(seed, i)`` and
    steps to that child node.  A true model that is not a proper measure
    is refused before any path, and one of mass 0 at the first step.  The
    per-path row lists come back in index order, so the result is
    identical for any worker count.
    """
    _check_sampled_paths(cls, horizon, samples)

    def one_path(i: int) -> list:
        rng = derived_rng(seed, i)
        node = PredictionNode(
            cls, tie_break, (), [m.cursor() for m in cls.models], Fraction(1)
        )
        rows = []
        for t in range(horizon):
            if t:
                node = node.child_node(_draw_exact(mu_cond, rng))
            elif not node.cursors[cls.true_index].value:
                raise SamplingError("cannot sample beyond a zero-probability prefix")
            mu_cond = node.true_conditionals()
            rows.append(row(node, mu_cond))
        return rows

    return ordered_parallel_map(one_path, range(samples), workers)


def _check_sampled_paths(cls: WeightedClass, horizon: int, samples: int) -> None:
    """Refuse a sampled run before any path: fewer than one sample, an open
    tail, a negative horizon, or a true model that is not a proper measure."""
    check_samples(samples)
    _check_path_class(cls, horizon)
    if not cls.true_model.is_proper_measure:
        raise SamplingError("sampling requires a proper measure")


# Kinds whose prediction depends on the history only through its MAP choice.
CHOICE_KINDS = (TRUE, STATIC, STATIC_NORM)


def sampled_rows(
    cls: WeightedClass,
    kind: str,
    horizon: int,
    samples: int,
    seed: int,
    row: Callable[[Word, int, Sequence, Sequence], object],
    tie_break: TieBreak = LARGEST_WEIGHT,
    workers: int = 1,
) -> List[list]:
    """Per-step rows ``row(x, t, mu_cond, phi)`` along sampled paths.

    At step t of path i, ``x[:t]`` is the history, ``mu_cond`` the true
    conditionals there and ``phi`` the prediction of ``kind``.  The kinds
    of :data:`CHOICE_KINDS` draw path i with ``sample_path`` from
    ``derived_rng(seed, i)``: the word :func:`monte_carlo_rows` draws for
    path i, since both draw from the true conditionals with that stream.
    ``static`` and ``static_norm`` read it off
    ``sampled_trace(cls, horizon - 1, seed, i, tie_break)``, which adds the
    MAP index a node's tie-break selects at every prefix; ``true`` reads no
    choice and runs no trace.  The prediction is the chosen member's
    conditionals (:func:`~mdl_lab.measures.step_conditionals`, one
    reader per member read), normalized for ``static_norm``, or the true
    ones for ``true``: the Fractions a node gives, read without building
    one.  Every other kind steps a prediction node per step
    (:func:`monte_carlo_rows`).  So both give equal rows, refusals and
    error types, and the result is identical for any worker count.
    """
    if kind not in CHOICE_KINDS:

        def node_row(node: PredictionNode, mu_cond: list):
            return row(node.prefix, node.t, mu_cond, node.prediction(kind))

        return monte_carlo_rows(cls, horizon, samples, seed, node_row, tie_break, workers)
    _check_sampled_paths(cls, horizon, samples)
    true = cls.true_index
    length = max(horizon - 1, 0)

    def one_path(i: int) -> list:
        if kind == TRUE:  # the prediction is the truth's at every step
            word = sample_path(cls.true_model, length, derived_rng(seed, i))
            indices = [true] * horizon
        else:
            word, trace = sampled_trace(cls, length, seed, i, tie_break)
            indices = trace.indices
        readers = {j: step_conditionals(cls.models[j], word) for j in {true, *indices}}
        read_true = readers[true]
        rows = []
        for t in range(horizon):
            mu = read_true(t)
            j = indices[t]
            phi = mu if j == true else readers[j](t)
            if kind == STATIC_NORM:
                phi = _normalize_list(phi)
            rows.append(row(word, t, mu, phi))
        return rows

    return ordered_parallel_map(one_path, range(samples), workers)


def mean_stderr(column: Sequence[float]) -> Tuple[float, float]:
    """Sample mean of a column and the standard error of that mean.

    The mean is summed left to right in index order (``sum`` of floats is
    compensated from Python 3.12 on, which would move the last bit).  The
    stderr is sqrt(sum((v - mean)^2) / (n - 1) / n), the two-pass form
    that does not cancel catastrophically (Chan, Golub & LeVeque, 1983).
    A column holding inf gives (inf, inf).  A column of equal values,
    n = 1 included, has stderr 0.0: its summed mean can miss the common
    value by an ulp, which the deviations would turn into a spurious stderr.
    An empty column has no mean and is refused.
    """
    if not column:
        raise ValueError("an empty column has no mean")
    total = 0.0
    for v in column:
        total += v
    n = len(column)
    mean = total / n
    if mean == math.inf:
        return math.inf, math.inf
    if all(v == column[0] for v in column):
        return mean, 0.0
    squares = 0.0
    for v in column:
        squares += (v - mean) ** 2
    return mean, math.sqrt(squares / (n - 1) / n)


def monte_carlo_distances(
    cls: WeightedClass,
    predictor_kind: str,
    horizon: int,
    samples: int,
    seed: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
    workers: int = 1,
) -> CumulativeLedger:
    """Unbiased float estimates of the distance ledgers from sampled paths.

    The paths come from :func:`sampled_rows`: the kinds of
    :data:`CHOICE_KINDS` (true, static, static_norm) read them off one
    sampled path (and MAP trace) each, every other kind steps a prediction
    node per step.  A step at which every path's row is the object of the
    step before reuses that step's means and stderrs.  The result is
    identical for any worker count.
    """
    last = None  # (mu, phi, their distances): runs of steps repeat a pair

    def row(x: Word, t: int, mu_cond: Sequence, phi: Sequence) -> StepDistances:
        nonlocal last
        hit = last
        if hit is None or hit[0] is not mu_cond or hit[1] is not phi:
            hit = last = (mu_cond, phi, step_distances(mu_cond, phi, FLOAT))
        return hit[2]

    paths = sampled_rows(cls, predictor_kind, horizon, samples, seed, row, tie_break, workers)
    stats = {name: [] for name in METRICS}
    previous = None
    for step in zip(*paths):
        fresh = previous is None or any(d is not e for d, e in zip(step, previous))
        for name in METRICS:
            column = stats[name]
            column.append(mean_stderr([getattr(d, name) for d in step]) if fresh else column[-1])
        previous = step
    return CumulativeLedger(
        horizon,
        *([mean for mean, _ in stats[name]] for name in METRICS),
        stderr={name: [se for _, se in stats[name]] for name in METRICS},
    )


# ----------------------------------------------------------------------
# Bound verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One verified bound: measured partial sum against its budget."""

    predictor: str
    metric: str
    bound_name: str
    bound: FracInterval
    measured: ExtendedInterval
    passed: bool

    @property
    def slack(self):
        """Certified lower bound on bound - measured (-inf when measured is)."""
        if self.measured == math.inf:
            return -math.inf
        return self.bound.lo - self.measured.hi

    def render(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (
            f"{self.bound_name:22s} {self.predictor:11s} {self.metric:14s} "
            f"measured={to_float(self.measured):.6g} bound={to_float(self.bound):.6g} [{state}]"
        )


def to_float(x) -> float:
    """Float rendering of a ledger value: enclosures give their midpoint."""
    if x == math.inf:
        return math.inf
    if isinstance(x, FracInterval):
        return x.midpoint_float()
    return float(x)


def _as_interval(x) -> ExtendedInterval:
    if x == math.inf:
        return math.inf
    if isinstance(x, FracInterval):
        return x
    return FracInterval.exact(x)


def _certified_le(measured: ExtendedInterval, bound: FracInterval) -> bool:
    if measured == math.inf:
        return False
    if measured.hi <= bound.lo:
        return True
    if measured.lo > bound.hi:
        return False
    raise RuntimeError(
        f"bound comparison inconclusive: measured in [{measured.lo}, {measured.hi}], "
        f"bound in [{bound.lo}, {bound.hi}]; raise enclosure precision"
    )


def inverse_weight(cls: WeightedClass) -> Fraction:
    """W = 1/w_mu, the factor scaling every MDL bound."""
    return 1 / cls.true_weight


def check_bounds(
    cls: WeightedClass,
    horizon: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
    guard: int = DEFAULT_NODE_GUARD,
) -> List[BoundReport]:
    """Verify every convergence bound at the given horizon, exactly.

    Finite partial sums are valid checks because each bound holds
    uniformly in the horizon.  Requires a fully materialized class.
    """
    winv = inverse_weight(cls)
    k = cls.alphabet.size

    sq = {kind: Fraction(0) for kind in (XI, RHO_NORM, RHO, STATIC, STATIC_NORM)}
    hell = {kind: ZERO_INTERVAL for kind in (RHO_NORM, RHO, STATIC, STATIC_NORM)}
    kl_rho_norm: ExtendedInterval = ZERO_INTERVAL
    abs_log_sum: ExtendedInterval = ZERO_INTERVAL
    one_minus_rho = Fraction(0)
    one_minus_static = Fraction(0)

    def visit(node: PredictionNode):
        nonlocal kl_rho_norm, abs_log_sum, one_minus_rho, one_minus_static
        w = node.weight
        mu_cond = node.true_conditionals()
        for kind in sq:
            phi = node.prediction(kind)
            sq[kind] += w * _sq_exact(mu_cond, phi)
            if kind in hell:
                hell[kind] = hell[kind] + w * _hell_exact(mu_cond, phi)
        d = _kl_exact(mu_cond, node.prediction(RHO_NORM))
        kl_rho_norm = (
            math.inf
            if (d == math.inf or kl_rho_norm == math.inf)
            else kl_rho_norm + w * d
        )
        rho_sum = sum(node.prediction(RHO))
        one_minus_rho += w * abs(1 - rho_sum)
        if abs_log_sum != math.inf:
            if rho_sum == 0:
                abs_log_sum = math.inf
            else:
                abs_log_sum = abs_log_sum + w * abs(ln_interval(rho_sum))
        one_minus_static += w * abs(1 - sum(node.prediction(STATIC)))

    walk_support(cls, horizon, visit, tie_break, guard)
    hell = {kind: h.outward() for kind, h in hell.items()}
    kl_rho_norm = _outward(kl_rho_norm)
    abs_log_sum = _outward(abs_log_sum)

    ln_winv = ln_interval(winv) if winv != 1 else ZERO_INTERVAL
    w_plus_ln = FracInterval.exact(winv) + ln_winv
    reports = [
        _report("mixture_square", XI, "square", sq[XI], ln_winv),
        _report("dynamic_norm_square", RHO_NORM, "square", sq[RHO_NORM], w_plus_ln),
        _report("dynamic_norm_kl", RHO_NORM, "kl", kl_rho_norm, w_plus_ln),
        _report(
            "dynamic_log_sum", RHO, "abs_log_sum", abs_log_sum,
            FracInterval.exact(2 * winv),
        ),
        _report(
            "dynamic_sum_defect", RHO, "one_minus_sum", one_minus_rho,
            FracInterval.exact(2 * winv),
        ),
        _report(
            "static_sum_defect", STATIC, "one_minus_sum", one_minus_static,
            FracInterval.exact(winv),
        ),
    ]
    for kind, c in COROLLARY_CONSTANTS.items():
        budget = FracInterval.exact(c * winv)
        reports.append(_report(f"summary_square_{c}x", kind, "square", sq[kind], budget))
        reports.append(
            _report(f"summary_hellinger_{c}x", kind, "hellinger", hell[kind], budget)
        )
    return reports


def _report(name: str, kind: str, metric: str, measured, bound: FracInterval) -> BoundReport:
    measured_iv = _as_interval(measured)
    return BoundReport(
        predictor=kind,
        metric=metric,
        bound_name=name,
        bound=bound,
        measured=measured_iv,
        passed=_certified_le(measured_iv, bound),
    )
