"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of items built from ``--seed``.  An item is
one closed-loop operation: a single call (or a short fixed sequence of
calls) into the library's public functions, followed by the checks in
``checks``.  The timed loop repeats the item list in rounds.

Inputs are stratified so that the cost of a round barely depends on the
seed: the seed picks *which* classes, losses and paths are used, while the
mix (support size, class size, dead or alive martingale paths) is fixed.

The library is always called through module attributes (``metrics.x(...)``,
never a name imported from it), so that the traced run can rebind those
attributes and record spans from the benchmark's side only.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from mdl_lab import (
    coding,
    decisions,
    measures,
    metrics,
    model_class,
    predictors,
    stabilization,
    suites,
)

from checks import Canon

WORKLOADS = ("exact_walk", "long_paths", "point_queries")

BOUND_HORIZON = 10
LOSS_HORIZON = 8
LEDGER_HORIZON = 14
LEDGER_EXTRA_MODELS = 6
PATH_HORIZON = 2000
PATH_WINDOW = 500
MC_LEDGER_HORIZON = 1000
CODE_MAX_LEN = 24
QUERY_WORD_LEN = 8  # criterion-03 style: all words shorter than this
EXAMPLE3_HORIZON = 100

MDL_KINDS = (predictors.RHO_NORM, predictors.RHO, predictors.STATIC, predictors.STATIC_NORM)

# Part name -> the traced run's per-layer rate for it: the part's item
# units (classes, pairs, ledgers, paths, calls, round trips) per second.
PART_RATES = {
    "bounds": "part.bound_classes_per_s",
    "loss_pairs": "part.loss_pairs_per_s",
    "deep_ledger": "part.deep_ledgers_per_s",
    "bernoulli": "part.bernoulli_paths_per_s",
    "martingale": "part.martingale_paths_per_s",
    "parallel": "part.parallel_paths_per_s",
    "mc_ledger": "part.mc_ledger_paths_per_s",
    "functional": "part.functional_queries_per_s",
    "codes": "part.codes_per_s",
}


@dataclass
class Item:
    """One benchmark operation and the way its output is checked."""

    id: str
    part: str
    run: Callable[[], object]
    canon: Callable[[object], Canon]
    units: int = 1
    same_as: Optional[str] = None  # exact outputs must equal this item's
    all_cpus: bool = False  # runs worker threads: never pinned to one CPU


def workers_knob() -> int:
    """Worker count for the parallel part: min(2, nproc), never above nproc."""
    return max(1, min(2, os.cpu_count() or 1))


def build(workload: str, seed: int, small: bool = False) -> List[Item]:
    if workload == "exact_walk":
        items = _exact_walk(seed)
    elif workload == "long_paths":
        items = _long_paths(seed)
    elif workload == "point_queries":
        items = _point_queries(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if small:
        items = _first_per_part(items)
    return items


def _first_per_part(items: List[Item]) -> List[Item]:
    seen = set()
    out = []
    for it in items:
        if it.part not in seen:
            seen.add(it.part)
            out.append(it)
    return out


# ----------------------------------------------------------------------
# Stratified selection helpers
# ----------------------------------------------------------------------


def _full_support(model, horizon: int) -> bool:
    """True when every prefix up to ``horizon`` has positive probability."""
    for i in range(horizon):
        dist = model.step_distribution(i)
        if dist is None or any(p <= 0 for p in dist):
            return False
    return True


def family(model) -> str:
    if isinstance(model, measures.LeakySemimeasure):
        return "leaky-" + family(model.base)
    if isinstance(model, measures.IidModel):
        return "iid"
    if isinstance(model, measures.DeterministicModel):
        return "det"
    if isinstance(model, measures.FactorizableModel):
        return "fact"
    return type(model).__name__


def composition(cls) -> tuple:
    """The class's model families, sorted: what a query's cost depends on."""
    return tuple(sorted(family(m) for m in cls.models))


def walk_stratum(horizon: int):
    """Key of a class for a tree walk to ``horizon``: a deterministic truth
    (a path of ``horizon`` nodes), or a full-support truth with the class's
    composition (a full binary tree), or neither."""

    def key(cls):
        truth = cls.true_model
        if isinstance(truth, measures.DeterministicModel):
            return ("deterministic",)
        if _full_support(truth, horizon):
            return ("full",) + composition(cls)
        return ("partial",)

    return key


def pick(strata: List[tuple], make, key, limit: int = 5000) -> List[tuple]:
    """Scan cases 0, 1, 2, ... and take the first class of each stratum.

    ``strata`` may repeat a stratum to take several classes from it; the
    result lists (case, class) in the order of ``strata``.
    """
    out: List[Optional[tuple]] = [None] * len(strata)
    for case in range(limit):
        if all(out):
            break
        cls = make(case)
        found = key(cls)
        for slot, want in enumerate(strata):
            if out[slot] is None and want == found:
                out[slot] = (case, cls)
                break
    if all(out):
        return out
    raise RuntimeError(f"strata {strata} not all found within {limit} cases")


# ----------------------------------------------------------------------
# exact_walk
# ----------------------------------------------------------------------

BOUND_STRATA = [
    ("deterministic",),
    ("full", "iid", "iid"),
    ("full", "det", "iid", "iid"),
    ("deterministic",),
    ("full", "det", "fact", "iid", "iid"),
]
PAIR_STRATA = [
    ("deterministic",),
    ("full", "iid", "iid"),
    ("full", "fact", "iid"),
    ("deterministic",),
    ("full", "det", "iid", "iid"),
    ("full", "det", "fact", "iid", "iid"),
]
PAIR_CASE_OFFSET = 100_000


def _parity_loss(seed: int, case: int):
    even = suites.random_stationary_loss(suites.suite_rng(seed, 30_000 + case)).table(())
    odd = suites.random_stationary_loss(suites.suite_rng(seed, 40_000 + case)).table(())
    return decisions.history_parity_loss(even, odd)


def _exact_walk(seed: int) -> List[Item]:
    items: List[Item] = []
    for case, cls in pick(
        BOUND_STRATA, lambda c: suites.random_measure_class(seed, c), walk_stratum(BOUND_HORIZON)
    ):
        items.append(
            Item(
                id=f"bounds/seed{seed}/case{case}",
                part="bounds",
                run=lambda cls=cls: metrics.check_bounds(cls, BOUND_HORIZON),
                canon=canon_bound_reports,
            )
        )

    picked = pick(
        PAIR_STRATA,
        lambda c: suites.random_measure_class(seed, PAIR_CASE_OFFSET + c, max_models=5),
        walk_stratum(LOSS_HORIZON),
    )
    for n, (case, cls) in enumerate(picked):
        if n % 2:
            loss = _parity_loss(seed, case)
        else:
            loss = suites.random_stationary_loss(suites.suite_rng(seed, 20_000 + case))
        items.append(
            Item(
                id=f"loss_pairs/seed{seed}/case{PAIR_CASE_OFFSET + case}/{loss.name}",
                part="loss_pairs",
                run=lambda cls=cls, loss=loss: _loss_pair(cls, loss),
                canon=canon_loss_pair,
            )
        )

    ledger_cls = model_class.bernoulli_sharpness_class(LEDGER_EXTRA_MODELS)
    items.append(
        Item(
            id=f"deep_ledger/example2/N{LEDGER_EXTRA_MODELS}/h{LEDGER_HORIZON}",
            part="deep_ledger",
            run=lambda: metrics.cumulative_distances(
                ledger_cls, predictors.STATIC, LEDGER_HORIZON
            ),
            canon=canon_deep_ledger,
        )
    )
    return items


def _loss_pair(cls, loss):
    traces = decisions.decision_traces(cls, MDL_KINDS, loss, LOSS_HORIZON)
    reports = {
        k: decisions.check_regret_bound(cls, k, loss, LOSS_HORIZON, trace=traces[k])
        for k in MDL_KINDS
    }
    return traces, reports


# ----------------------------------------------------------------------
# long_paths
# ----------------------------------------------------------------------

BERNOULLI_ITEMS = 2
BERNOULLI_PATHS_PER_ITEM = 4
MARTINGALE_ALIVE = 3
MARTINGALE_DEAD = 1
MARTINGALE_DEATH_DEPTH = 32  # dead paths die within a few steps
MC_LEDGER_ITEMS = 2


def bernoulli4_class():
    """The criterion-09 class: four Bernoulli models, truth 3/8."""
    return model_class.bernoulli_class(
        [Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)], true_index=1
    )


def _martingale_dies(cls, mc_seed: int) -> bool:
    """Whether sample 0 of ``mc_seed`` kills the martingale member early."""
    lam, mart = cls.models
    path = measures.sample_path(lam, MARTINGALE_DEATH_DEPTH, measures.derived_rng(mc_seed, 0))
    cur = mart.cursor()
    for a in path:
        cur = cur.advance(a)
        if cur.dead:
            return True
    return False


def _long_paths(seed: int) -> List[Item]:
    items: List[Item] = []
    bern = bernoulli4_class()
    bern_seeds = [seed * 1000 + k for k in range(BERNOULLI_ITEMS)]
    for mc_seed in bern_seeds:
        items.append(
            Item(
                id=f"bernoulli/seed{mc_seed}/x{BERNOULLI_PATHS_PER_ITEM}",
                part="bernoulli",
                run=lambda s=mc_seed: stabilization.monte_carlo_stabilization(
                    bern, PATH_HORIZON, BERNOULLI_PATHS_PER_ITEM, PATH_WINDOW, s
                ),
                canon=canon_stabilization,
                units=BERNOULLI_PATHS_PER_ITEM,
            )
        )

    ex5 = model_class.example5_class()
    want = {True: MARTINGALE_DEAD, False: MARTINGALE_ALIVE}
    j = 0
    while any(want.values()):
        mc_seed = seed * 1000 + 100 + j
        j += 1
        dies = _martingale_dies(ex5, mc_seed)
        if not want[dies]:
            continue
        want[dies] -= 1
        items.append(
            Item(
                id=f"martingale/seed{mc_seed}/{'dead' if dies else 'alive'}",
                part="martingale",
                run=lambda s=mc_seed: stabilization.monte_carlo_stabilization(
                    ex5, PATH_HORIZON, 1, PATH_WINDOW, s
                ),
                canon=canon_stabilization,
            )
        )

    # The serial Bernoulli calls again, with worker threads: same paths, so
    # the outputs must match and the time ratio is the --workers speed-up.
    workers = workers_knob()
    for mc_seed in bern_seeds:
        items.append(
            Item(
                id=f"parallel/seed{mc_seed}/x{BERNOULLI_PATHS_PER_ITEM}/w{workers}",
                part="parallel",
                run=lambda s=mc_seed: stabilization.monte_carlo_stabilization(
                    bern, PATH_HORIZON, BERNOULLI_PATHS_PER_ITEM, PATH_WINDOW, s,
                    workers=workers,
                ),
                canon=canon_stabilization,
                units=BERNOULLI_PATHS_PER_ITEM,
                same_as=f"bernoulli/seed{mc_seed}/x{BERNOULLI_PATHS_PER_ITEM}",
                all_cpus=True,
            )
        )

    ex2 = model_class.bernoulli_sharpness_class(LEDGER_EXTRA_MODELS)
    for k in range(MC_LEDGER_ITEMS):
        mc_seed = seed * 1000 + 200 + k
        items.append(
            Item(
                id=f"mc_ledger/example2/seed{mc_seed}/h{MC_LEDGER_HORIZON}",
                part="mc_ledger",
                run=lambda s=mc_seed: metrics.monte_carlo_distances(
                    ex2, predictors.STATIC, MC_LEDGER_HORIZON, 1, s
                ),
                canon=canon_mc_ledger,
            )
        )
    return items


# ----------------------------------------------------------------------
# point_queries
# ----------------------------------------------------------------------

QUERY_MEASURE_STRATA = [
    ("iid", "iid"),
    ("det", "fact", "iid"),
    ("det", "fact", "iid", "iid"),
    ("det", "det", "fact", "iid", "iid"),
    ("det", "fact", "iid", "iid", "iid"),
]
QUERY_SEMIMEASURE_STRATA = [
    ("iid", "leaky-iid"),
    ("det", "iid", "leaky-iid"),
    ("fact", "iid", "leaky-iid"),
    ("det", "fact", "iid", "iid"),
    ("det", "fact", "iid", "leaky-iid"),
]
QUERY_CLASSES_PER_STRATUM = 4
CODE_ITEMS = 4
CODES_PER_ITEM = 50


def query_words():
    return [w for n in range(QUERY_WORD_LEN) for w in itertools.product((0, 1), repeat=n)]


def _point_queries(seed: int) -> List[Item]:
    items: List[Item] = []
    words = query_words()
    sources = (
        ("measure", QUERY_MEASURE_STRATA, lambda c: suites.random_measure_class(seed, c)),
        (
            "semimeasure",
            QUERY_SEMIMEASURE_STRATA,
            lambda c: suites.random_semimeasure_class(seed, c),
        ),
    )
    for kind, strata, make in sources:
        for case, cls in pick(strata * QUERY_CLASSES_PER_STRATUM, make, composition):
            y = suites.random_word(suites.suite_rng(seed, case), cls.alphabet, QUERY_WORD_LEN)
            items.append(
                Item(
                    id=f"functional/seed{seed}/{kind}/case{case}",
                    part="functional",
                    run=lambda cls=cls, y=y: _lemma_sweep(cls, y, words),
                    canon=lambda rows, cls=cls: canon_lemma_sweep(rows, cls),
                    units=10 * len(words),
                )
            )

    ex3 = model_class.example3_class()
    rr = model_class.round_robin()
    items.append(
        Item(
            id=f"functional/example3/round_robin/h{EXAMPLE3_HORIZON}",
            part="functional",
            run=lambda: _example3_predictions(ex3, rr),
            canon=canon_example3,
            units=2 * EXAMPLE3_HORIZON,
        )
    )

    for k in range(CODE_ITEMS):
        cases = code_cases(suites.suite_rng(seed, 424_242 + k))
        items.append(
            Item(
                id=f"codes/seed{seed}/batch{k}",
                part="codes",
                run=lambda cases=cases: _round_trips(cases),
                canon=lambda pairs, cases=cases: canon_round_trips(pairs, cases),
                units=CODES_PER_ITEM,
            )
        )
    return items


def coding_classes():
    """The criterion-10 coding classes."""
    return [
        model_class.bernoulli_class([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
        model_class.bernoulli_class([Fraction(1, 3), Fraction(2, 3)]),
        model_class.WeightedClass(
            [
                measures.DeterministicModel((), (1, 0)),
                measures.IidModel((Fraction(1, 2), Fraction(1, 2))),
            ],
            [Fraction(1, 2), Fraction(1, 2)],
        ),
    ]


def code_cases(rng) -> list:
    """(class, model index, string) for one batch of two-part codes."""
    classes = coding_classes()
    cases = []
    for _ in range(CODES_PER_ITEM):
        cls = classes[rng.randrange(len(classes))]
        index = rng.randrange(len(cls.models))
        n = rng.randint(0, CODE_MAX_LEN)
        word = tuple(measures.sample_path(cls.models[index], n, rng)) if n else ()
        cases.append((cls, index, word))
    return cases


def _lemma_sweep(cls, y, words):
    """Criterion-03 calls at every word: 10 public calls per word."""
    rows = []
    for x in words:
        xi_x = predictors.bayes_mixture(cls, x)
        rho_x = model_class.two_part_value(cls, x)
        chosen = model_class.map_estimator(cls, x).index
        rho_y_x = model_class.two_part_value_at(cls, y, x)
        kids = []
        for a in (0, 1):
            xa = x + (a,)
            kids.append(
                (
                    predictors.bayes_mixture(cls, xa),
                    model_class.two_part_value(cls, xa),
                    cls.weights[chosen] * cls.models[chosen].evaluate_exact(xa),
                )
            )
        rows.append((x, xi_x, rho_x, chosen, rho_y_x, kids))
    return rows


def _example3_predictions(cls, rr):
    ones = (1,) * EXAMPLE3_HORIZON
    return [
        (
            predictors.predict_dynamic(cls, ones[:t], rr),
            predictors.predict_static(cls, ones[:t], rr),
        )
        for t in range(EXAMPLE3_HORIZON)
    ]


def _round_trips(cases):
    out = []
    for cls, index, word in cases:
        code = coding.encode(cls, index, word)
        out.append((code, coding.decode(cls, code.bits)))
    return out


# ----------------------------------------------------------------------
# Canonical outputs and invariants, per part
# ----------------------------------------------------------------------


# Bound-row metrics whose measured value is a certified enclosure.
ENCLOSED_METRICS = ("hellinger", "kl", "abs_log_sum")


def canon_bound_reports(reports) -> Canon:
    c = Canon()
    for r in reports:
        c.exact((r.bound_name, r.predictor, r.metric, r.passed))
        if r.metric in ENCLOSED_METRICS:
            c.enclosure(r.measured)
        else:
            c.exact(r.measured)
        if r.bound.is_point:
            c.exact(r.bound)
        else:
            c.enclosure(r.bound)
        c.slack(r.measured, r.bound)
        if not r.passed:
            c.problem(f"bound row {r.bound_name}/{r.predictor} failed")
    return c


def canon_loss_pair(out) -> Canon:
    traces, reports = out
    c = Canon()
    for k in MDL_KINDS:
        tr = traces[k]
        c.exact((k, tr.loss_name, tr.instantaneous_ok))
        c.exact(tuple(tr.l_phi))
        c.exact(tuple(tr.l_mu))
        for h in tr.hellinger:
            c.enclosure(h)
        cumulative_ok = tr.cumulative_bound_ok()
        c.exact(cumulative_ok)
        rep = reports[k]
        c.exact((rep.bound_name, rep.passed))
        c.exact(rep.measured)
        c.enclosure(rep.bound)
        c.slack(rep.measured, rep.bound)
        if not tr.instantaneous_ok:
            c.problem(f"{k}: instantaneous regret bound failed")
        if not cumulative_ok:
            c.problem(f"{k}: cumulative regret bound failed")
        if not rep.passed:
            c.problem(f"{k}: loss theorem row failed")
    return c


def canon_deep_ledger(ledger) -> Canon:
    c = Canon()
    c.exact(tuple(ledger.square))
    c.exact(tuple(ledger.absolute))
    for h in ledger.hellinger:
        c.enclosure(h)
    for d in ledger.kl:
        c.enclosure(d)
    cap = Fraction(1, 8)
    if any(s > cap for s in ledger.square):
        c.problem("a per-step square error exceeds 1/8")
    if ledger.cumulative("square") > Fraction(ledger.horizon, 8):
        c.problem("cumulative square error exceeds horizon/8")
    return c


def canon_stabilization(summary) -> Canon:
    c = Canon()
    c.exact(summary.fraction_stabilized)
    for v in summary.verdicts:
        c.exact((v.stabilized_by, v.change_count, v.final_index, v.horizon, v.window))
        if v.horizon != PATH_HORIZON or v.window != PATH_WINDOW:
            c.problem("verdict horizon/window differ from the request")
    if len(summary.verdicts) != summary.samples:
        c.problem("verdict count differs from the sample count")
    return c


def canon_mc_ledger(ledger) -> Canon:
    c = Canon()
    for name in metrics.METRICS:
        total = ledger.cumulative(name)
        c.float(total)
        if not (total >= 0):
            c.problem(f"Monte Carlo {name} ledger is negative or NaN")
        if len(ledger.per_step(name)) != MC_LEDGER_HORIZON:
            c.problem(f"Monte Carlo {name} ledger has the wrong length")
    return c


def canon_lemma_sweep(rows, cls) -> Canon:
    """Exact values, plus the criterion-03 inequalities at every word."""
    c = Canon()
    measures_only = all(m.is_proper_measure for m in cls.models)
    for x, xi_x, rho_x, chosen, rho_y_x, kids in rows:
        c.exact((x, xi_x, rho_x, chosen, rho_y_x))
        xi_kids = rho_kids = static_kids = Fraction(0)
        for xi_a, rho_a, static_a in kids:
            c.exact((xi_a, rho_a, static_a))
            xi_kids += xi_a
            rho_kids += rho_a
            static_kids += static_a
        if not (xi_x - rho_x >= xi_kids - rho_kids >= 0):
            c.problem(f"re-selected gap inequality fails at {x}")
        if not (xi_x - rho_x >= xi_kids - static_kids >= 0):
            c.problem(f"frozen-choice gap inequality fails at {x}")
        if not (xi_x >= rho_x >= rho_y_x):
            c.problem(f"xi >= rho >= rho^y fails at {x}")
        if measures_only and not (rho_kids >= rho_x):
            c.problem(f"two-part value shrinks along {x} in a measure class")
    return c


def canon_example3(rows) -> Canon:
    c = Canon()
    half = Fraction(1, 2)
    for t, (dyn, sta) in enumerate(rows):
        c.exact((tuple(dyn.values), tuple(sta.values)))
        for dist in (dyn, sta):
            total = sum(dist.values)
            if total == 0 or any(v / total != half for v in dist.values):
                c.problem(f"example 3 normalized prediction is not 1/2 at t={t}")
    return c


def canon_round_trips(pairs, cases) -> Canon:
    """Code bits, plus: round trips are identical and the payload is
    ceil(-lb nu(x)) bits long."""
    c = Canon()
    for (cls, index, word), (code, decoded) in zip(cases, pairs):
        c.exact((code.model_index, code.bits))
        if decoded != word:
            c.problem(f"round trip changed {word}")
        p = cls.models[index].evaluate_exact(word)
        if len(code.payload) != neg_lb_ceil(p):
            c.problem(f"payload of {word} is not ceil(-lb nu(x)) bits")
    return c


def neg_lb_ceil(p: Fraction) -> int:
    """ceil(-log2 p) for 0 < p <= 1, in integer arithmetic."""
    n = 0
    while (p.numerator << n) < p.denominator:
        n += 1
    return n
