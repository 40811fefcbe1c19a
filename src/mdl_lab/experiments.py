"""Experiment registry: deterministic, serializable reproductions.

Each experiment maps a validated :class:`ExperimentConfig` to an
:class:`ExperimentReport` holding verdicts, distance ledgers, bound rows
and plot-ready series.  Reports serialize to ``report.json``,
``ledgers.csv``, ``bounds.csv`` and ``plotdata/*.tsv``; all rationals
are written as "p/q" strings next to float renderings, and re-running a
config reproduces the numeric payload byte for byte; every worker count
runs the sampled paths serially.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional

from . import __version__
from .conditional import (
    ConditionalClass,
    GaussianModel,
    LabelNoiseModel,
    footnote_density_demo,
    monte_carlo_regression_hellinger,
    regression_map,
)
from .coding import block_interval, decode, encode, kraft_sum, sequential_interval
from .decisions import (
    check_regret_bound,
    decision_traces,
    unit_square_inequality_scan,
)
from .enclosure import FracInterval, ln_interval
from .errors import ConfigError, MalformedCodeError
from .measures import (
    BINARY,
    DeterministicModel,
    FactorizableModel,
    IidModel,
    LeakySemimeasure,
    OscillatingMartingaleMeasure,
    check_semimeasure,
    sample_path,
)
from .metrics import (
    METRICS,
    BoundReport,
    check_bounds,
    cumulative_distances,
    inverse_weight,
    monte_carlo_distances,
    to_float,
)
from .model_class import (
    LARGEST_WEIGHT,
    EvalStats,
    TieBreak,
    WeightedClass,
    bernoulli_class,
    bernoulli_sharpness_class,
    example1_class,
    example3_class,
    example4_class,
    example5_class,
    round_robin,
)
from .predictors import (
    RHO,
    RHO_NORM,
    STATIC,
    STATIC_NORM,
    XI,
    normalize,
    predict_dynamic,
    predict_static,
)
from .stabilization import (
    alternation_count,
    hybrid_value_series,
    increment_sign_changes,
    map_trace,
    monte_carlo_stabilization,
    profile_class,
)
from .suites import (
    random_measure_class,
    random_stationary_loss,
    suite_rng,
)
from .values import format_rational, parse_rational

LEDGER_PREDICTOR_KINDS = (XI, RHO, RHO_NORM, STATIC, STATIC_NORM)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """What a run asks for; its experiment's knob table says what it reads."""

    experiment: str
    seed: int = 0
    horizon: Optional[int] = None
    samples: Optional[int] = None
    tie_break: str = "largest_weight"
    workers: int = 1
    out: Optional[str] = None
    params: Dict[str, str] = field(default_factory=dict)
    loss_spec: Optional[dict] = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in data:
            raise ConfigError("config needs an 'experiment' name")
        try:
            return cls(**data)
        except TypeError as e:
            raise ConfigError(str(e)) from e

    def __post_init__(self):
        if self.tie_break not in ("largest_weight", "lowest_index", "round_robin"):
            raise ConfigError(f"unknown tie_break {self.tie_break!r}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be a mapping")

    def tie_break_policy(self, phase: int) -> TieBreak:
        if self.tie_break == "round_robin":
            return round_robin(phase)
        return TieBreak(self.tie_break)

    def echo(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "horizon": self.horizon,
            "samples": self.samples,
            "tie_break": self.tie_break,
            "secondary_tie_break": "lowest_index",
            "workers": self.workers,
            "params": dict(sorted(self.params.items())),
            "loss_spec": self.loss_spec,
        }


def build_class(spec: dict) -> WeightedClass:
    """Materialize a class from its JSON description.

    ``models`` is a list of typed model specs; ``weights`` is an explicit
    list of rationals or a rule {"rule": "uniform"} / {"rule": "geometric",
    "r": "1/2"} (geometric weights leave an exact tail bound).
    """
    if "models" not in spec:
        raise ConfigError("a class spec needs a 'models' list")
    models = [_build_model(m) for m in spec["models"]]
    n = len(models)
    weights_spec = spec.get("weights", {"rule": "uniform"})
    tail = None
    if isinstance(weights_spec, list):
        weights = [parse_rational(w) for w in weights_spec]
    elif weights_spec.get("rule") == "uniform":
        weights = [Fraction(1, n)] * n
    elif weights_spec.get("rule") == "geometric":
        r = parse_rational(weights_spec.get("r", "1/2"))
        if not 0 < r < 1:
            raise ConfigError("geometric ratio must lie in (0,1)")
        weights = [(1 - r) * r**i for i in range(n)]
        tail = r**n
    else:
        raise ConfigError(f"unknown weights spec {weights_spec!r}")
    return WeightedClass(
        models,
        weights,
        true_index=spec.get("true_index"),
        tail_bound=tail,
    )


def build_loss(spec: dict):
    """Loss function from config: a preset name or an explicit 2x2 table.

    {"preset": "zero_one"} / {"preset": "absolute"} /
    {"table": {"00": "0", "01": "1", "10": "1/2", "11": "0"}} /
    {"preset": "history_parity", "even": {...}, "odd": {...}} where the
    two-character keys are (outcome, action).
    """
    from .decisions import history_parity_loss, table_loss, zero_one_loss

    def parse_table(raw: dict) -> dict:
        try:
            return {
                (int(k[0]), int(k[1])): parse_rational(str(v))
                for k, v in raw.items()
            }
        except (IndexError, ValueError) as e:
            raise ConfigError(f"bad loss table {raw!r}: {e}") from e

    preset = spec.get("preset")
    if preset == "zero_one":
        return zero_one_loss()
    if preset == "absolute":
        # |outcome - action|: identical to 0/1 loss on a binary alphabet,
        # kept as its own name for config clarity.
        return table_loss(
            {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, name="absolute"
        )
    if preset == "history_parity":
        return history_parity_loss(
            even=parse_table(spec["even"]), odd=parse_table(spec["odd"])
        )
    if preset is None and "table" in spec:
        return table_loss(parse_table(spec["table"]))
    raise ConfigError(f"unknown loss spec {spec!r}")


def _build_model(spec: dict):
    kind = spec.get("type")
    if kind == "iid":
        return IidModel([parse_rational(t) for t in spec["theta"]])
    if kind == "deterministic":
        return DeterministicModel(spec.get("preperiod", ""), spec["period"])
    if kind == "martingale":
        return OscillatingMartingaleMeasure()
    if kind == "factorizable_steps":
        return FactorizableModel.from_steps(
            BINARY,
            [[parse_rational(p) for p in dist] for dist in spec["steps"]],
            [parse_rational(p) for p in spec["tail"]],
        )
    if kind == "leaky":
        return LeakySemimeasure(_build_model(spec["base"]), parse_rational(spec["gamma"]))
    raise ConfigError(f"unknown model type {kind!r}")


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class ExperimentReport:
    verdicts: Dict[str, object]
    ledger_rows: List[dict] = field(default_factory=list)
    bound_rows: List[dict] = field(default_factory=list)
    plot_series: Dict[str, List[tuple]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    experiment: str = ""  # filled in with config by run_experiment
    config: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    version: str = __version__

    def failing_rows(self) -> List[dict]:
        return [row for row in self.bound_rows if not row["pass"]]

    def payload(self, include_wall_clock: bool = True) -> dict:
        data = {
            "experiment": self.experiment,
            "config": self.config,
            "verdicts": self.verdicts,
            "ledgers": self.ledger_rows,
            "bounds": self.bound_rows,
            "notes": self.notes,
            "version": self.version,
        }
        if include_wall_clock:
            data["wall_clock_s"] = self.wall_clock_s
        return data


def _fmt_exact(value) -> str:
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    if isinstance(value, FracInterval):
        if value.is_point:
            return format_rational(value.lo)
        return f"{format_rational(value.lo)}..{format_rational(value.hi)}"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def bound_row(report: BoundReport, case: str = "") -> dict:
    return {
        "case": case,
        "predictor": report.predictor,
        "metric": report.metric,
        "bound_name": report.bound_name,
        "bound": to_float(report.bound),
        "bound_exact": _fmt_exact(report.bound),
        "measured": to_float(report.measured),
        "measured_exact": _fmt_exact(report.measured),
        "slack": to_float(report.slack),
        "slack_exact": _fmt_exact(report.slack),
        "pass": report.passed,
    }


def ledger_rows_from(ledger, predictor: str, case: str = "") -> List[dict]:
    rows = []
    for metric in METRICS:
        for t, running in enumerate(ledger.series(metric), start=1):
            stderr = None if ledger.stderr is None else ledger.stderr[metric][t - 1]
            rows.append(
                {
                    "case": case,
                    "t": t,
                    "metric": metric,
                    "predictor": predictor,
                    "value": to_float(running),
                    "value_exact": _fmt_exact(running),
                    "stderr": stderr,
                }
            )
    return rows


def write_report(report: ExperimentReport, out_dir: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report.payload(), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    _write_csv(
        out / "ledgers.csv",
        ["case", "t", "metric", "predictor", "value", "value_exact", "stderr"],
        report.ledger_rows,
    )
    _write_csv(
        out / "bounds.csv",
        [
            "case",
            "predictor",
            "metric",
            "bound_name",
            "bound",
            "bound_exact",
            "measured",
            "measured_exact",
            "slack",
            "slack_exact",
            "pass",
        ],
        report.bound_rows,
    )
    plotdir = out / "plotdata"
    plotdir.mkdir(exist_ok=True)
    for name, rows in report.plot_series.items():
        with open(plotdir / f"{name}.tsv", "w") as fh:
            for row in rows:
                fh.write("\t".join(str(v) for v in row) + "\n")
    return out


def _write_csv(path: Path, header: List[str], rows: List[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ----------------------------------------------------------------------
# Experiments
# ----------------------------------------------------------------------


def run_bound_suite(
    cfg: ExperimentConfig, classes: int, phase: int, horizon: int
) -> ExperimentReport:
    rows = []
    failures = 0
    for case in range(classes):
        cls = random_measure_class(cfg.seed, case)
        for rep in check_bounds(cls, horizon, cfg.tie_break_policy(phase)):
            rows.append(bound_row(rep, case=f"class{case:03d}"))
            failures += 0 if rep.passed else 1
    return ExperimentReport(
        verdicts={
            "classes": classes,
            "horizon": horizon,
            "rows": len(rows),
            "failures": failures,
            "all_pass": failures == 0,
        },
        bound_rows=rows,
    )


def run_example1(
    cfg: ExperimentConfig, N: int, horizon: Optional[int]
) -> ExperimentReport:
    horizon = horizon or N + 2
    cls = example1_class(N)
    ledger_rows = []
    plot = {}
    for kind in LEDGER_PREDICTOR_KINDS:
        ledger = cumulative_distances(cls, kind, horizon)
        ledger_rows.extend(ledger_rows_from(ledger, kind))
        plot[f"square_{kind}"] = [
            (t + 1, to_float(v)) for t, v in enumerate(ledger.series("square"))
        ]
        if kind == RHO_NORM:
            s_total = ledger.cumulative("square")
    expected = Fraction(N - 1, 2)
    bound_rows = [bound_row(r) for r in check_bounds(cls, horizon)]
    # Measured estimator work along the true path: dynamic re-selects for
    # the history plus both children, static selects once per step.
    dynamic, static = EvalStats(), EvalStats()
    for t in range(horizon):
        predict_dynamic(cls, (1,) * t, stats=dynamic)
        predict_static(cls, (1,) * t, stats=static)
    return ExperimentReport(
        verdicts={
            "N": N,
            "square_rho_norm": _fmt_exact(s_total),
            "expected": _fmt_exact(expected),
            "matches_half_n_minus_1": s_total == expected,
            "map_searches_dynamic": dynamic.map_searches,
            "map_searches_static": static.map_searches,
        },
        ledger_rows=ledger_rows,
        bound_rows=bound_rows,
        plot_series=plot,
    )


def run_example2_mc(
    cfg: ExperimentConfig, N: int, guard: int, mc_horizon: int, horizon: int,
    samples: int,
) -> ExperimentReport:
    cls = bernoulli_sharpness_class(N)
    ledger = cumulative_distances(cls, STATIC, horizon, guard=guard)
    s_exact = ledger.cumulative("square")
    ln_budget = ln_interval(inverse_weight(cls))
    exceeds = s_exact > ln_budget.hi
    verdicts = {
        "N": N,
        "horizon": horizon,
        "static_square_sum": _fmt_exact(s_exact),
        "mixture_budget_ln_winv": _fmt_exact(ln_budget),
        "static_exceeds_mixture_budget": bool(exceeds),
        "max_attainable_at_horizon": _fmt_exact(Fraction(horizon, 8)),
    }
    notes = [
        "per-step square error is capped at 1/8 for this class, so the "
        "cumulative sum cannot exceed horizon/8 at any horizon",
    ]
    rows = ledger_rows_from(ledger, STATIC)
    if mc_horizon:
        mc = monte_carlo_distances(
            cls, STATIC, mc_horizon, samples, cfg.seed, workers=cfg.workers
        )
        verdicts["mc_horizon"] = mc_horizon
        verdicts["mc_square_estimate"] = mc.cumulative("square")
        rows.extend(ledger_rows_from(mc, f"{STATIC}_mc", case="mc"))
    return ExperimentReport(
        verdicts=verdicts,
        ledger_rows=rows,
        notes=notes,
        plot_series={
            "static_square": [
                (t + 1, to_float(v)) for t, v in enumerate(ledger.series("square"))
            ]
        },
    )


def run_example3_hybrid(cfg: ExperimentConfig, horizon: int) -> ExperimentReport:
    cls = example3_class()
    ones = (1,) * horizon
    rr = round_robin()
    hybrid = hybrid_value_series(cls, ones, rr)
    alternates = all(
        hybrid[t - 1] == (Fraction(1, 4) if t % 2 == 0 else Fraction(1))
        for t in range(2, horizon + 1)
    )
    halves = True
    for t in range(1, horizon + 1):
        prefix = ones[: t - 1]
        dyn = normalize(predict_dynamic(cls, prefix, rr))
        sta = normalize(predict_static(cls, prefix, rr))
        if set(dyn.values) != {Fraction(1, 2)} or set(sta.values) != {Fraction(1, 2)}:
            halves = False
            break
    lw_trace = map_trace(cls, ones, LARGEST_WEIGHT)
    rr_trace = map_trace(cls, ones, rr)
    return ExperimentReport(
        verdicts={
            "horizon": horizon,
            "hybrid_alternates_quarter_one": alternates,
            "hybrid_alternations": alternation_count(hybrid),
            "dynamic_static_constant_half": halves,
            "largest_weight_trace_constant": len(set(lw_trace.indices)) == 1,
            "round_robin_trace_alternates": all(
                rr_trace.indices[t] == t % 2 for t in range(horizon + 1)
            ),
        },
        plot_series={
            "hybrid_values": [
                (t + 1, float(v)) for t, v in enumerate(hybrid)
            ]
        },
    )


def run_example4_ratio(cfg: ExperimentConfig, horizon: int) -> ExperimentReport:
    results = {}
    series_plot = {}
    for label, w_mu, w_nu in (
        ("equal", Fraction(1, 2), Fraction(1, 2)),
        ("suitable", Fraction(3, 7), Fraction(4, 7)),
    ):
        cls = example4_class(w_mu, w_nu)
        mu, nu = cls.models
        ratio = []
        r = Fraction(1)
        for t in range(1, horizon + 1):
            r *= nu.step_distribution(t)[1] / mu.step_distribution(t)[1]
            ratio.append(w_nu * r / w_mu)
        trace = map_trace(cls, (1,) * horizon, LARGEST_WEIGHT)
        results[label] = {
            "weights": (format_rational(w_mu), format_rational(w_nu)),
            "increment_sign_changes_40": increment_sign_changes(ratio[:40]),
            "argmax_changes": len(trace.change_times()),
        }
        series_plot[f"weighted_ratio_{label}"] = [
            (t + 1, float(v)) for t, v in enumerate(ratio)
        ]
    return ExperimentReport(
        verdicts={
            "horizon": horizon,
            "equal_weights": results["equal"],
            "suitable_weights": results["suitable"],
            "oscillates": results["equal"]["increment_sign_changes_40"] >= 5,
            "argmax_changes_at_least_2": results["suitable"]["argmax_changes"] >= 2,
        },
        notes=[
            "with equal weights the exact weighted ratio stays below 1 at "
            "every t >= 1, so the argmax never flips there; the (3/7, 4/7) "
            "weighting puts the threshold inside the oscillation band",
        ],
        plot_series=series_plot,
    )


def run_example5_martingale(
    cfg: ExperimentConfig, identity_depth: int, mass_depth: int, window: int,
    horizon: int, samples: int,
) -> ExperimentReport:
    if window > horizon:
        raise ConfigError(f"window {window} exceeds the horizon {horizon}")
    cls = example5_class()
    martingale: OscillatingMartingaleMeasure = cls.models[1]

    identity_ok = True
    for n in range(identity_depth):
        for bits in itertools.product((0, 1), repeat=n):
            f = martingale.f_value(bits)
            if 2 * f != martingale.f_value(bits + (0,)) + martingale.f_value(bits + (1,)):
                identity_ok = False
    masses = martingale.dead_mass_by_depth(mass_depth)
    mass_ok = all(m <= Fraction(1, 4) for m in masses)
    structure = check_semimeasure(martingale, 10)

    summary = monte_carlo_stabilization(
        cls, horizon, samples, window, cfg.seed, workers=cfg.workers
    )
    non_stabilized = 1 - summary.fraction_stabilized
    return ExperimentReport(
        verdicts={
            "martingale_identity_depth": identity_depth,
            "martingale_identity_ok": identity_ok,
            "measure_check_ok": structure.passed and structure.all_equalities,
            "dead_mass_depth": mass_depth,
            "dead_mass_max": _fmt_exact(max(masses)),
            "dead_mass_le_quarter": mass_ok,
            "mc_horizon": horizon,
            "mc_window": window,
            "mc_samples": samples,
            "fraction_non_stabilized": _fmt_exact(non_stabilized),
            "non_stabilized_ge_half": non_stabilized >= Fraction(1, 2),
        },
        notes=[
            "the asymptotic non-stabilization probability >= 3/4 is not a "
            "finite-horizon statement; >= 1/2 at this horizon/window is the "
            "accepted proxy and is reported as such",
        ],
        plot_series={
            "dead_mass": [(n, float(m)) for n, m in enumerate(masses)]
        },
    )


def run_stabilization_mc(
    cfg: ExperimentConfig, window: int, horizon: int, samples: int
) -> ExperimentReport:
    if window > horizon:
        raise ConfigError(f"window {window} exceeds the horizon {horizon}")
    cls = bernoulli_class(
        [Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)],
        true_index=1,
    )
    profile = profile_class(cls, depth=8)
    summary = monte_carlo_stabilization(
        cls, horizon, samples, window, cfg.seed, workers=cfg.workers
    )
    changes = [v.change_count for v in summary.verdicts]
    return ExperimentReport(
        verdicts={
            "horizon": horizon,
            "window": window,
            "samples": samples,
            "all_factorizable": profile.all_factorizable,
            "uniform_stochasticity_delta": _fmt_exact(
                profile.uniform_stochasticity_delta
            ),
            "fraction_stabilized": _fmt_exact(summary.fraction_stabilized),
            "fraction_stabilized_float": float(summary.fraction_stabilized),
            "ge_95_percent": summary.fraction_stabilized >= Fraction(95, 100),
            "max_change_count": max(changes),
        },
    )


def run_loss_bounds(cfg: ExperimentConfig, pairs: int, horizon: int) -> ExperimentReport:
    kinds = (RHO_NORM, RHO, STATIC, STATIC_NORM)
    fixed_loss = build_loss(cfg.loss_spec) if cfg.loss_spec else None
    rows = []
    inst_failures = 0
    cum_failures = 0
    for case in range(pairs):
        cls = random_measure_class(cfg.seed, case, max_models=5)
        loss = fixed_loss or random_stationary_loss(suite_rng(cfg.seed, 10_000 + case))
        traces = decision_traces(cls, kinds, loss, horizon)
        for kind in kinds:
            trace = traces[kind]
            if not trace.instantaneous_ok:
                inst_failures += 1
            if not trace.cumulative_bound_ok():
                cum_failures += 1
            rep = check_regret_bound(cls, kind, loss, horizon, trace=trace)
            rows.append(bound_row(rep, case=f"pair{case:03d}"))
    failures = sum(0 if r["pass"] else 1 for r in rows)
    return ExperimentReport(
        verdicts={
            "pairs": pairs,
            "horizon": horizon,
            "instantaneous_violations": inst_failures,
            "cumulative_violations": cum_failures,
            "theorem_violations": failures,
            "all_pass": inst_failures == 0 and cum_failures == 0 and failures == 0,
        },
        bound_rows=rows,
    )


def run_unit_square_scan(cfg: ExperimentConfig, m: int) -> ExperimentReport:
    violation = unit_square_inequality_scan(m)
    return ExperimentReport(
        verdicts={
            "resolution": m,
            "max_violation": violation,
            "within_1e-12": violation <= 1e-12,
        },
    )


def run_classification_demo(cfg: ExperimentConfig, horizon: int) -> ExperimentReport:
    cc = ConditionalClass(
        [LabelNoiseModel(Fraction(1, 4)), LabelNoiseModel(Fraction(3, 4))],
        [Fraction(1, 2), Fraction(1, 2)],
        true_index=1,
    )
    rng = suite_rng(cfg.seed, 0)
    inputs = [rng.randrange(2) for _ in range(horizon)]
    from .conditional import classify_static, conditional_to_sequence_class

    seq_cls = conditional_to_sequence_class(cc, inputs)
    reports = check_bounds(seq_cls, horizon)
    wanted = {("rho_norm", "square"), ("rho", "square"), ("static", "square")}
    rows = [
        bound_row(r, case="fixed_inputs")
        for r in reports
        if (r.predictor, r.metric) in wanted and r.bound_name.startswith("summary")
    ]
    static_demo = classify_static(cc, [0, 0], [0, 0], 0)
    return ExperimentReport(
        verdicts={
            "horizon": horizon,
            "inputs": "".join(str(u) for u in inputs),
            "bounds_pass": all(r["pass"] for r in rows),
            "static_after_00_on_input0": [
                format_rational(v) for v in static_demo.values
            ],
        },
        bound_rows=rows,
    )


def run_regression_demo(
    cfg: ExperimentConfig, horizon: int, samples: int
) -> ExperimentReport:
    models = [GaussianModel(0.0), GaussianModel(1.0)]
    weights = [Fraction(1, 2), Fraction(1, 2)]
    chosen = regression_map(models, weights, [0, 0], [0.1, -0.2])
    summary = monte_carlo_regression_hellinger(
        models, weights, 0, [0] * horizon, samples, cfg.seed
    )
    foot = {n: footnote_density_demo(n) for n in (3, 9, 27)}
    foot_ok = all(
        abs(sq - 2 * n / 9) <= 1e-8 and abs(kl - math.log(2) / 3) <= 1e-8
        for n, (sq, kl) in foot.items()
    )
    return ExperimentReport(
        verdicts={
            "map_for_small_data_is_mean0": chosen == 0,
            "hellinger_mc_mean": summary.mean,
            "hellinger_mc_stderr": summary.stderr,
            "hellinger_budget_21x": summary.bound,
            "hellinger_within_budget": summary.within_bound,
            "footnote_values": {
                str(n): {"square": sq, "kl": kl} for n, (sq, kl) in foot.items()
            },
            "footnote_ok": foot_ok,
        },
    )


def run_coding_roundtrip(cfg: ExperimentConfig, cases: int) -> ExperimentReport:
    rng = suite_rng(cfg.seed, 424242)
    classes = [
        bernoulli_class([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
        bernoulli_class([Fraction(1, 3), Fraction(2, 3)]),
        WeightedClass(
            [DeterministicModel((), (1, 0)), IidModel((Fraction(1, 2), Fraction(1, 2)))],
            [Fraction(1, 2), Fraction(1, 2)],
        ),
    ]
    roundtrip_failures = 0
    length_failures = 0
    corrupt_detected = 0
    corrupt_decoded_other = 0
    corrupt_same_string = 0
    from .values import neg_log2_ceil

    for _ in range(cases):
        cls = rng.choice(classes)
        index = rng.randrange(len(cls.models))
        model = cls.models[index]
        n = rng.randint(0, 24)
        word = tuple(sample_path(model, n, rng)) if n else ()
        code = encode(cls, index, word)
        p = model.evaluate_exact(word)
        if len(code.payload) != neg_log2_ceil(p):
            length_failures += 1
        if decode(cls, code.bits) != word:
            roundtrip_failures += 1
        if code.total_bits and rng.random() < 0.1:
            pos = rng.randrange(code.total_bits)
            bits = code.bits
            corrupted = bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1 :]
            try:
                got = decode(cls, corrupted)
            except MalformedCodeError:
                corrupt_detected += 1
            else:
                # A flip can land on another canonical codeword; when it
                # names a different model with the same interval geometry
                # the decoded string may even coincide with the original.
                if got == word:
                    corrupt_same_string += 1
                else:
                    corrupt_decoded_other += 1
    seq_block_ok = True
    for cls in classes:
        for index in range(len(cls.models)):
            for n in (0, 3, 7, 12):
                word = tuple(sample_path(cls.models[index], n, rng)) if n else ()
                if sequential_interval(cls, index, word) != block_interval(
                    cls, index, word
                ):
                    seq_block_ok = False
    kraft = {
        f"class{i}_model{j}": kraft_sum(cls, j, 10)
        for i, cls in enumerate(classes)
        for j in range(len(cls.models))
    }
    return ExperimentReport(
        verdicts={
            "cases": cases,
            "roundtrip_failures": roundtrip_failures,
            "payload_length_failures": length_failures,
            "corrupt_rejected": corrupt_detected,
            "corrupt_decoded_to_other_string": corrupt_decoded_other,
            "corrupt_decoded_to_same_string": corrupt_same_string,
            "sequential_equals_block_to_12": seq_block_ok,
            "kraft_sums_le_1": all(v <= 1 for v in kraft.values()),
            "kraft_max": _fmt_exact(max(kraft.values())),
            "all_ok": roundtrip_failures == 0
            and length_failures == 0
            and seq_block_ok,
        },
    )


class Knob(NamedTuple):
    """An integer an experiment reads; a None default is derived by the runner."""

    default: Optional[int]
    minimum: int = 1


FLAG_KNOBS = ("horizon", "samples")


@dataclass(frozen=True)
class ExperimentEntry:
    """A registered experiment and its knob table.

    ``knobs`` holds every ``--param`` the runner reads, plus ``horizon``
    and ``samples`` when it reads those; the runner gets their resolved
    values as keyword arguments.  ``reads`` names which of ``tie_break``
    and ``loss_spec`` it honours.  Every runner may read seed and workers.
    """

    name: str
    runner: Callable[..., ExperimentReport]
    description: str
    knobs: Mapping[str, Knob] = field(default_factory=dict)
    reads: FrozenSet[str] = frozenset()


REGISTRY: Dict[str, ExperimentEntry] = {
    entry.name: entry
    for entry in (
        ExperimentEntry(
            "bound_suite",
            run_bound_suite,
            "Randomized measure classes: verify the mixture ln(1/w) budget, "
            "the normalized-dynamic W+ln(W) square/KL budgets, the dynamic "
            "2W sum defects, the static W sum defect, and the square/"
            "Hellinger budgets {2,8,21,32}W, all with exact nonnegative slack.",
            dict(classes=Knob(200), phase=Knob(0, 0), horizon=Knob(10)),
            frozenset({"tie_break"}),
        ),
        ExperimentEntry(
            "example1",
            run_example1,
            "N equally weighted deterministic models dying one per step: the "
            "normalized dynamic predictor stays at 1/2 for N-1 steps, making "
            "its cumulative square error exactly (N-1)/2.  The horizon "
            "defaults to N + 2.",
            dict(N=Knob(5, 2), horizon=Knob(None)),
        ),
        ExperimentEntry(
            "example2_mc",
            run_example2_mc,
            "Bernoulli parameters crowding the fair coin from above: exact "
            "static-selection square ledger at short horizons (optional "
            "Monte-Carlo extension) compared against the mixture budget "
            "ln(1/w); the per-step error cap 1/8 makes short-horizon "
            "crossings impossible.",
            dict(N=Knob(6), guard=Knob(20_000_000), mc_horizon=Knob(0, 0),
                 horizon=Knob(14), samples=Knob(500)),
        ),
        ExperimentEntry(
            "example3_hybrid",
            run_example3_hybrid,
            "Exact-tie class: under rotating tie-breaks the hybrid quotients "
            "oscillate between 1/4 and 1 forever while dynamic and static "
            "normalized predictions remain exactly 1/2; largest-weight "
            "tie-breaking freezes the choice.",
            dict(horizon=Knob(100)),
        ),
        ExperimentEntry(
            "example4_ratio",
            run_example4_ratio,
            "Two factorizable measures whose likelihood ratio converges while "
            "oscillating: increment sign changes of the exact ratio along the "
            "all-ones sequence, and the weight pairs for which the maximizer "
            "keeps flipping.",
            dict(horizon=Knob(60)),
        ),
        ExperimentEntry(
            "example5_martingale",
            run_example5_martingale,
            "Oscillating-martingale measure against the uniform one: exact "
            "martingale identity, dead-path mass at most 1/4 at every depth, "
            "and the Monte-Carlo fraction of paths whose maximizer never "
            "settles (>= 1/2 finite-horizon proxy).",
            dict(identity_depth=Knob(12), mass_depth=Knob(20), window=Knob(500),
                 horizon=Knob(2000), samples=Knob(500)),
        ),
        ExperimentEntry(
            "stabilization_mc",
            run_stabilization_mc,
            "Positive case: four Bernoulli models (factorizable, uniformly "
            "stochastic) where the maximizer settles on almost every sampled "
            "path; reports the stabilized fraction under the finite-window "
            "proxy.",
            dict(window=Knob(500), horizon=Knob(2000), samples=Knob(500)),
        ),
        ExperimentEntry(
            "loss_bounds",
            run_loss_bounds,
            "Random class/loss pairs: per-step regret <= 2h + 2 sqrt(2 h l), "
            "its cumulative counterpart, and the final loss bound with "
            "constant {2,8,21,32} per predictor, all on exact traces.",
            dict(pairs=Knob(100), horizon=Knob(8)),
            frozenset({"loss_spec"}),
        ),
        ExperimentEntry(
            "unit_square_scan",
            run_unit_square_scan,
            "Grid scan of the scalar inequality delta~ <= 2h + 2 sqrt(2 h l~) "
            "over the unit square of (true, believed) probabilities; reports "
            "the maximum violation.",
            dict(m=Knob(2001, 2)),
        ),
        ExperimentEntry(
            "classification_demo",
            run_classification_demo,
            "Label-noise channels with inputs: joint-likelihood selection, "
            "and the exact reduction to a sequence class under which the "
            "{2,8,21}W square budgets are re-verified for a fixed input "
            "sequence.",
            dict(horizon=Knob(8)),
        ),
        ExperimentEntry(
            "regression_demo",
            run_regression_demo,
            "Bounded-density regression with Gaussians: density-MAP "
            "selection, Monte-Carlo cumulative Hellinger ledger against the "
            "21W budget, and the mirrored-density pair separating square "
            "distance from relative entropy.",
            dict(horizon=Knob(50), samples=Knob(400)),
        ),
        ExperimentEntry(
            "coding_roundtrip",
            run_coding_roundtrip,
            "Two-part code fuzzing: round-trip identity, payload length "
            "exactly ceil(-lb nu(x)), Kraft sums at most 1, and sequential "
            "interval refinement equal to block enumeration.",
            dict(cases=Knob(10_000)),
        ),
    )
}


def resolve_knobs(cfg: ExperimentConfig) -> Dict[str, Optional[int]]:
    """Every knob's value for a config, checked against its knob table.

    Raises ConfigError for an unknown experiment, a param or a non-default
    field the experiment does not read (``phase`` is read only under the
    round-robin tie-break), and a value that is not an integer or lies
    below its minimum.
    """
    entry = REGISTRY.get(cfg.experiment)
    if entry is None:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    default = ExperimentConfig(cfg.experiment)
    unread = [f"param {k!r}" for k in cfg.params if k not in entry.knobs or k in FLAG_KNOBS]
    unread += [
        name
        for name in (*FLAG_KNOBS, "tie_break", "loss_spec")
        if name not in {*entry.knobs, *entry.reads}
        and getattr(cfg, name) != getattr(default, name)
    ]
    if "phase" in cfg.params and "phase" in entry.knobs and cfg.tie_break != "round_robin":
        unread.append("param 'phase' unless tie_break is round_robin")
    if unread:
        raise ConfigError(f"{entry.name} does not read {', '.join(unread)}")
    values = {}
    for name, knob in entry.knobs.items():
        raw = getattr(cfg, name) if name in FLAG_KNOBS else cfg.params.get(name)
        try:
            values[name] = knob.default if raw is None else int(str(raw))
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
        if raw is not None and values[name] < knob.minimum:
            raise ConfigError(f"{name} must be at least {knob.minimum}, got {raw}")
    return values


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    values = resolve_knobs(cfg)
    start = time.perf_counter()
    report = REGISTRY[cfg.experiment].runner(cfg, **values)
    report.wall_clock_s = time.perf_counter() - start
    report.experiment = cfg.experiment
    report.config = cfg.echo()
    return report
