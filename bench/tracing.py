"""Spans and counts recorded at the library's layer boundaries.

The library has no spans of its own.  The traced run rebinds the module
attribute each caller resolves at call time (for example
``mdl_lab.metrics.walk_support`` and ``mdl_lab.enclosure.sqrt_interval``)
to a wrapper that times the call.  Nothing under ``src/`` changes, and
:meth:`Tracer.uninstall` restores every binding.

Coarse calls (``check_bounds``, ``walk_support``, ``map_trace``, ...) are
kept as individual spans: name, start, end, parent span and the id of the
benchmark operation that caused them.  Hot leaf calls (``sqrt_interval``,
``step_distances``, ``map_estimator``, the per-node ``visit`` callbacks)
are aggregated per name, so memory stays small.  Either way a call's
duration is charged to its parent as child time, and self time is duration
minus child time.

Counts are read from arguments and return values at the same boundaries:
the node total ``walk_support`` returns, the ``ln_interval`` arguments, the
bit length of ``node.weight`` and of the values along a ``map_trace``.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter

from mdl_lab import (
    coding,
    decisions,
    enclosure,
    metrics,
    model_class,
    predictors,
    stabilization,
)

CAPTURE_LIMIT = 256  # captured arguments per function, for the unit costs

# Part -> family key of the stabilization.map_trace_max_bits.* counts.
PATH_FAMILY = {"bernoulli": "bernoulli", "parallel": "bernoulli", "martingale": "martingale"}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._undo = []
        self.t0 = perf_counter()
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = defaultdict(int)
        self.ln_args = set()
        self.captured = defaultdict(list)
        self.op = None  # id of the benchmark operation being run
        self.part = None
        self.active = True  # off while the benchmark checks outputs

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, record=True, before=None, after=None):
        """A traced version of ``fn``.

        ``before(args, kwargs, name)`` may replace the arguments;
        ``after(args, kwargs, result)`` reads counts, and its own time is
        charged to the parent as child time so it inflates no self time.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if before is not None:
                args, kwargs = before(args, kwargs, name)
            frame = [0.0, tracer._new_id() if record else None, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                tracer._account(name, frame, parent, start, end)
            if after is not None:
                t = perf_counter()
                after(args, kwargs, return_value)
                if parent is not None:
                    parent[0] += perf_counter() - t
            return return_value

        return traced

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _account(self, name, frame, parent, start, end) -> None:
        duration = end - start
        with self._lock:
            row = self.totals[name]
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[0]
            if frame[1] is not None:
                self.spans.append(
                    {
                        "id": frame[1],
                        "name": name,
                        "parent": parent[1] if parent is not None else None,
                        "op": self.op,
                        "start": start - self.t0,
                        "end": end - self.t0,
                    }
                )

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def maximum(self, key: str, value: int) -> None:
        with self._lock:
            if value > self.counts[key]:
                self.counts[key] = value

    def capture(self, name: str, args: tuple) -> None:
        with self._lock:
            store = self.captured[name]
            if len(store) < CAPTURE_LIMIT:
                store.append(args)

    def self_seconds(self, *names) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    # -- installing ----------------------------------------------------------

    def patch(self, module, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, **kw))
        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        """Rebind every traced boundary; undone by :meth:`uninstall`."""
        span = self.patch

        def leaf(module, attr, name, **kw):
            self.patch(module, attr, name, record=False, **kw)

        span(metrics, "check_bounds", "metrics.check_bounds")
        span(metrics, "cumulative_distances", "metrics.cumulative_distances")
        span(metrics, "monte_carlo_distances", "metrics.monte_carlo_distances")
        for module in (metrics, decisions):
            span(
                module, "walk_support", "metrics.walk_support",
                before=self._wrap_visit, after=self._count_nodes,
            )
        for module in (metrics, stabilization):
            span(module, "ordered_parallel_map", "metrics.ordered_parallel_map")
        span(decisions, "decision_traces", "decisions.decision_traces")
        span(decisions, "check_regret_bound", "decisions.check_regret_bound")
        span(
            stabilization, "monte_carlo_stabilization",
            "stabilization.monte_carlo_stabilization",
        )
        span(stabilization, "map_trace", "stabilization.map_trace", after=self._count_trace_bits)
        span(stabilization, "sample_path", "measures.sample_path")
        span(predictors, "predict_dynamic", "predictors.predict_dynamic")
        span(predictors, "predict_static", "predictors.predict_static")

        for module in (enclosure, decisions):
            leaf(
                module, "sqrt_interval", "enclosure.sqrt_interval",
                after=lambda args, kwargs, _: self.capture("enclosure.sqrt_interval", args),
            )
        for module in (enclosure, metrics):
            leaf(module, "ln_interval", "enclosure.ln_interval", after=self._count_ln)
        for module in (metrics, decisions):
            leaf(module, "hellinger_term", "enclosure.hellinger_term")
        leaf(metrics, "kl_term", "enclosure.kl_term")
        leaf(
            metrics, "step_distances", "metrics.step_distances",
            after=lambda args, kwargs, _: self.capture("metrics.step_distances", args),
        )
        for module in (model_class, predictors, coding):
            leaf(module, "map_estimator", "model_class.map_estimator")
        leaf(model_class, "two_part_value", "model_class.two_part_value")
        leaf(model_class, "two_part_value_at", "model_class.two_part_value_at")
        leaf(predictors, "bayes_mixture", "predictors.bayes_mixture")
        leaf(coding, "encode", "coding.encode")
        leaf(coding, "decode", "coding.decode")

    # -- hooks ---------------------------------------------------------------

    def _wrap_visit(self, args, kwargs, name):
        """Charge each per-node visit callback to the walk's caller."""
        stack = self._stack()
        caller = stack[-1][2] if stack else "unknown"
        args = list(args)
        if len(args) > 2:
            args[2] = self.wrap(f"{caller}.visit", args[2], record=False, after=self._count_weight)
        else:
            kwargs = dict(kwargs)
            kwargs["visit"] = self.wrap(
                f"{caller}.visit", kwargs["visit"], record=False, after=self._count_weight
            )
        return tuple(args), kwargs

    def _count_nodes(self, args, kwargs, nodes):
        self.add(f"metrics.walk_support_nodes.{self.part}", nodes)

    def _count_weight(self, args, kwargs, _):
        self.maximum("metrics.max_denominator_bits", args[0].weight.denominator.bit_length())

    def _count_ln(self, args, kwargs, _):
        prec = args[1] if len(args) > 1 else kwargs.get("prec_bits")
        with self._lock:
            self.counts["enclosure.ln_interval_calls"] += 1
            self.ln_args.add((args[0], prec))
        self.capture("enclosure.ln_interval", args)

    def _count_trace_bits(self, args, kwargs, _):
        """Largest denominator, in bits, of w_nu * nu(x) at the trace's end."""
        family = PATH_FAMILY.get(self.part)
        if family is None:
            return
        cls, x = args[0], args[1]
        word = cls.word(x)
        bits = 0
        for model, weight in zip(cls.models, cls.weights):
            cur = model.cursor()
            for a in word:
                cur = cur.advance(a)
            bits = max(bits, (weight * cur.value).denominator.bit_length())
        self.maximum(f"stabilization.map_trace_max_bits.{family}", bits)

    def summary(self) -> dict:
        return {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.totals.items())
        }
