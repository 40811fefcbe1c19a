#!/usr/bin/env python3
"""The mdl-lab benchmark: three seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload exact_walk --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py``):

* ``exact_walk``    -- check_bounds, loss pairs and the example-2 ledger:
                       exact tree walks and certified enclosures;
* ``long_paths``    -- stabilization paths (serial and threaded) and Monte
                       Carlo ledgers: sampling and map_trace on big Fractions;
* ``point_queries`` -- short functional queries and two-part code round
                       trips.

One process, one client: each operation starts when the previous one has
been checked.  The item list is repeated in rounds for ``--seconds``.  Each
operation's time is divided by a reference loop timed next to it; every
item keeps the median over the rounds it ran in, and ``round_cost`` is the
sum of those medians.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the list for half of ``--seconds`` untraced, then once
traced, and prints the per-layer metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record (host, digests, per-item times, spans) goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4  # fresh-interpreter set-ups; with the in-process one, a median of 5
SETUP_TIMEOUT_S = 120
OVERRUN_S = 1.0
REF_EVERY_S = 0.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("exact_walk", "long_paths", "point_queries"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="one item per part (smoke runs)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, small: bool):
    """Import the library and build the workload's inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads.build(workload, seed, small)


def setup_probe(args) -> float:
    """Set-up time in a fresh interpreter, which pays the imports again."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# Running and checking operations
# ----------------------------------------------------------------------


class Checker:
    """Checks every operation's output; counts attempts and failures."""

    def __init__(self, reference):
        self.reference = reference  # item id -> record, or None off the default seed
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (item id, message), first few per item
        self.digests = {}
        self.inconclusive = {"metrics.inconclusive": 0, "decisions.inconclusive": 0}
        self.min_slack_over_width = None

    def check(self, item, output, error) -> None:
        from checks import compare

        self.attempted += 1
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
            self._count_inconclusive(error)
        else:
            try:
                canon = item.canon(output)
            except Exception as exc:  # a malformed output is a failed operation
                problems = [f"checking raised {type(exc).__name__}: {exc}"]
            else:
                problems = list(canon.problems)
                previous = self.digests.setdefault(item.id, canon.digest)
                if previous != canon.digest:
                    problems.append("exact outputs changed between rounds")
                if item.same_as is not None:
                    twin = self.digests.get(item.same_as)
                    if twin is not None and twin != canon.digest:
                        problems.append(f"exact outputs differ from {item.same_as}")
                if self.reference is not None:
                    problems += compare(canon, self.reference.get(item.id))
                m = canon.min_slack_over_width
                if m is not None and (
                    self.min_slack_over_width is None or m < self.min_slack_over_width
                ):
                    self.min_slack_over_width = m
        if problems:
            self.failed += 1
            known = sum(1 for pid, _ in self.problems if pid == item.id)
            self.problems += [(item.id, p) for p in problems[: max(0, 3 - known)]]

    def _count_inconclusive(self, error) -> None:
        if not isinstance(error, RuntimeError):
            return
        tb = error.__traceback__
        module = None
        while tb is not None:
            name = tb.tb_frame.f_globals.get("__name__", "")
            if name.startswith("mdl_lab."):
                module = name.split(".", 1)[1]
            tb = tb.tb_next
        key = f"{module}.inconclusive"
        if key in self.inconclusive:
            self.inconclusive[key] += 1


def run_item(item, checker, tracer=None) -> float:
    """Run one operation, check it, and return its wall time.

    With a tracer, spans are recorded for the operation but not for the
    checks that follow it.
    """
    if tracer is not None:
        tracer.op, tracer.part, tracer.active = item.id, item.part, True
    output = error = None
    start = perf_counter()
    try:
        output = item.run()
    except Exception as exc:  # counted as a failed operation; the run goes on
        error = exc
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    checker.check(item, output, error)
    return elapsed


def ref_loop() -> float:
    """Seconds for a fixed pure-Python loop of integer and Fraction arithmetic.

    Timed next to the operations, so that their cost can be expressed in
    reference-loop units (steady on a host whose speed drifts) and hosts
    can be compared as ratios.
    """
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    q = Fraction(0)
    for i in range(1, 400):
        q += Fraction(1, i)
    return perf_counter() - start


def measure(items, seconds: float, checker) -> tuple:
    """Closed loop over rounds of the item list until ``seconds`` pass.

    The first round always completes, so every item has a sample.  Later,
    an item is skipped when its last time would carry it more than
    ``OVERRUN_S`` past the deadline, so heavy items cannot stretch a run.

    The reference loop runs at most every ``REF_EVERY_S`` between items and
    after every longer item; each sample's cost is its time divided by the
    reference time around it.  Rounds alternate between the CPUs the process
    may use (items that need every CPU get them all), so that no run's
    figures depend on which CPU the scheduler happened to pick.  Returns
    (seconds, costs, reference times), the first two per item id.
    """
    samples = {it.id: [] for it in items}
    costs = {it.id: [] for it in items}
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    refs = []
    ref_at = -math.inf
    deadline = perf_counter() + seconds
    rounds = 0
    try:
        while rounds == 0 or perf_counter() < deadline:
            for it in items:
                now = perf_counter()
                if rounds and now + samples[it.id][-1] > deadline + OVERRUN_S:
                    continue
                os.sched_setaffinity(0, allowed if it.all_cpus else {cpus[rounds % len(cpus)]})
                if now - ref_at > REF_EVERY_S:
                    refs.append(ref_loop())
                    ref_at = perf_counter()
                before = refs[-1]
                elapsed = run_item(it, checker)
                scale = before
                if elapsed > REF_EVERY_S:
                    refs.append(ref_loop())
                    ref_at = perf_counter()
                    scale = (before + refs[-1]) / 2
                samples[it.id].append(elapsed)
                costs[it.id].append(elapsed / scale)
            rounds += 1
    finally:
        os.sched_setaffinity(0, allowed)
    return samples, costs, refs


def medians(samples: dict) -> dict:
    return {k: statistics.median(v) for k, v in samples.items()}


def part_times(items, item_medians: dict) -> dict:
    parts = {}
    for it in items:
        seconds, units = parts.get(it.part, (0.0, 0))
        parts[it.part] = (seconds + item_medians[it.id], units + it.units)
    return parts


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------


def host_record(ref_loop_s: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "ref_loop_s": ref_loop_s,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_sha():
    """HEAD of the checkout's .git, when it has one (read without git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def _src_digest() -> str:
    """SHA-256 over the library sources: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mdl_lab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------


def end_to_end(items, args, checker, record, ref_times) -> dict:
    samples, costs, refs = measure(items, args.seconds, checker)
    ref_times += refs
    item_medians = medians(samples)
    cost_medians = medians(costs)
    record["items"] = {
        it.id: {
            "part": it.part,
            "samples_s": samples[it.id],
            "median_s": item_medians[it.id],
            "median_cost": cost_medians[it.id],
        }
        for it in items
    }
    record["parts"] = _parts_record(items, item_medians)
    record["round_s"] = sum(item_medians.values())
    return {
        "round_cost": {"value": sum(cost_medians.values()), "unit": "ref_loops"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def _parts_record(items, item_medians) -> dict:
    return {
        part: {"seconds": s, "units": u, "per_s": u / s if s > 0 else 0.0}
        for part, (s, u) in part_times(items, item_medians).items()
    }


def per_layer(items, args, checker, record, ref_times) -> dict:
    import microbench
    import tracing
    import workloads
    from layers import PER_LAYER

    untraced, _, refs = measure(items, args.seconds / 2, checker)
    ref_times += refs
    untraced_medians = medians(untraced)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = {it.id: run_item(it, checker, tracer) for it in items}
    finally:
        tracer.uninstall()
    traced_total = sum(traced.values())
    ref_times.append(ref_loop())
    units = microbench.run_all(args.seed, tracer.captured)

    values = {}
    parts = part_times(items, untraced_medians)
    for part, rate_name in workloads.PART_RATES.items():
        seconds, n = parts.get(part, (0.0, 0))
        values[rate_name] = n / seconds if seconds > 0 else 0.0
    serial, parallel = values["part.bernoulli_paths_per_s"], values["part.parallel_paths_per_s"]
    values["stabilization.parallel_speedup"] = parallel / serial if serial > 0 else 0.0

    for part in ("bounds", "loss_pairs", "deep_ledger"):
        values[f"metrics.walk_support_nodes.{part}"] = tracer.counts.get(
            f"metrics.walk_support_nodes.{part}", 0
        )
    values["metrics.max_denominator_bits"] = tracer.counts.get("metrics.max_denominator_bits", 0)
    values["enclosure.ln_interval_calls"] = tracer.counts.get("enclosure.ln_interval_calls", 0)
    values["enclosure.ln_interval_distinct_args"] = len(tracer.ln_args)
    for family in ("bernoulli", "martingale"):
        key = f"stabilization.map_trace_max_bits.{family}"
        values[key] = tracer.counts.get(key, 0)

    def share(*names):
        return tracer.self_seconds(*names) / traced_total

    values["metrics.walk_support_self_share"] = share("metrics.walk_support")
    values["metrics.check_bounds_self_share"] = share(
        "metrics.check_bounds", "metrics.check_bounds.visit"
    )
    values["decisions.decision_traces_self_share"] = share(
        "decisions.decision_traces", "decisions.decision_traces.visit"
    )
    values["enclosure.self_share"] = share(
        "enclosure.sqrt_interval", "enclosure.ln_interval",
        "enclosure.hellinger_term", "enclosure.kl_term",
    )
    values["enclosure.min_slack_over_width"] = checker.min_slack_over_width or 0.0
    values.update(checker.inconclusive)
    values.update(units)

    untraced_total = sum(untraced_medians.values())
    values["round_s"] = untraced_total
    values["trace_overhead_ratio"] = traced_total / untraced_total
    values["ops_failed_ratio"] = checker.failed / checker.attempted
    ref_times.append(ref_loop())
    values["host.ref_loop_s"] = statistics.median(ref_times)

    record["items"] = {
        it.id: {
            "part": it.part,
            "untraced_samples_s": untraced[it.id],
            "traced_s": traced[it.id],
        }
        for it in items
    }
    record["parts"] = _parts_record(items, untraced_medians)
    record["span_totals"] = tracer.summary()
    record["spans"] = tracer.spans
    record["traced_total_s"] = traced_total

    missing = [m["name"] for m in PER_LAYER if m["name"] not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdl_lab" / "__init__.py").is_file():
        print(f"error: the library sources are missing ({SRC / 'mdl_lab'})", file=sys.stderr)
        return 2
    if args.setup_probe:
        start = perf_counter()
        setup(args.workload, args.seed, args.small)
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0

    setup_samples = [setup_probe(args) for _ in range(SETUP_PROBES)]
    start = perf_counter()
    items = setup(args.workload, args.seed, args.small)
    setup_samples.append(perf_counter() - start)

    import checks

    reference = checks.load_reference() if args.seed == checks.DEFAULT_SEED else None
    checker = Checker(reference)
    ref_times = []
    record = {"args": vars(args), "setup_samples_s": setup_samples}

    setup_s = {"value": statistics.median(setup_samples), "unit": "s"}
    if args.trace:
        metrics_out = per_layer(items, args, checker, record, ref_times)
    else:
        metrics_out = {"setup_s": setup_s, **end_to_end(items, args, checker, record, ref_times)}

    record["host"] = host_record(statistics.median(ref_times))
    record["digest"] = checks.run_digest(checker.digests)
    record["item_digests"] = checker.digests
    record["reference_compared"] = reference is not None
    record["problems"] = checker.problems
    record["inconclusive"] = checker.inconclusive
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics_out,
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    host = record["host"]
    print(
        f"host: nproc={host['nproc']} python={host['python']} cpu={host['cpu_model']!r} "
        f"git={host['git_sha']} src={host['src_sha256'][:12]} ref_loop_s={host['ref_loop_s']:.4f}"
    )
    print(f"digest: {record['digest']} (reference compared: {record['reference_compared']})")
    for part, row in record["parts"].items():
        print(f"part {part}: {row['units']} units in {row['seconds']:.4f} s ({row['per_s']:.4g}/s)")
    for item_id, message in checker.problems:
        print(f"FAILED {item_id}: {message}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
