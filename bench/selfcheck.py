#!/usr/bin/env python3
"""Smoke check of the benchmark itself (about a minute).

    python3 bench/selfcheck.py

1. ``BENCHMARK.json`` lists exactly the metrics of ``layers.py``, with the
   same units, directions and bounds.
2. A small run of every workload, untraced and traced, prints a last line
   with exactly the result keys, every metric named in ``BENCHMARK.json``
   with its unit, no failed operation, and the reference compared.
3. A deliberately altered exact value, a disjoint enclosure and a flipped
   verdict each count as a failed operation; a narrowed enclosure does not.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_tables(doc, fail) -> None:
    from layers import END_TO_END, PER_LAYER

    if doc["end_to_end"] != END_TO_END:
        fail("BENCHMARK.json end_to_end differs from layers.END_TO_END")
    want = [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER]
    if doc["per_layer"] != want:
        fail("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    for m in PER_LAYER:
        if not (m["moves"] and m["on"] and m["unchanged_on"]):
            fail(f"{m['name']}: the layer table lacks what it should move")


def check_runs(doc, fail) -> None:
    for workload in (w["name"] for w in doc["workloads"]):
        for trace, table in ((0, doc["end_to_end"]), (1, doc["per_layer"])):
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--small"]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                fail(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                fail(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{label}: {result['failed']} of {result['attempted']} operations failed")
            got = result["metrics"]
            if set(got) != {m["name"] for m in table}:
                fail(f"{label}: metric names differ from BENCHMARK.json")
            for m in table:
                entry = got.get(m["name"], {})
                if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
                    fail(f"{label}: {m['name']} emitted as {entry}")
            if "reference compared: True" not in done.stdout:
                fail(f"{label}: the reference was not compared")
            print(f"ok: {label} ({result['attempted']} operations)", flush=True)


def check_alterations(fail) -> None:
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads

    reference = checks.load_reference()
    items = {it.part: it for it in workloads.build("exact_walk", 0, small=True)}
    codes = workloads.build("point_queries", 0, small=True)[-1]
    bounds = items["bounds"]

    def first_row(reports, pred):
        return next(n for n, r in enumerate(reports) if pred(r))

    def alter_code(pairs):
        code, decoded = pairs[0]
        flipped = code.payload[:-1] + ("1" if code.payload[-1:] == "0" else "0")
        return [(dataclasses.replace(code, payload=flipped), decoded)] + pairs[1:]

    def alter_exact(reports):
        n = first_row(reports, lambda r: r.measured.is_point)
        r = reports[n]
        bumped = r.measured + Fraction(1, 1000)
        return reports[:n] + [dataclasses.replace(r, measured=bumped)] + reports[n + 1:]

    def shift_enclosure(shift):
        def alter(reports):
            n = first_row(reports, lambda r: not r.measured.is_point)
            r = reports[n]
            iv = shift(r.measured)
            return reports[:n] + [dataclasses.replace(r, measured=iv)] + reports[n + 1:]

        return alter

    def flip_verdict(reports):
        return [dataclasses.replace(reports[0], passed=not reports[0].passed)] + reports[1:]

    def narrowed(iv):
        return type(iv)(iv.lo + iv.width / 4, iv.hi - iv.width / 4)

    def disjoint(iv):
        return type(iv)(iv.hi + 1, iv.hi + 2)

    cases = [
        ("altered code bit", codes, alter_code, True),
        ("altered exact ledger value", bounds, alter_exact, True),
        ("disjoint enclosure", bounds, shift_enclosure(disjoint), True),
        ("flipped verdict", bounds, flip_verdict, True),
        ("narrowed enclosure", bounds, shift_enclosure(narrowed), False),
    ]
    for label, item, alter, should_fail in cases:
        probe = dataclasses.replace(item, run=lambda item=item, alter=alter: alter(item.run()))
        checker = run.Checker(reference)
        run.measure([probe], 0, checker)
        if (checker.failed >= 1) != should_fail or checker.attempted != 1:
            fail(f"{label}: {checker.failed} of {checker.attempted} failed ({checker.problems})")
        else:
            verdict = "failed operation" if should_fail else "accepted"
            print(f"ok: {label} -> {verdict}", flush=True)


def main() -> int:
    problems = []
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_tables(doc, problems.append)
    check_alterations(problems.append)
    check_runs(doc, problems.append)
    for p in problems:
        print(f"FAIL: {p}")
    print("self-check passed" if not problems else f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
