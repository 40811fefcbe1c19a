"""One untimed round of every benchmark workload at seed 0 against the
recorded reference.

``bench/run.py`` compares each seed-0 item with ``bench/reference_seed0.json``
through its own checker: exact values by digest, enclosures by
intersection, floats to a relative 1e-9, plus each part's invariants.  A
change that moves a sampled path, a MAP trace or a ledger float then fails
here, not only in a benchmark run.  The test reads ``bench/`` and writes
nothing.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["exact_walk", "long_paths", "point_queries"])
def test_seed0_round_matches_the_reference(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import run
    import workloads

    items = workloads.build(workload, checks.DEFAULT_SEED)
    checker = run.Checker(checks.load_reference())
    for item in items:
        run.run_item(item, checker)
    assert checker.attempted == len(items) > 0
    assert checker.failed == 0, checker.problems
