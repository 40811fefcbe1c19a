"""One untimed round of every benchmark workload at seed 0 against the
recorded reference.

``bench/run.py`` compares each seed-0 item with ``bench/reference_seed0.json``
through its own checker: exact values by digest, enclosures by
intersection, floats to a relative 1e-9, plus each part's invariants.  A
change that moves a sampled path, a MAP trace or a ledger float then fails
here, not only in a benchmark run.  The test reads ``bench/`` and writes
nothing.

Building a workload's items searches seeds for paths of a wanted kind
(``workloads._long_paths`` keeps drawing martingale paths until it has
enough that die early and enough that stay alive), so a change to the
draws could keep that search going forever.  Each build therefore runs
under a time budget and fails with a message naming the set-up.
"""

import signal
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

BUILD_BUDGET_S = 60  # set-up takes well under a second on a 2-vCPU host


def _build_within(workloads, workload: str, seed: int, budget_s: int):
    """workloads.build(workload, seed), or a test failure after budget_s seconds."""

    def expired(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(budget_s)
    try:
        return workloads.build(workload, seed)
    except TimeoutError:
        pytest.fail(
            f"building the {workload} workload at seed {seed} took over {budget_s} s: "
            "its set-up did not finish (does a seed search never end?)"
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import run
    import workloads

    return checks, run, workloads


@pytest.mark.parametrize("workload", ["exact_walk", "long_paths", "point_queries"])
def test_seed0_round_matches_the_reference(bench, workload):
    checks, run, workloads = bench
    items = _build_within(workloads, workload, checks.DEFAULT_SEED, BUILD_BUDGET_S)
    checker = run.Checker(checks.load_reference())
    for item in items:
        run.run_item(item, checker)
    assert checker.attempted == len(items) > 0
    assert checker.failed == 0, checker.problems


def test_a_set_up_that_never_ends_fails_with_its_name(bench, monkeypatch):
    # No martingale path ever dies early, so the seed search never ends.
    _, _, workloads = bench
    monkeypatch.setattr(workloads, "_martingale_dies", lambda cls, mc_seed: False)
    with pytest.raises(pytest.fail.Exception, match="building the long_paths workload"):
        _build_within(workloads, "long_paths", 0, 1)
