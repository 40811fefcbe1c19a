"""The layer benchmark builds and reads prediction nodes by name.

``bench/microbench.py`` constructs ``metrics.PredictionNode`` from a
class, tie-break, prefix, cursors and weight, steps with ``child_node``,
rebuilds fresh nodes from ``tie_break``, ``prefix``, ``cursors`` and
``weight``, and reads ``true_conditionals`` and each of its
``PREDICTION_KINDS``.  This test uses that surface the same way, so a
node refactor that breaks the benchmark fails here too.
"""

from fractions import Fraction
from pathlib import Path

from mdl_lab import measures, metrics, model_class, suites

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_node_surface_read_by_the_layer_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import microbench

    for cls in (suites.random_measure_class(0, 3), model_class.example3_class()):
        path = measures.sample_path(cls.true_model, 6, measures.derived_rng(0, 1))
        node = metrics.PredictionNode(
            cls, model_class.LARGEST_WEIGHT, (), [m.cursor() for m in cls.models], Fraction(1)
        )
        nodes = [node]
        for a in path:
            node = node.child_node(a)
            nodes.append(node)
        assert [n.t for n in nodes] == list(range(len(path) + 1))
        assert nodes[-1].prefix == path and nodes[0].weight == 1
        for n, a in zip(nodes, path):
            assert n.child_cursors[a] is nodes[n.t + 1].cursors
            assert nodes[n.t + 1].weight == n.weight * n.true_conditionals()[a]
        for n in nodes:
            fresh = metrics.PredictionNode(cls, n.tie_break, n.prefix, n.cursors, n.weight)
            assert sum(fresh.true_conditionals()) == 1
            for kind in microbench.PREDICTION_KINDS:
                assert fresh.prediction(kind) == n.prediction(kind), (kind, n.prefix)
