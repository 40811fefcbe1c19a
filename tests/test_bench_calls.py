"""The benchmark's calls into the library bind to today's signatures.

``bench/*.py`` calls the library through module attributes
(``stabilization.monte_carlo_stabilization(..., workers=...)``).  This test
parses those files and binds every such call without ``*`` or ``**``
arguments, by its positional count and keyword names, to the signature of
the attribute it names, so dropping or renaming a parameter the benchmark
passes fails here instead of in a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _library_modules(tree):
    """Names bound by ``from mdl_lab import <module>`` in one file."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mdl_lab":
            for alias in node.names:
                out[alias.asname or alias.name] = importlib.import_module(f"mdl_lab.{alias.name}")
    return out


def _bench_calls():
    """(file, line, module, attribute, positional count, keyword names)."""
    calls = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = _library_modules(tree)
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
            ):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                continue
            keywords = [k.arg for k in node.keywords]
            calls.append(
                (path.name, node.lineno, modules[func.value.id], func.attr, len(node.args), keywords)
            )
    return calls


def test_bench_calls_bind_to_library_signatures():
    calls = _bench_calls()
    assert any(
        module.__name__ == "mdl_lab.stabilization"
        and name == "monte_carlo_stabilization"
        and "workers" in keywords
        for _, _, module, name, _, keywords in calls
    )
    mismatches = []
    for file, line, module, name, positional, keywords in calls:
        try:
            inspect.signature(getattr(module, name)).bind(
                *[None] * positional, **dict.fromkeys(keywords)
            )
        except (AttributeError, TypeError) as e:
            mismatches.append((file, line, f"{module.__name__}.{name}", str(e)))
    assert len(calls) > 50 and not mismatches, mismatches
