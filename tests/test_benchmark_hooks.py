"""The benchmark's per-layer spans hook ffax names from outside the package.

``perfbench/spans.py`` swaps module attributes such as
``ffax.oracle.CellSystem`` for timing wrappers. A renamed or moved target does
not fail the benchmark: its per-layer metrics just come out as null. This test
makes such a rename fail the package's own suite instead.
"""

import importlib.util

from conftest import FIXTURES

SPANS = FIXTURES.parent / "perfbench" / "spans.py"


def test_every_benchmark_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    found, missing = spans.resolve_hooks()
    assert missing == []
    assert len(found) == len(spans.HOOKS)
