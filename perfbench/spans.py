"""In-memory spans around the calls that cross from one ffax module into the next.

Spans come from two places, both in the benchmark's own files: call sites in
the workloads (the enumeration loop, attribution, metrics, the CLI entry
point) and hooks that swap a module attribute for a timing wrapper while one
traced pass runs (``HOOKS``). Nothing inside ``src/`` is edited. A hooked name
that no longer exists is reported as missing, and every per-layer metric that
depends on it comes out as ``None`` instead of crashing the run.
"""

import importlib
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module, attribute, span name). Each attribute is looked up through its
# module's globals by the code that calls it, so swapping it is enough.
HOOKS = (
    ("ffax.enumeration", "minimal_hs", "enumeration.minimal_hs"),
    ("ffax.enumeration", "extract_axp", "enumeration.extract"),
    ("ffax.enumeration", "extract_cxp", "enumeration.extract"),
    ("ffax.cli", "extract_axp", "enumeration.extract"),
    ("ffax.enumeration", "_find_counterexample_unchecked", "oracle.decide"),
    ("ffax.cli", "score_bounds", "oracle.score_bounds"),
    ("ffax.oracle", "CellSystem", "cells.compile"),
    ("ffax.formats", "parse_feature_space", "formats.parse"),
    ("ffax.formats", "parse_ensemble_dump", "formats.parse"),
    ("ffax.formats", "parse_instances", "formats.parse"),
    ("ffax.formats", "write_enumeration_report", "formats.write"),
)

ORACLE_SPANS = ("oracle.decide", "oracle.score_bounds")


def resolve_hooks() -> tuple[list[tuple], list[str]]:
    """The hooks whose target exists now, and the dotted names that do not."""
    found, missing = [], []
    for module_name, attr, span_name in HOOKS:
        module = importlib.import_module(module_name)
        target = getattr(module, attr, None)
        if target is None:
            missing.append(f"{module_name}.{attr}")
        else:
            found.append((module, attr, span_name, target))
    return found, missing


class Tracer:
    """Span recorder. Disabled, its call-site spans cost one ``nullcontext``.

    A span is ``[name, start, end, parent index, flip]``; ``flip`` is set on
    oracle decisions only (True when the decision found a class change).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        open_, close = self._open, self._close
        records_flip = name == "oracle.decide"

        def traced(*args, **kwargs):
            record = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(record)
            if records_flip:
                record[4] = result is not None
            return result

        return traced

    @contextmanager
    def hooked(self):
        """Install every resolvable hook for the duration of the block."""
        if not self.enabled:
            yield
            return
        found, self.missing = resolve_hooks()
        for module, attr, span_name, target in found:
            setattr(module, attr, self._wrap(span_name, target))
        try:
            yield
        finally:
            for module, attr, _, target in found:
                setattr(module, attr, target)

    def available(self, span_name: str) -> bool:
        """False when a hook feeding ``span_name`` could not be installed."""
        return not any(
            f"{module}.{attr}" in self.missing
            for module, attr, name in HOOKS
            if name == span_name
        )

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for index, (name, start, end, parent, flip) in enumerate(self.spans):
                row = {"id": index, "parent": parent, "name": name, "start": start, "end": end}
                if flip is not None:
                    row["flip"] = flip
                handle.write(json.dumps(row) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


# name -> (unit, span names whose hooks it needs)
PER_LAYER = {
    "enumeration.hs_calls": ("count", ("enumeration.minimal_hs",)),
    "enumeration.hs_busy_s": ("s", ("enumeration.minimal_hs",)),
    "enumeration.hs_us_per_call": ("us", ("enumeration.minimal_hs",)),
    "enumeration.hs_share": ("ratio", ("enumeration.minimal_hs",)),
    "enumeration.extract_calls": ("count", ("enumeration.extract",)),
    "enumeration.extract_self_s": ("s", ("enumeration.extract", "oracle.decide")),
    "enumeration.loop_self_s": (
        "s", ("enumeration.minimal_hs", "enumeration.extract", "oracle.decide"),
    ),
    "enumeration.calls_per_axp": ("count", ("oracle.decide",)),
    "oracle.calls": ("count", ORACLE_SPANS),
    "oracle.busy_s": ("s", ORACLE_SPANS + ("cells.compile",)),
    "oracle.us_per_call": ("us", ORACLE_SPANS + ("cells.compile",)),
    "oracle.share": ("ratio", ORACLE_SPANS + ("cells.compile",)),
    "oracle.flip_ratio": ("ratio", ("oracle.decide",)),
    "formats.parse_calls": ("count", ("formats.parse",)),
    "formats.parse_s": ("s", ("formats.parse",)),
    "formats.write_s": ("s", ("formats.write",)),
    "cells.compile_calls": ("count", ("cells.compile",)),
    "cells.compile_s": ("s", ("cells.compile",)),
    "cli.self_s": (
        "s",
        ("formats.parse", "enumeration.extract", "oracle.decide", "oracle.score_bounds",
         "cells.compile"),
    ),
    "attribution.busy_s": ("s", ()),
    "metrics.busy_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def per_layer(tracer: Tracer, traced_s: float, untraced_s: float, axps: int) -> dict:
    """Per-layer metrics of one traced pass that took ``traced_s`` seconds.

    ``untraced_s`` is the untraced pass time of the same run, for the tracing
    overhead; ``axps`` is the number of AXp's the pass delivered.
    """
    spans = tracer.spans
    own = self_times(spans)
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    flips = 0
    for (name, _, _, _, flip), t in zip(spans, own):
        count[name] = count.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + t
        flips += flip is True

    def n(*names):
        return sum(count.get(x, 0) for x in names)

    def s(*names):
        return sum(busy.get(x, 0.0) for x in names)

    def per_call_us(seconds, calls):
        return seconds / calls * 1e6 if calls else 0.0

    hs_calls, hs_s = n("enumeration.minimal_hs"), s("enumeration.minimal_hs")
    oracle_calls, oracle_s = n(*ORACLE_SPANS), s(*ORACLE_SPANS)
    decide_calls = n("oracle.decide")
    values = {
        "enumeration.hs_calls": hs_calls,
        "enumeration.hs_busy_s": hs_s,
        "enumeration.hs_us_per_call": per_call_us(hs_s, hs_calls),
        "enumeration.hs_share": hs_s / traced_s,
        "enumeration.extract_calls": n("enumeration.extract"),
        "enumeration.extract_self_s": s("enumeration.extract"),
        "enumeration.loop_self_s": s("enumeration.loop"),
        "enumeration.calls_per_axp": decide_calls / axps if axps else 0.0,
        "oracle.calls": oracle_calls,
        "oracle.busy_s": oracle_s,
        "oracle.us_per_call": per_call_us(oracle_s, oracle_calls),
        "oracle.share": oracle_s / traced_s,
        "oracle.flip_ratio": flips / decide_calls if decide_calls else 0.0,
        "formats.parse_calls": n("formats.parse"),
        "formats.parse_s": s("formats.parse"),
        "formats.write_s": s("formats.write"),
        "cells.compile_calls": n("cells.compile"),
        "cells.compile_s": s("cells.compile"),
        "cli.self_s": s("cli.main"),
        "attribution.busy_s": s("attribution"),
        "metrics.busy_s": s("metrics"),
        "trace.overhead_s": traced_s - untraced_s,
    }
    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        ok = all(tracer.available(x) for x in needs)
        out[name] = {"value": values[name] if ok else None, "unit": unit}
    return out
