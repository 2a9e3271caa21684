"""Spans around calls into pglb's modules, recorded from the benchmark's side.

The tracer rebinds the names through which one pglb module calls another
(``pglb.cli.compute``, ``pglb.interaction.use_apply``, ...) to wrappers that
record a span and the work counts of the result, and puts the originals back
afterwards. pglb's own source carries no spans. A name that a later version
of pglb no longer has is skipped, and its layer reads 0.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _size(name):
    return lambda result: {name: len(result)}


def _states(name):
    return lambda result: {name: len(result.states)}


def _swept(report) -> dict[str, int]:
    return {"oracle.inputs_swept": 2**report.arity, "oracle.mismatches": len(report.mismatches)}


# (module, name bound in it, span name, counts taken from the result)
PROBES = [
    ("pglb.cli", "parse", "isa.parse", _size("isa.parse_instr")),
    ("pglb.cli", "render", "isa.render", None),
    ("pglb.cli", "parse_truth_table", "synthesis.table_parse", None),
    ("pglb.cli", "parse_netlist", "synthesis.netlist_parse", None),
    ("pglb.cli", "compile_truth_table", "synthesis.compile", _size("synthesis.instructions_out")),
    ("pglb.cli", "compile_circuit", "synthesis.compile", _size("synthesis.instructions_out")),
    ("pglb.cli", "gen_3sat", "sat3.gen_3sat", None),
    ("pglb.cli", "compute", "interaction.compute", None),
    ("pglb.cli", "trace", "interaction.trace", _size("interaction.trace_steps")),
    ("pglb.cli", "equivalence_check", "oracle.sweep", _swept),
    ("pglb.interaction", "extract", "extraction.extract", _states("extraction.thread_states")),
    ("pglb.oracle", "extract", "extraction.extract", _states("extraction.thread_states")),
    ("pglb.interaction", "register_family", "services.register_family", None),
    ("pglb.oracle", "register_family", "services.register_family", None),
    ("pglb.interaction", "use_apply", "interaction.use_apply", _states("interaction.use_configs")),
    ("pglb.oracle", "use_apply", "interaction.use_apply", _states("interaction.use_configs")),
    ("pglb.interaction", "reply", "interaction.reply", None),
    ("pglb.oracle", "reply", "interaction.reply", None),
]

COUNTS = [
    "isa.parse_instr",
    "synthesis.instructions_out",
    "extraction.thread_states",
    "interaction.use_configs",
    "interaction.trace_steps",
    "oracle.inputs_swept",
    "oracle.mismatches",
]
CALL_COUNTS = {"interaction.reply": "interaction.reply_calls", "services.register_family": "services.register_family_calls"}
LAYERS = sorted({span for _, _, span, _ in PROBES})


class Tracer:
    """In-memory span log: (name, start, end, parent span id, op id), plus counts per op."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object] | None] = []
        self.counts: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op: object = None

    def open(self, name: str) -> tuple[int, float]:
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        return span_id, perf_counter()

    def close(self, name: str, span_id: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[span_id] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            span_id, start = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, span_id, start)
            if count is not None:
                bucket = self.counts[self.op]
                for key, value in count(result).items():
                    bucket[key] += value
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span, count in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Per op and span name: seconds not covered by child spans, and the number of spans."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        seconds: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[object, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span_id, span in enumerate(self.spans):
            if span is not None:
                name, start, end, _, op = span
                seconds[op][name] += end - start - child_time[span_id]
                calls[op][name] += 1
        return seconds, calls

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}),
            encoding="utf-8",
        )
