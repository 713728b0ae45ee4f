"""Outside-in tracer: spans and counts around calls into the ``nts`` modules.

The tracer wraps public functions from the benchmark's side, without editing
``nts``.  A function imported by name into several modules (``from .exponents
import correct_exponent_ml`` in ``iterate``, ``simulate`` and ``cli``) is
replaced in every module namespace that binds it, so no call path escapes the
trace.  Spans (name, start, end, parent, task id) are kept in flat arrays in
memory and written out once, at the end of the run.

``self`` time is a span's duration minus the time covered by its direct
children.  Inclusive time of a name (or of a group of names) counts only its
outermost spans, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict

# Modules whose namespaces are searched for bindings of a wrapped function.
MODULES = ("nts", "nts.itcore", "nts.exponents", "nts.oracle", "nts.iterate", "nts.simulate", "nts.cli")

EXPONENT_GROUP = "exponents.exponent"


def _on_compositions(agg, result):
    agg["itcore.compositions_array.rows"] += result.shape[0]
    agg["itcore.compositions_array.bytes_computed"] += result.nbytes


def _on_class_table(agg, table):
    agg["oracle.competitor_class_table.classes"] += table.metrics.size
    agg["oracle.competitor_class_table.bytes_computed"] += (
        table.metrics.nbytes + table.log_probs.nbytes + table.suffix_logsum.nbytes + table.counts.nbytes
    )


def _on_exact(agg, report):
    agg["oracle.exact_finite_n.types"] += len(report.per_type_breakdown)


def _on_nts_run(agg, result):
    agg["simulate.updates"] += result.summary.updates
    agg["simulate.blocks"] += result.summary.blocks
    agg["simulate.erasures"] += sum(1 for out in result.trace if out.decoded is None)


# (module, attribute, span name, group, record only the outermost call, result hook)
TARGETS = (
    ("nts.itcore", "compositions_array", "itcore.compositions_array", None, True, _on_compositions),
    ("nts.itcore", "empirical_joint_type", "itcore.empirical_joint_type", None, False, None),
    ("nts.exponents", "tilted_joint", "exponents.tilted_joint", None, False, None),
    ("nts.exponents", "error_exponent", "exponents.error_exponent", EXPONENT_GROUP, False, None),
    ("nts.exponents", "correct_exponent_ml", "exponents.correct_exponent_ml", EXPONENT_GROUP, False, None),
    ("nts.exponents", "correct_exponent_strict", "exponents.correct_exponent_strict", EXPONENT_GROUP, False, None),
    ("nts.exponents", "minus_one_family", "exponents.minus_one_family", None, False, None),
    ("nts.exponents", "capacity", "exponents.capacity", None, False, None),
    ("nts.iterate", "fixed_rate_step", "iterate.rate_step", None, False, None),
    ("nts.iterate", "fixed_slope_step", "iterate.slope_step", None, False, None),
    ("nts.iterate", "check_lower_than", "iterate.check_lower_than", None, False, None),
    ("nts.oracle", "implicit_exponent", "oracle.implicit_exponent", None, False, None),
    ("nts.oracle", "cc_bound", "oracle.cc_bound", None, False, None),
    ("nts.oracle", "min_over_small_supports", "oracle.min_over_small_supports", None, False, None),
    ("nts.oracle", "exact_finite_n", "oracle.exact_finite_n", None, False, _on_exact),
    ("nts.oracle", "competitor_class_table", "oracle.competitor_class_table", None, False, _on_class_table),
    ("nts.oracle", "decode_metric", "oracle.decode_metric", None, False, None),
    ("nts.simulate", "nts_run", "simulate.nts_run", None, False, _on_nts_run),
    ("nts.simulate", "_literal_block", "simulate.block.literal", None, False, None),
    ("nts.simulate", "_virtual_block", "simulate.block.virtual", None, False, None),
    ("nts.simulate", "build_codebook", "simulate.build_codebook", None, False, None),
    ("nts.cli", "run_command", "cli.run_command", None, False, None),
)
TYPE_SPAN = "itcore.TypeWithDenominator"

# Time spent inside one span name while another is open, counted as it happens.
NESTED = (
    ("oracle.competitor_class_table", "simulate.block.virtual"),
    (EXPONENT_GROUP, "simulate.nts_run"),
)


class Tracer:
    """Records spans while installed; ``metrics()`` turns them into the
    per-layer figures."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.task_id = -1
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.agg: defaultdict = defaultdict(float)
        self._stack: list = []  # [span index, name, group, start, child time]
        self._open_names: Counter = Counter()
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str, group: str | None):
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_task.append(self.task_id)
        self.span_end.append(0.0)
        self._open_names[name] += 1
        if group:
            self._open_names[group] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([index, name, group, start, 0.0])

    def _close(self):
        end = time.perf_counter()
        index, name, group, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self._open_names[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if not self._open_names[name]:
            self.total_s[name] += duration
        if group:
            self._open_names[group] -= 1
            self.calls[group] += 1
            if not self._open_names[group]:
                self.total_s[group] += duration
        for inner, outer in NESTED:
            if inner in (name, group) and self._open_names[outer] and not self._open_names[inner]:
                self.agg[f"{inner}@{outer}.s"] += duration
                self.agg[f"{inner}@{outer}.calls"] += 1

    def _wrap(self, fn, name: str, group: str | None, outermost: bool, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and tracer._open_names[name]:
                return fn(*args, **kwargs)
            tracer._open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                hook(tracer.agg, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in every module namespace that binds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for home, attr, name, group, outermost, hook in TARGETS:
            original = getattr(importlib.import_module(home), attr)
            wrapped = self._wrap(original, name, group, outermost, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    self._restore.append((module, attr, original))
        type_cls = importlib.import_module("nts.itcore").TypeWithDenominator
        original_init = type_cls.__init__
        type_cls.__init__ = self._wrap(original_init, TYPE_SPAN, None, False, None)
        self._restore.append((type_cls, "__init__", original_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json (``cli.out_bytes``
        and the tracing overhead are added by the runner)."""
        c, t, s, a = self.calls, self.total_s, self.self_s, self.agg
        virtual = c["simulate.block.virtual"]
        return {
            "exponents.tilted_joint.calls": c["exponents.tilted_joint"],
            "exponents.tilted_joint.self_s": s["exponents.tilted_joint"],
            "exponents.exponent.calls": c[EXPONENT_GROUP],
            "exponents.exponent.s": t[EXPONENT_GROUP],
            "exponents.minus_one_family.calls": c["exponents.minus_one_family"],
            "exponents.capacity.calls": c["exponents.capacity"],
            "exponents.capacity.s": t["exponents.capacity"],
            "iterate.rate_steps": c["iterate.rate_step"],
            "iterate.rate_step.s": t["iterate.rate_step"],
            "iterate.slope_steps": c["iterate.slope_step"],
            "iterate.check_lower_than.s": t["iterate.check_lower_than"],
            "oracle.implicit_exponent.s": t["oracle.implicit_exponent"],
            "oracle.implicit_exponent.self_s": s["oracle.implicit_exponent"],
            "oracle.cc_bound.s": t["oracle.cc_bound"],
            "oracle.min_over_small_supports.s": t["oracle.min_over_small_supports"],
            "oracle.exact_finite_n.s": t["oracle.exact_finite_n"],
            "oracle.exact_finite_n.self_s": s["oracle.exact_finite_n"],
            "oracle.exact_finite_n.types": a["oracle.exact_finite_n.types"],
            "oracle.competitor_class_table.calls": c["oracle.competitor_class_table"],
            "oracle.competitor_class_table.s": t["oracle.competitor_class_table"],
            "oracle.competitor_class_table.classes": a["oracle.competitor_class_table.classes"],
            "oracle.competitor_class_table.bytes_computed": a["oracle.competitor_class_table.bytes_computed"],
            "oracle.decode_metric.calls": c["oracle.decode_metric"],
            "itcore.compositions_array.calls": c["itcore.compositions_array"],
            "itcore.compositions_array.rows": a["itcore.compositions_array.rows"],
            "itcore.compositions_array.s": t["itcore.compositions_array"],
            "itcore.compositions_array.bytes_computed": a["itcore.compositions_array.bytes_computed"],
            "itcore.type_objects": c[TYPE_SPAN],
            "itcore.type_objects.s": t[TYPE_SPAN],
            "itcore.empirical_joint_type.calls": c["itcore.empirical_joint_type"],
            "simulate.blocks.literal": c["simulate.block.literal"],
            "simulate.blocks.virtual": virtual,
            "simulate.block_s.literal": t["simulate.block.literal"],
            "simulate.block_s.virtual": t["simulate.block.virtual"],
            "simulate.build_codebook.s": t["simulate.build_codebook"],
            "simulate.table_builds_per_virtual_block": (
                a["oracle.competitor_class_table@simulate.block.virtual.calls"] / virtual if virtual else 0.0
            ),
            "simulate.exponents_s": a[f"{EXPONENT_GROUP}@simulate.nts_run.s"],
            "simulate.self_s": s["simulate.nts_run"],
            "simulate.updates_per_block": (
                a["simulate.updates"] / a["simulate.blocks"] if a["simulate.blocks"] else 0.0
            ),
            "simulate.erasures": a["simulate.erasures"],
            "cli.self_s": s["cli.run_command"],
        }

    def layer_self_s(self) -> dict[str, float]:
        """Self time by layer (the span name up to its first dot), largest first."""
        layers: defaultdict = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(sorted(layers.items(), key=lambda item: -item[1]))

    def save(self, path: str):
        """Write the spans as flat arrays (``names`` indexes ``name``)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            task=np.frombuffer(self.span_task, dtype=np.int32),
        )
