"""LVA003 fixture tests: slots dataclasses and allocation-free hot methods."""

from __future__ import annotations

import textwrap

from repro.analysis import check_source


def _hits(source: str, module: str = "repro.mem.snippet"):
    violations = check_source(textwrap.dedent(source), module=module)
    return [(v.line, v.rule_id) for v in violations if v.rule_id == "LVA003"]


class TestSlotsDataclasses:
    def test_dataclass_without_slots_fires_at_class_line(self):
        assert _hits(
            """\
            from dataclasses import dataclass


            @dataclass
            class LineState:
                tag: int
                dirty: bool
            """
        ) == [(5, "LVA003")]

    def test_dataclass_call_without_slots_fires(self):
        assert _hits(
            """\
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class LineState:
                tag: int
            """
        ) == [(5, "LVA003")]

    def test_slots_true_is_clean(self):
        assert (
            _hits(
                """\
                from dataclasses import dataclass


                @dataclass(frozen=True, slots=True)
                class LineState:
                    tag: int
                """
            )
            == []
        )

    def test_plain_class_is_not_required_to_slot(self):
        assert (
            _hits(
                """\
                class LineState:
                    def __init__(self, tag):
                        self.tag = tag
                """
            )
            == []
        )

    def test_outside_hotpath_packages_is_exempt(self):
        assert (
            _hits(
                """\
                from dataclasses import dataclass


                @dataclass
                class ReportRow:
                    label: str
                """,
                module="repro.experiments.snippet",
            )
            == []
        )


class TestHotMethodAllocations:
    def test_list_comprehension_in_hot_method_fires(self):
        assert _hits(
            """\
            class SetAssociativeCache:
                def access(self, addr):
                    ways = [w for w in self.ways if w.valid]
                    return ways
            """
        ) == [(3, "LVA003")]

    def test_lambda_in_hot_method_fires(self):
        assert _hits(
            """\
            class SetAssociativeCache:
                def probe(self, addr):
                    pick = min(self.ways, key=lambda w: w.age)
                    return pick
            """
        ) == [(3, "LVA003")]

    def test_generator_expression_in_hot_method_fires(self):
        assert _hits(
            """\
            class TwoLevelHierarchy:
                def load(self, addr):
                    return sum(w.age for w in self.ways)
            """
        ) == [(3, "LVA003")]

    def test_nested_function_in_hot_method_fires(self):
        assert _hits(
            """\
            class MSHRFile:
                def lookup(self, addr):
                    def score(entry):
                        return entry.age
                    return score
            """
        ) == [(3, "LVA003")]

    def test_plain_loop_in_hot_method_is_clean(self):
        assert (
            _hits(
                """\
                class SetAssociativeCache:
                    def access(self, addr):
                        for way in self.ways:
                            if way.tag == addr:
                                return way
                        return None
                """
            )
            == []
        )

    def test_non_hot_method_may_use_comprehensions(self):
        # Per-miss / setup methods are allowed to allocate.
        assert (
            _hits(
                """\
                class SetAssociativeCache:
                    def snapshot(self):
                        return [w.tag for w in self.ways]
                """
            )
            == []
        )

    def test_same_method_name_on_other_class_is_clean(self):
        # hot_methods are qualified Class.method names, not bare names.
        assert (
            _hits(
                """\
                class Trace:
                    def load(self, path):
                        return [line for line in open(path)]
                """
            )
            == []
        )


class TestBatchMethods:
    """The predictor batch contract: ``*_batch`` methods in hot-path
    packages take scalar columns and must never read event fields,
    though they may loop (the scalar fallbacks iterate by design)."""

    MODULE = "repro.predictors.snippet"

    def test_event_field_read_in_batch_method_fires(self):
        assert _hits(
            """\
            class StridePredictor:
                def on_miss_batch(self, events):
                    return [self.on_miss(e.pc, e.is_float) for e in events]
            """,
            module=self.MODULE,
        ) == [(3, "LVA003"), (3, "LVA003")]

    def test_event_field_read_in_train_batch_fires(self):
        assert _hits(
            """\
            class StridePredictor:
                def train_batch(self, tokens, events):
                    covered = 0
                    for i in range(len(tokens)):
                        covered += self.train(tokens[i], events[i].value)
                    return covered
            """,
            module=self.MODULE,
        ) == [(5, "LVA003")]

    def test_scalar_fallback_loop_is_clean(self):
        # The ScalarBatchFallback shape: plain columns in, a loop over
        # the scalar API — loops are explicitly allowed here.
        assert (
            _hits(
                """\
                class ScalarBatchFallback:
                    def on_miss_batch(self, pcs, float_flags, addrs):
                        out = []
                        for i in range(len(pcs)):
                            out.append(self.on_miss(pcs[i], float_flags[i], addrs[i]))
                        return out

                    def train_batch(self, tokens, actuals):
                        covered = 0
                        for i in range(len(tokens)):
                            covered += 1 if self.train(tokens[i], actuals[i]) else 0
                        return covered
                """,
                module=self.MODULE,
            )
            == []
        )

    def test_non_batch_method_may_read_event_fields(self):
        # Only the *_batch suffix carries the column contract; scalar
        # entry points legitimately take an event-shaped argument.
        assert (
            _hits(
                """\
                class Recorder:
                    def observe(self, event):
                        self.last_pc = event.pc
                """,
                module=self.MODULE,
            )
            == []
        )

    def test_batch_methods_outside_hotpath_packages_are_exempt(self):
        assert (
            _hits(
                """\
                class ReportBuilder:
                    def rows_batch(self, events):
                        return [e.pc for e in events]
                """,
                module="repro.experiments.snippet",
            )
            == []
        )


class TestKernelFunctions:
    """The batch contract of the vectorized replay kernels: functions
    named ``*_kernel``/``*_span(s)`` in kernel modules must be
    whole-column numpy passes."""

    MODULE = "repro.sim.kernels"

    def test_per_event_loop_in_kernel_fires(self):
        assert _hits(
            """\
            def decompose_addr_kernel(addrs, offset_bits):
                out = []
                for a in addrs:
                    out.append(a >> offset_bits)
                return out
            """,
            module=self.MODULE,
        ) == [(3, "LVA003")]

    def test_while_loop_in_kernel_fires(self):
        assert _hits(
            """\
            def segment_spans_kernel(is_store):
                i = 0
                while i < len(is_store):
                    i += 1
            """,
            module=self.MODULE,
        ) == [(3, "LVA003")]

    def test_comprehension_in_kernel_fires(self):
        assert _hits(
            """\
            def load_ordinal_kernel(is_store):
                return [not s for s in is_store]
            """,
            module=self.MODULE,
        ) == [(2, "LVA003")]

    def test_event_field_read_in_kernel_fires(self):
        assert _hits(
            """\
            def window_denominator_span(events, window):
                return events[0].value * window
            """,
            module=self.MODULE,
        ) == [(2, "LVA003")]

    def test_whole_column_numpy_pass_is_clean(self):
        assert (
            _hits(
                """\
                import numpy as np


                def decompose_addr_kernel(addr, offset_bits, index_mask, index_bits):
                    block = addr >> offset_bits
                    return block & index_mask, block >> index_bits
                """,
                module=self.MODULE,
            )
            == []
        )

    def test_non_kernel_function_may_loop(self):
        # The scalar flat cores and rebuild helpers iterate by design;
        # only the suffix-named batch functions carry the contract.
        assert (
            _hits(
                """\
                def _lva_flat(sim, miss):
                    total = 0
                    for value in miss["val"]:
                        total += value
                    return total
                """,
                module=self.MODULE,
            )
            == []
        )

    def test_kernel_names_outside_kernel_modules_are_exempt(self):
        assert (
            _hits(
                """\
                def resize_kernel(rows):
                    return [r for r in rows]
                """,
                module="repro.mem.cache",
            )
            == []
        )


class TestHotMethodsResolve:
    """Every configured hot method names a method defined in a hot-path
    module, so a rename cannot silently drop it from LVA003/LVA006."""

    def test_every_entry_is_a_defined_method(self):
        import ast
        from pathlib import Path

        import repro
        from repro.analysis.config import DEFAULT_CONFIG

        src = Path(repro.__file__).resolve().parent.parent
        defined = set()
        for path in (src / "repro").rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            if not DEFAULT_CONFIG.is_hotpath_module(module):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    defined.update(
                        f"{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                    )
        assert DEFAULT_CONFIG.hot_methods
        assert set(DEFAULT_CONFIG.hot_methods) - defined == set()
