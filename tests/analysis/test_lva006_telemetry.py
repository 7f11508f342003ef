"""LVA006 fixture tests: guarded hook calls, no module API on the hot path."""

from __future__ import annotations

import textwrap

from repro.analysis import check_source


def _hits(source: str, module: str = "repro.sim.snippet"):
    violations = check_source(textwrap.dedent(source), module=module)
    return [(v.line, v.rule_id) for v in violations if v.rule_id == "LVA006"]


class TestGuardedHookCalls:
    def test_unguarded_hook_call_fires(self):
        assert _hits(
            """\
            class TraceSimulator:
                def _serve_load(self, pc, addr):
                    self._tel.on_load(self.stats)
            """
        ) == [(3, "LVA006")]

    def test_is_not_none_guard_is_clean(self):
        assert (
            _hits(
                """\
                class TraceSimulator:
                    def _serve_load(self, pc, addr):
                        if self._tel is not None:
                            self._tel.on_load(self.stats)
                """
            )
            == []
        )

    def test_truthiness_guard_is_clean(self):
        assert (
            _hits(
                """\
                class TraceSimulator:
                    def _serve_load(self, pc, addr):
                        if self._tel:
                            self._tel.on_load(self.stats)
                """
            )
            == []
        )

    def test_conjunction_guard_is_clean(self):
        assert (
            _hits(
                """\
                class TraceSimulator:
                    def _fetch(self, addr):
                        if dropped and self._tel is not None:
                            self._tel.on_fault("fetch_drop", addr)
                """
            )
            == []
        )

    def test_call_in_else_branch_fires(self):
        assert _hits(
            """\
            class TraceSimulator:
                def _serve_load(self, pc, addr):
                    if self._tel is not None:
                        pass
                    else:
                        self._tel.on_load(self.stats)
            """
        ) == [(6, "LVA006")]

    def test_guard_on_other_attribute_fires(self):
        assert _hits(
            """\
            class TraceSimulator:
                def _serve_load(self, pc, addr):
                    if self.recorder is not None:
                        self._tel.on_load(self.stats)
            """
        ) == [(4, "LVA006")]

    def test_nested_guard_carries_into_inner_blocks(self):
        assert (
            _hits(
                """\
                class TraceSimulator:
                    def _serve_load(self, pc, addr):
                        if self._tel is not None:
                            for _ in range(2):
                                self._tel.on_load(self.stats)
                """
            )
            == []
        )

    def test_non_hot_method_is_exempt(self):
        # __init__ and miss-path helpers may touch the hook freely.
        assert (
            _hits(
                """\
                class TraceSimulator:
                    def finish(self):
                        self._tel.finish(self.stats)
                """
            )
            == []
        )

    def test_other_attributes_are_not_hooks(self):
        assert (
            _hits(
                """\
                class TraceSimulator:
                    def _serve_load(self, pc, addr):
                        self.stats.loads += 1
                        self.l1.probe(addr)
                """
            )
            == []
        )

    def test_outside_hotpath_packages_is_exempt(self):
        assert (
            _hits(
                """\
                class TraceSimulator:
                    def _serve_load(self, pc, addr):
                        self._tel.on_load(self.stats)
                """,
                module="repro.experiments.snippet",
            )
            == []
        )


class TestModuleApiOnHotPath:
    def test_imported_function_call_fires(self):
        assert _hits(
            """\
            from repro.telemetry import sim_hook


            class TraceSimulator:
                def _serve_load(self, pc, addr):
                    hook = sim_hook()
                    return hook
            """
        ) == [(6, "LVA006")]

    def test_module_attribute_call_fires(self):
        assert _hits(
            """\
            from repro import telemetry


            class TraceSimulator:
                def _serve_load(self, pc, addr):
                    telemetry.metrics().counter("sim.loads").add(1)
            """
        ) == [(6, "LVA006")]

    def test_resolving_hook_in_init_is_clean(self):
        assert (
            _hits(
                """\
                from repro.telemetry import sim_hook


                class TraceSimulator:
                    def __init__(self):
                        self._tel = sim_hook()

                    def _serve_load(self, pc, addr):
                        if self._tel is not None:
                            self._tel.on_load(self.stats)
                """
            )
            == []
        )

    def test_unrelated_import_is_clean(self):
        assert (
            _hits(
                """\
                from repro.core.approximator import LoadValueApproximator


                class TraceSimulator:
                    def _serve_load(self, pc, addr):
                        return LoadValueApproximator()
                """
            )
            == []
        )
