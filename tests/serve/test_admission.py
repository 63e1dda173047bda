"""Predicted-budget admission control and predicted-work tiering.

The serving layer consults the static cost certificate at ``submit``:
a budgeted request whose *predicted* work already exceeds its budget is
rejected synchronously — before compilation, queueing, or execution —
with ``ResourceLimitError("predicted-…")``, while anything the analyzer
cannot bound is admitted and left to the runtime guard (the enforcement
backstop, pinned in tests/serve/test_deadlines.py).  The same
certificate drives tier promotion: hot batch keys are promoted to the
native back end by predicted work *served*, not raw request count, so
one huge request can promote immediately while tiny requests still need
``native_after`` of them.

Admission is the serve core's, so the admission class runs a second time
with the process pool as the executor."""

import pytest

from repro.api import compile_program
from repro.errors import ResourceLimitError
from repro.guard.runtime import Budget
from repro.serve import BatchExecutor, PoolConfig, ServeConfig, WorkerPool

SRC = "fun main(n) = sum([i <- [1..n]: i * i])"
RECURSIVE = "fun main(n) = if n <= 0 then 0 else n + main(n - 1)"


def predicted(n):
    prog = compile_program(SRC)
    cert = prog.cost_certificate("main", prog.entry_types("main", [n]))
    p = cert.predict([n])
    assert p["bounded"]
    return p


class TestAdmission:
    Executor, Config = BatchExecutor, ServeConfig

    def test_over_budget_rejected_before_queueing(self):
        with self.Executor() as ex:
            with pytest.raises(ResourceLimitError) as ei:
                ex.submit(SRC, "main", [500], budget=Budget(max_steps=10),
                          request_id="req-heavy")
            assert ei.value.limit == "predicted-steps"
            assert ei.value.stage == "serve:submit"
            assert ei.value.request == "req-heavy"
            snap = ex.stats.snapshot()
            assert snap["predicted_rejections"] == 1
            # never queued, never executed
            assert snap["batches"] == 0 and snap["singles"] == 0
            assert snap["errors"] == 0

    def test_every_budget_axis_is_checked(self):
        w = predicted(500)["work"]
        cases = [(Budget(max_steps=w - 1), "predicted-steps"),
                 (Budget(max_elements=w - 1), "predicted-elements"),
                 (Budget(max_bytes=8 * w - 1), "predicted-bytes")]
        with self.Executor() as ex:
            for budget, limit in cases:
                with pytest.raises(ResourceLimitError) as ei:
                    ex.submit(SRC, "main", [500], budget=budget)
                assert ei.value.limit == limit

    def test_within_budget_admitted_and_served(self):
        p = predicted(20)
        budget = Budget(max_steps=p["work"], max_bytes=8 * p["work"])
        with self.Executor() as ex:
            fut = ex.submit(SRC, "main", [20], budget=budget)
            assert fut.result(30) == sum(i * i for i in range(1, 21))
            assert ex.stats.snapshot()["predicted_rejections"] == 0

    def test_unbounded_program_falls_through_to_runtime_guard(self):
        """The analyzer widens data-dependent recursion to unbounded;
        such requests are admitted, and the *runtime* guard still
        enforces the budget."""
        with self.Executor() as ex:
            fut = ex.submit(RECURSIVE, "main", [500],
                            budget=Budget(max_steps=10))
            err = fut.exception(timeout=30)
        assert isinstance(err, ResourceLimitError)
        assert err.limit == "steps"           # runtime, not predicted-steps
        assert ex.stats.snapshot()["predicted_rejections"] == 0

    def test_predict_admission_off_is_pure_passthrough(self):
        with self.Executor(self.Config(predict_admission=False)) as ex:
            fut = ex.submit(SRC, "main", [500], budget=Budget(max_steps=1))
            err = fut.exception(timeout=30)
        assert isinstance(err, ResourceLimitError)
        assert err.limit == "steps"
        assert ex.stats.snapshot()["predicted_rejections"] == 0

    def test_unbudgeted_requests_skip_admission(self, monkeypatch):
        """Admission only engages when a budget is set: requests without
        one never reach the rejection path (the predictor may still run
        for tier weighting, which must not reject anything)."""
        def boom(self, req):
            raise AssertionError("admission consulted without a budget")
        monkeypatch.setattr(BatchExecutor, "_admit", boom)
        with self.Executor() as ex:
            assert ex.submit(SRC, "main", [4]).result(30) == 30

    def test_prediction_failure_degrades_to_admission(self, monkeypatch):
        """A crash inside the predictor must never reject a request —
        unpredictable means admit-and-enforce-at-runtime."""
        monkeypatch.setattr(
            "repro.api.CompiledProgram.cost_certificate",
            lambda *a, **kw: (_ for _ in ()).throw(RuntimeError("boom")))
        with self.Executor() as ex:
            fut = ex.submit(SRC, "main", [500], budget=Budget(max_steps=1))
            err = fut.exception(timeout=30)
        assert isinstance(err, ResourceLimitError)
        assert err.limit == "steps"


class TestAdmissionOnThePool(TestAdmission):
    Executor, Config = WorkerPool, PoolConfig


class TestPredictedWorkTiering:
    """Tier promotion counts predicted work served (one unit per
    ``TIER_UNIT_WORK``), with unpredictable keys degrading to
    one-unit-per-request accounting."""

    @staticmethod
    def _native_counter(monkeypatch):
        from repro.api import CompiledProgram
        monkeypatch.setattr("repro.native.toolchain.available",
                            lambda: True)
        orig = CompiledProgram.run
        calls = {"native": 0}

        def fake(self, fname, args, **kw):
            if kw.get("backend") == "native":
                calls["native"] += 1
                kw = dict(kw, backend="vector")
            return orig(self, fname, args, **kw)

        monkeypatch.setattr(CompiledProgram, "run", fake)
        return calls

    def test_one_heavy_request_promotes_immediately(self, monkeypatch):
        from repro.serve.batcher import TIER_UNIT_WORK
        calls = self._native_counter(monkeypatch)
        assert predicted(4000)["work"] > 3 * TIER_UNIT_WORK
        with BatchExecutor(ServeConfig(native_after=3)) as ex:
            assert ex.submit(SRC, "main", [4000]).result(30) == \
                sum(i * i for i in range(1, 4001))
        assert calls["native"] == 1
        assert ex.stats.promotions == 1

    def test_tiny_requests_still_need_native_after_of_them(self,
                                                           monkeypatch):
        """Small programs predict under one work unit, so each counts as
        one — the pre-existing request-count contract is preserved."""
        calls = self._native_counter(monkeypatch)
        with BatchExecutor(ServeConfig(native_after=3)) as ex:
            for _ in range(3):             # weight 1 each: still cold
                assert ex.submit(SRC, "main", [2]).result(30) == 5
            assert calls["native"] == 0
            assert ex.submit(SRC, "main", [2]).result(30) == 5
            assert calls["native"] == 1    # fourth crosses the threshold
        assert ex.stats.promotions == 1

    def test_unpredictable_key_degrades_to_request_counting(self,
                                                            monkeypatch):
        calls = self._native_counter(monkeypatch)
        with BatchExecutor(ServeConfig(native_after=2)) as ex:
            for _ in range(2):
                ex.submit(RECURSIVE, "main", [3]).result(30)
            assert calls["native"] == 0
            ex.submit(RECURSIVE, "main", [3]).result(30)
            assert calls["native"] == 1
        assert ex.stats.promotions == 1
