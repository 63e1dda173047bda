"""A guard scope belongs to the thread that opened it.

Serve dispatcher threads run budgeted and unbudgeted requests at the same
time (``repro serve --workers 2``); a scope that was process-wide let one
thread's budget charge the kernels of another, failing requests that
pass alone."""

import random
import sys
import threading

from repro.api import compile_program
from repro.guard import Budget, GuardConfig, current, guarded
from repro.guard import runtime
from repro.serve import BatchExecutor, ServeConfig

QSORT = """
fun qsort(s) =
  if #s <= 1 then s
  else let p = s[(#s + 1) div 2],
           less = [x <- s | x < p: x],
           same = [x <- s | x == p: x],
           more = [x <- s | x > p: x],
           sorted = [part <- [less, more]: qsort(part)]
       in concat(concat(sorted[1], same), sorted[2])
"""
CHAIN = "fun main(s) = sum([x <- s: x * x + 1])"    # one step: one region


def beside_a_scope(body):
    """Run ``body()`` in this thread while another thread holds a
    one-step scope open; returns that scope's final step count and
    whether it was still its thread's current scope."""
    opened, release, seen = threading.Event(), threading.Event(), {}

    def run():
        with guarded(GuardConfig(budget=Budget(max_steps=1))) as st:
            opened.set()
            release.wait(30)
            seen.update(steps=st.steps, mine=current() is st)

    t = threading.Thread(target=run)
    t.start()
    assert opened.wait(30)
    try:
        body()
    finally:
        release.set()
        t.join(30)
    return seen


def test_a_scope_charges_nothing_another_thread_runs():
    keys = random.Random(3).sample(range(10_000), 300)
    for backend in ("vector", "interp"):
        prog = compile_program(QSORT)

        def body():
            assert current() is None and runtime.GUARD is not None
            assert prog.run("qsort", [keys], backend=backend) == sorted(keys)

        assert beside_a_scope(body) == {"steps": 0, "mine": True}
    assert runtime.GUARD is None


def test_each_thread_is_charged_its_own_work():
    prog = compile_program(CHAIN)

    def body():
        with guarded(GuardConfig(budget=Budget(max_steps=5))) as st:
            assert prog.run("main", [[1, 2, 3]]) == 17
            assert current() is st and st.steps == 1
        assert current() is None

    assert beside_a_scope(body) == {"steps": 0, "mine": True}


def test_two_dispatchers_never_charge_each_other():
    """Unbudgeted quicksorts beside requests whose one-step budget holds
    alone, on two dispatcher threads switching every microsecond: every
    request answers."""
    keys = random.Random(0).sample(range(100_000), 3_000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with BatchExecutor(ServeConfig(workers=2, native_after=0,
                                       predict_admission=False)) as ex:
            for _ in range(30):
                sorts = [ex.submit(QSORT, "qsort", [keys]) for _ in range(2)]
                sums = [ex.submit(CHAIN, "main", [[1, 2, 3]],
                                  budget=Budget(max_steps=1))
                        for _ in range(4)]
                assert [f.result(60) for f in sorts] == [sorted(keys)] * 2
                assert [f.result(60) for f in sums] == [17] * 4
            assert ex.stats.errors == 0
    finally:
        sys.setswitchinterval(interval)

