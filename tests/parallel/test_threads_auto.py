"""``--threads auto``: thread-count selection from the cost
certificate's predicted concurrency (work / span).

The pinned regression property — the acceptance criterion of the cost
PR — is that the auto pick **never exceeds the predicted concurrency**:
spawning more threads than the program can keep busy only buys
scheduling overhead.  On the E19 benchmark workload (the segmented
float reduction in benchmarks/make_report.py) the pick must land within
one power-of-two step of the hand-picked thread count."""

import pytest

from repro.api import compile_program
from repro.native.engine import default_threads
from repro.parallel.engine import _THREAD_WORK_FLOOR, pick_threads

#: the E19 workload shape: fused float chain summed per segment
E19_SRC = ("fun f(v: seq(seq(float))) = "
           "[s <- v: sum([x <- s: (x * 0.5 + 1.0) * x - 0.25])]")


class TestPickThreads:
    @pytest.mark.parametrize("work", [1, 10, 1_000, 50_000, 10**7, 10**9])
    @pytest.mark.parametrize("span", [1, 13, 127, 10_000])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 6, 8, 64])
    def test_never_exceeds_predicted_concurrency(self, work, span, cpus):
        t = pick_threads(work, span, cpus)
        assert 1 <= t <= max(1, cpus)
        assert t <= max(1, work // span), (
            f"picked {t} threads for concurrency {work // span}")

    def test_serial_work_gets_one_thread(self):
        # span ~= work: no concurrency to exploit
        assert pick_threads(10_000, 10_000, cpus=8) == 1

    def test_tiny_work_gets_one_thread(self):
        # less than one thread's work floor of concurrency
        assert pick_threads(_THREAD_WORK_FLOOR // 2, 1, cpus=8) == 1

    def test_wide_work_saturates_the_machine(self):
        assert pick_threads(10**9, 10, cpus=8) == 8

    def test_pick_is_a_power_of_two(self):
        for cpus in (1, 2, 3, 5, 6, 7, 12):
            t = pick_threads(10**9, 1, cpus)
            assert t & (t - 1) == 0


class TestE19Workload:
    def _cert(self, nseg=64, per=32):
        arg = [[0.5] * per for _ in range(nseg)]
        prog = compile_program(E19_SRC)
        at = prog.entry_types("f", [arg])
        return prog, prog.cost_certificate("f", at), arg

    def test_workload_is_boundable(self):
        _prog, cert, arg = self._cert()
        p = cert.predict([arg])
        assert p["bounded"]
        assert cert.concurrency([arg]) > 1

    def test_auto_within_one_step_of_hand_picked(self):
        """At the benchmark's real scale (4000 x 256) the hand-picked
        count is 4 threads on a >= 4-CPU box (benchmarks/BENCH_E19.json's
        target); auto must land within one power-of-two step for every
        plausible machine width."""
        _prog, cert, _ = self._cert()
        # scale the prediction to the benchmark's 4000 x 256 shape
        prog = compile_program(E19_SRC)
        arg = [[0.5] * 256 for _ in range(100)]   # same ratios, smaller
        at = prog.entry_types("f", [arg])
        p = prog.cost_certificate("f", at).predict([arg])
        assert p["bounded"]
        scale = 4000 // 100
        work, span = p["work"] * scale, p["span"]
        for cpus in (4, 8):
            hand = min(4, cpus)                    # the E19 target pick
            auto = pick_threads(work, span, cpus)
            assert hand // 2 <= auto <= hand * 2, (
                f"auto={auto} vs hand-picked {hand} on {cpus} cpus")

    def test_end_to_end_auto_matches_explicit(self):
        prog, _cert, arg = self._cert(nseg=8, per=4)
        want = prog.run("f", [arg])
        assert prog.run("f", [arg], backend="native",
                        threads="auto") == want
        assert prog.run("f", [arg], backend="native", threads=2) == want


class TestAutoFallback:
    def test_unbounded_program_falls_back_to_default(self):
        """``threads="auto"`` on a program the analyzer cannot bound
        quietly uses the default count — never an error."""
        src = ("fun q(s) = if #s <= 1 then s else "
               "q([i <- [1..#s - 1]: s[i]])")
        prog = compile_program(src)
        at = prog.entry_types("q", [[3, 1, 2]])
        assert not prog.cost_certificate("q", at).bounded
        assert prog.run("q", [[3, 1, 2]], backend="native",
                        threads="auto") == [3]

    def test_auto_is_ignored_by_serial_backends(self):
        prog = compile_program("fun main(n) = sum([i <- [1..n]: i])")
        assert prog.run("main", [5], threads="auto") == 15
        assert prog.run("main", [5], backend="interp",
                        threads="auto") == 15

    def test_default_threads_is_positive(self):
        assert default_threads() >= 1
