"""The differential runner and the greedy shrinker."""

import pytest

from repro.fuzz import differ
from repro.fuzz.differ import (
    CostSoundness, CostViolation, Differential, Outcome, compare_outcomes,
    fuzz, run_case, shrink_case,
)
from repro.fuzz.gen import INT, SEQ, SEQ2, FuzzCase, Node, gen_case, leaf


class TestCompare:
    def test_equal_values_agree(self):
        o = {b: Outcome(value=[1, 2]) for b in differ.BACKENDS}
        assert compare_outcomes(o)

    def test_differing_values_disagree(self):
        o = {"interp": Outcome(value=1), "vector": Outcome(value=2),
             "vcode": Outcome(value=1)}
        assert not compare_outcomes(o)

    def test_same_error_class_agrees(self):
        o = {b: Outcome(error_type="EvalError", error=f"msg {b}")
             for b in differ.BACKENDS}
        assert compare_outcomes(o)

    def test_mixed_success_failure_disagrees(self):
        o = {"interp": Outcome(value=1),
             "vector": Outcome(error_type="EvalError", error="x"),
             "vcode": Outcome(value=1)}
        assert not compare_outcomes(o)


class TestRunCase:
    def test_healthy_case_agrees(self):
        outcomes = run_case(gen_case(3))
        assert set(outcomes) == set(differ.BACKENDS)
        assert compare_outcomes(outcomes)

    def test_checked_run_agrees_too(self):
        assert compare_outcomes(run_case(gen_case(5), check=True))


class TestFuzzSmoke:
    def test_thirty_seeds_all_agree(self):
        report = fuzz(Differential(), 0, 30)
        assert report.count == 30
        assert report.tally["agreed"] == 30
        assert report.ok
        assert "30 programs" in report.summary()

    def test_progress_callback_called(self):
        calls = []
        fuzz(Differential(), 0, 3, progress=lambda i, r: calls.append(i))
        assert calls == [0, 1, 2]


class TestShrinker:
    """Shrinking against a synthetic oracle: the 'bug' is any program
    whose main body mentions sum(."""

    @pytest.fixture()
    def fake_backends(self, monkeypatch):
        def fake_run_case(case, check=False, budget=None,
                          backends=differ.BACKENDS, pool=None):
            buggy = "sum(" in case.body.render()
            v = {b: Outcome(value=1) for b in differ.BACKENDS}
            if buggy:
                v["vector"] = Outcome(value=2)
            return v
        monkeypatch.setattr(differ, "run_case", fake_run_case)

    def test_shrinks_to_minimal_trigger(self, fake_backends):
        big = Node(INT, "(({0}) + ({1}))", (
            Node(INT, "sum({0})", (leaf(SEQ, "s"),)),
            Node(INT, "(({0}) * ({1}))", (leaf(INT, "a"), leaf(INT, "b")))))
        case = FuzzCase(seed=0, body=big, helpers=(),
                        args=(5, 7, [1, 2], [3], [[1]]))
        d = shrink_case(Differential(), case)
        assert "sum(" in d.shrunk.body.render()
        assert d.shrunk.body.size() <= 2       # sum(s) and nothing else
        assert not compare_outcomes(d.outcomes)

    def test_shrinks_arguments(self, fake_backends):
        case = FuzzCase(seed=0, body=Node(INT, "sum({0})", (leaf(SEQ, "s"),)),
                        helpers=(), args=(5, 7, [1, 2, 3], [4, 5], [[1], [2]]))
        small = shrink_case(Differential(), case).shrunk
        assert small.args[0] == 0              # ints zeroed
        assert small.args[2] == []             # seqs emptied

    def test_shrinking_keeps_the_case_own_parameters(self, fake_backends):
        case = FuzzCase(seed=0, body=leaf(SEQ, "[r <- ss: sum(r) + a]"),
                        helpers=(), args=(5, [[1], [2, 3]]),
                        params=(("a", INT), ("ss", SEQ2)))
        small = shrink_case(Differential(), case).shrunk
        assert small.params == case.params
        assert small.types == ("int", "seq(seq(int))")
        assert small.args == (0, [])
        assert small.source.startswith("fun main(a, ss) =")

    def test_agreeing_case_returned_unchanged(self):
        """An agreeing case has nothing to shrink: its word comes back."""
        case = gen_case(1)
        assert shrink_case(Differential(), case) == "agreed"
        assert compare_outcomes(run_case(case))

    def test_fuzz_reports_shrunk_disagreement(self, fake_backends):
        # patch the generator output too: one seeded buggy case
        big = Node(INT, "(({0}) - ({1}))", (
            Node(INT, "sum({0})", (leaf(SEQ, "t"),)), leaf(INT, "9")))
        buggy_case = FuzzCase(seed=99, body=big, helpers=(),
                              args=(0, 0, [], [], []))
        verdict = Differential()
        report = differ.FuzzReport(verdict)
        d = shrink_case(verdict, buggy_case)
        assert d.case is buggy_case
        report.findings.append(d)
        text = d.describe()
        assert "disagree" in text
        assert "sum(" in text
        assert not report.ok


class TestCostShrinker:
    """The cost lane's findings go through the same shrinker, against a
    synthetic verdict: the 'unsound bound' is any program whose main body
    mentions sum(."""

    @pytest.fixture()
    def fake_cost(self, monkeypatch):
        def judge(self, case):
            if "sum(" not in case.body.render():
                return "sound"
            return CostViolation(case=case, measured_work=9, measured_span=1,
                                 predicted_work=4, predicted_span=1)
        monkeypatch.setattr(CostSoundness, "judge", judge)

    @pytest.fixture()
    def case(self):
        big = Node(INT, "(({0}) + ({1}))", (
            Node(INT, "sum({0})", (leaf(SEQ, "s"),)),
            Node(INT, "(({0}) * ({1}))", (leaf(INT, "a"), leaf(INT, "b")))))
        return FuzzCase(seed=7, body=big, helpers=("fun h(x) = x + 1",),
                        args=(5, 7, [1, 2], [3], [[1]]))

    def test_shrinks_body_helpers_and_arguments(self, fake_cost, case):
        v = shrink_case(CostSoundness(), case)
        assert isinstance(v, CostViolation) and v.case is case
        assert v.signature == (True, False)
        assert v.shrunk.body.render() == "sum(s)"
        assert v.shrunk.helpers == ()
        assert v.shrunk.args == (0, 0, [], [], [])
        assert v.shrunk.source == "fun main(a, b, s, t, ss) =\n  sum(s)"

    def test_fuzz_reports_the_shrunk_violation(self, fake_cost, case,
                                               monkeypatch):
        monkeypatch.setattr(differ, "gen_case", lambda seed: case)
        report = fuzz(CostSoundness(), 7, 1)
        assert report.summary() == ("fuzz --cost: 1 programs, 0 sound, "
                                    "0 unbounded, 0 skipped, 1 violations, "
                                    "0 invalid")
        assert not report.ok
        [v] = report.findings
        assert v.shrunk.helpers == ()
        text = v.describe()
        assert "seed 7: measured cost exceeds the static bound" in text
        assert "fun h" not in text and "sum(s)" in text
