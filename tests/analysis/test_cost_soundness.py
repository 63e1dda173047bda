"""Soundness of the static cost bounds against the interpreter, at
fuzzing scale: 200 generated programs, zero tolerated violations (the
acceptance criterion of the cost-analysis PR).

A violation here means a program whose measured interpreter work or span
exceeded the static certificate — i.e. the abstract charge model dropped
a cost somewhere.  The fuzzer shrinks any such program before reporting,
so a failure message is a minimal reproducer, not a 40-node blob."""

from repro.fuzz import CostSoundness, fuzz

COUNT = 200


def test_two_hundred_fuzzed_programs_zero_violations():
    report = fuzz(CostSoundness(), seed=0, count=COUNT)
    assert report.count == COUNT
    msg = "\n\n".join(v.describe() for v in report.findings)
    assert report.ok, f"unsound bounds:\n{msg}"
    assert not report.invalid, "analyzer crashed on generated programs"
    # the lane must actually exercise the analyzer: most generated
    # programs are boundable, and the sound+unbounded+skipped split
    # accounts for every case
    assert report.tally["sound"] >= COUNT // 2
    assert (report.tally["sound"] + report.tally["unbounded"]
            + report.tally["skipped"] + len(report.invalid)
            + len(report.findings)) == COUNT
