"""A budget rides in the batch, and its verdict does not depend on who
rides with it.

The serve core charges a budget on the member's own ``f^1`` run: a group
runs under the tightest budget of its members and, when that breaches,
each member re-runs under its own.  That is sound because ``f^1`` on a
frame uses at least what it uses on any sub-frame (its control flow is
``__any``-guarded), which the first test checks on the four monotone
fields.  The second drives :func:`repro.serve.batcher.run_group` — what
both executors run — and checks that a budgeted request's verdict (its
value, or the limit named) is the same alone, beside generous
batchmates, beside a breaching batchmate, and on a key promoted to
``native``, for a budget exactly at its own threshold and one below."""

import glob
import os

import pytest

from repro.api import compile_program
from repro.cli import _example_spec
from repro.fuzz.gen import gen_case
from repro.guard import Budget, GuardConfig, GuardState, guarded
from repro.native import toolchain
from repro.serve import CompileCache
from repro.serve.policy import TierPolicy
from repro.serve.batcher import run_group

#: Budget field, and the limit its breach names, in the order of
#: :func:`usage`'s tuple
FIELDS = (("max_steps", "steps"), ("max_elements", "elements"),
          ("max_bytes", "bytes"), ("max_call_depth", "call-depth"))
HUGE = Budget(**{f: 10 ** 12 for f, _ in FIELDS})

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "*.py")))


def example(path):
    with open(path) as f:
        spec = _example_spec(f.read())
    args = list(spec["PROFILE_ARGS"])
    return spec["SOURCE"], spec["PROFILE_ENTRY"], None, [args] * 3


def fuzzed(seed):
    case = gen_case(seed)
    mates = [list(gen_case(seed + k * 1000).args) for k in (1, 2)]
    return case.source, case.entry, case.types, [list(case.args), *mates]


CASES = [pytest.param(*example(p), id=os.path.basename(p)[:-3])
         for p in EXAMPLES] + \
    [pytest.param(*fuzzed(s), id=f"gen{s}") for s in range(60)]


@pytest.fixture
def usage(monkeypatch):
    """``usage(prog, entry, argsets, types)``: what one ``f^1`` run over
    ``argsets`` charges, as ``(steps, elements, bytes, deepest call)`` —
    each the least ceiling of its field that the run passes."""
    deepest = [0]
    enter = GuardState.enter_call

    def tracking(self, fname, frame_elems):
        enter(self, fname, frame_elems)
        deepest[0] = max(deepest[0], len(self.stack))

    monkeypatch.setattr(GuardState, "enter_call", tracking)

    def measure(prog, entry, argsets, types):
        prog.run_batched(entry, argsets, types=types)      # warm
        deepest[0] = 0
        with guarded(GuardConfig(budget=HUGE)) as st:
            prog.run_batched(entry, argsets, types=types)
        return st.steps, st.elements, st.bytes_moved, deepest[0]

    return measure


@pytest.mark.parametrize("source, entry, types, argsets", CASES)
def test_a_member_uses_at_most_what_its_batch_uses(source, entry, types,
                                                    argsets, usage):
    prog = compile_program(source)
    batch = usage(prog, entry, argsets, types)
    for args in argsets:
        own = usage(prog, entry, [args], types)
        assert all(o <= b for o, b in zip(own, batch)), (own, batch)


def verdict(outcome):
    ok, body = outcome
    return ("ok", body) if ok else (type(body).__name__,
                                    getattr(body, "limit", None))


@pytest.mark.parametrize("source, entry, types, argsets", CASES)
def test_a_served_verdict_does_not_depend_on_batchmates(
        source, entry, types, argsets, usage):
    prog = compile_program(source)
    args, mate, other = argsets
    own = usage(prog, entry, [args], types)
    key = ("verdict", source, entry, types)
    cache = CompileCache(4)
    plain = TierPolicy(0, 3, 5.0)                 # never tiers
    promoted = None
    if toolchain.available():
        promoted = TierPolicy(1, 3, 5.0)
        promoted.choose(key, "vector", lambda: 10 ** 9)

    def served(tier, items, budgets):
        job = {"source": source, "options": None, "use_prelude": True,
               "fname": entry, "types": types, "check": False,
               "backend": "vector", "key": key,
               "items": items, "budgets": budgets}
        outcomes, _ = run_group(cache, tier, job)
        return verdict(outcomes[[rid for rid, _ in items].index("m")])

    k = sum(map(ord, source)) % len(FIELDS)       # one field per program
    field, limit = FIELDS[k]
    t = own[k]
    for ceiling in (t, t - 1) if t > 0 else (t,):
        b = Budget(**{field: ceiling})
        alone = served(plain, [("m", args)], [b])
        assert alone[0] == ("ok" if ceiling == t else "ResourceLimitError")
        if ceiling < t:
            assert alone[1] == limit
        rides = [("m", args), ("g", mate), ("u", other)]
        assert served(plain, rides, [b, HUGE, None]) == alone
        breach = [("x", mate), ("m", args), ("u", other)]
        assert served(plain, breach, [Budget(max_steps=0), b, None]) == alone
        if promoted is not None:
            assert served(promoted, [("m", args)], [b]) == alone
            assert served(promoted, rides, [b, HUGE, None]) == alone
