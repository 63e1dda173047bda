"""Error-parity matrix: every *runtime* error class must be raised by all
three back ends, and every *static* error must be raised before any back
end runs.  The error class and the refusal to produce a wrong answer are
the contract.  Some errors also read the same on all five lanes: an
out-of-range index, update or permute target, a strict fold of an empty
segment, and what the boundary refuses."""

import numpy as np
import pytest

from repro import ReproError, compile_program
from repro.api import BACKENDS
from repro.errors import EvalError, ParseError, TypeCheckError, VectorError

RUNTIME_CASES = [
    # (description, source, entry, args)
    ("index above range", "fun f(v) = v[#v + 1]", "f", [[1, 2]]),
    ("index zero", "fun f(v) = v[0]", "f", [[1, 2]]),
    ("index into empty", "fun f(v) = v[1]", "f", [[]]),
    ("index inside frame", "fun f(v) = [x <- v: v[x]]", "f", [[5]]),
    ("div by zero", "fun f(a, b) = a div b", "f", [1, 0]),
    ("mod by zero", "fun f(a, b) = a mod b", "f", [1, 0]),
    ("div by zero in frame", "fun f(v) = [x <- v: 10 div x]", "f", [[2, 0]]),
    ("restrict length mismatch",
     "fun f(v, m) = restrict(v, m)", "f", [[1, 2], [True]]),
    ("combine length mismatch",
     "fun f(m, v, u) = combine(m, v, u)", "f", [[True], [1], [2]]),
    ("dist negative count", "fun f(c, r) = dist(c, r)", "f", [1, -2]),
    ("update out of range",
     "fun f(v) = seq_update(v, 5, 0)", "f", [[1]]),
    ("maxval of empty", "fun f(v) = maxval(v)", "f", [[]]),
    ("minval of empty", "fun f(v) = minval(v)", "f", [[]]),
    ("reduce of empty", "fun f(v) = reduce(add, v)", "f", [[]]),
    ("maxval of empty under a producer",
     "fun f(v) = [s <- v: maxval([x <- s: x * x + 1])]", "f", [[[1], []]]),
    ("minval of empty under a producer",
     "fun f(v) = minval([x <- v: x * x + 1])", "f", [[]]),
    ("permute bad index", "fun f(v, i) = permute(v, i)", "f", [[1, 2], [1, 5]]),
    ("permute duplicate", "fun f(v, i) = permute(v, i)", "f", [[1, 2], [2, 2]]),
]


class TestRuntimeErrorParity:
    @pytest.mark.parametrize("desc,src,entry,args",
                             RUNTIME_CASES,
                             ids=[c[0] for c in RUNTIME_CASES])
    def test_all_backends_raise(self, desc, src, entry, args):
        prog = compile_program(src)
        for backend in ("interp", "vector", "vcode"):
            with pytest.raises(ReproError):
                prog.run(entry, args, backend=backend)


OUT_OF_RANGE = ["index above range", "index zero", "index into empty",
                "index inside frame", "update out of range",
                "permute bad index"]


class TestOutOfRangeErrorParity:
    """The interpreter's words and bound, on every lane."""

    @pytest.mark.parametrize("desc,src,entry,args",
                             [c for c in RUNTIME_CASES
                              if c[0] in OUT_OF_RANGE], ids=OUT_OF_RANGE)
    def test_same_class_and_message(self, desc, src, entry, args):
        prog = compile_program(src)
        said = {}
        for backend in BACKENDS:
            with pytest.raises(ReproError) as got:
                prog.run(entry, args, backend=backend)
            said[backend] = (type(got.value), str(got.value))
        assert len(set(said.values())) == 1, said
        assert said["interp"][0] is EvalError


class TestFusedFoldErrorParity:
    """A strict fold at the root of a fused region (what every vector
    lane runs) fails exactly as the unfused ``vector`` run does: same
    class, same message."""

    @pytest.mark.parametrize("desc,src,entry,args",
                             [c for c in RUNTIME_CASES if "producer" in c[0]],
                             ids=["maxval", "minval"])
    def test_same_class_and_message(self, desc, src, entry, args):
        from repro import TransformOptions
        unfused = compile_program(src, options=TransformOptions(fuse=False))
        with pytest.raises(ReproError) as want:
            unfused.run(entry, args, backend="vector")
        fused = compile_program(src)
        for backend in ("vector", "vcode", "native", "parallel"):
            with pytest.raises(ReproError) as got:
                fused.run(entry, args, backend=backend)
            assert (type(got.value), str(got.value)) == \
                (type(want.value), str(want.value)), backend


class TestFusedFoldConformance:
    """A fold-rooted region checks what the unfused elementwise op checks
    of its element streams: two that disagree element by element raise
    the typed ``VectorError``, on every engine — never NumPy's broadcast
    error or whatever a C kernel would read past the shorter stream."""

    @staticmethod
    def _engines():
        from repro.native import toolchain
        from repro.native.engine import NativeEngine
        engines = {"vector": None}
        if toolchain.available():
            engines["native"] = NativeEngine()
            engines["parallel"] = NativeEngine().at_threads(2)
        return engines

    def test_same_class_and_words_as_the_unfused_op(self):
        from repro.lang import types as T
        from repro.transform.fuse import FusionRegistry
        from repro.vector.convert import from_python
        from repro.vexec.apply import Applier
        rows = T.TSeq(T.TSeq(T.INT))
        a = from_python([[1, 2], [3]], rows)
        b = from_python([[], [4]], rows)     # two segments; 3 elements vs 1
        with pytest.raises(VectorError) as want:
            Applier(None, lambda n: False).apply_named(
                "mul", [a, b], (2, 2), 2, rows)
        assert "non-conformable frames with lengths [1, 3]" \
            in str(want.value)
        fusion = FusionRegistry()
        name = fusion.register(
            ("fold", "sum", (("prim", "mul", (("arg", 0), ("arg", 1))),)),
            (0, 1))
        for label, engine in self._engines().items():
            ap = Applier(None, lambda n: False, fusion=fusion, native=engine)
            with pytest.raises(VectorError) as got:
                ap.apply_named(name, [a, b], (1, 1), 1, T.TSeq(T.INT))
            assert str(got.value) == str(want.value).replace(
                "mul^1", f"{name}^1"), label

    def test_prelude_dotp_under_a_user_length_agrees_on_every_lane(self):
        """The program that reached such a region: ``dotp``'s ``#a`` is
        the user's ``length`` (0), on every lane."""
        prog = compile_program("fun length(a0) = 0\n"
                               "fun f(a, b) = dotp(a, b)")
        for backend in BACKENDS:
            assert prog.run("f", [[1, 2], [3, 4]], backend=backend) == 0, \
                backend


BIG = 2 ** 70
SEQ = ("seq(int)",)

#: (description, args, types, what every lane says) for ``fun f(v) = [x <-
#: v: x + 1]``: an error class and message, or the answer.  Where the
#: reference interpreter legitimately differs from the four vector lanes
#: the row says both: ``(interp, vector lanes)``.
BOUNDARY_CASES = [
    ("bool among ints", [[1, True]], None,
     (EvalError, "heterogeneous sequence: [1, True]")),
    ("bool among ints, typed", [[1, True]], SEQ,
     (EvalError, "argument[2]: expected int, got True")),
    ("float among ints", [[1, 2.0]], None,
     (EvalError, "heterogeneous sequence: [1, 2.0]")),
    ("float among ints, typed", [[1, 2.0]], SEQ,
     (EvalError, "argument[2]: expected int, got 2.0")),
    ("a string", ["ab"], None, (EvalError, "not a P value: 'ab'")),
    ("a string, typed", ["ab"], SEQ,
     (EvalError, "argument: expected a sequence (list), got 'ab'")),
    ("None", [None], None, (EvalError, "not a P value: None")),
    ("None, typed", [None], SEQ,
     (EvalError, "argument: expected a sequence (list), got None")),
    ("a NumPy integer", [[1, np.int64(3)]], None,
     (EvalError, f"not a P value: {np.int64(3)!r}")),
    ("a NumPy integer, typed", [[1, np.int64(3)]], SEQ,
     (EvalError, f"argument[2]: expected int, got {np.int64(3)!r}")),
    ("an ndarray", [np.array([1, 2])], None,
     (EvalError, f"not a P value: {np.array([1, 2])!r}")),
    ("an ndarray, typed", [np.array([1, 2])], SEQ,
     (EvalError, "argument: expected a sequence (list), "
                 f"got {np.array([1, 2])!r}")),
    # a tuple is a P value: untyped, the door has nothing to refuse.  The
    # binder refuses the instance; the interpreter, which has no types,
    # iterates whatever Python iterates
    ("a tuple for a sequence", [(1, 2)], None,
     ([2, 3], (TypeCheckError, "type mismatch: (int, int) vs seq(int) in "
                               "specialization of f"))),
    ("a tuple for a sequence, typed", [(1, 2)], SEQ,
     (EvalError, "argument: expected a sequence (list), got (1, 2)")),
    # int64 is the vector side's only integer; Python's has no bound
    ("an integer beyond int64", [[BIG]], None,
     ([BIG + 1], (VectorError, f"integer {BIG} does not fit int64"))),
    ("an integer beyond int64, typed", [[BIG]], SEQ,
     ([BIG + 1], (VectorError, f"integer {BIG} does not fit int64"))),
    # arity: the interpreter's own check, the binder's on the vector lanes
    ("one argument too many", [[1], [2]], None,
     ((EvalError, "f expects 1 arguments, got 2"),
      (TypeCheckError, "f expects 1 arguments, got 2"))),
    ("one argument too many, typed", [[1], [2]], SEQ,
     (TypeCheckError, "types/args length mismatch")),
]


class TestBoundaryErrorParity:
    """What the door between Python values and a lane refuses, it refuses
    on every lane in the same words, through ``run`` and ``run_batched``."""

    @pytest.mark.parametrize("desc, args, types, want", BOUNDARY_CASES,
                             ids=[c[0] for c in BOUNDARY_CASES])
    def test_every_lane_says_the_same(self, desc, args, types, want):
        prog = compile_program("fun f(v) = [x <- v: x + 1]")
        split = isinstance(want[0], (list, tuple))
        for backend in BACKENDS:
            says = want if not split else want[backend != "interp"]
            for batch in (False, True):
                try:
                    got = prog.run_batched("f", [args, args], backend, types) \
                        if batch else prog.run("f", args, backend, types)
                    got = got[0] if batch and got[0] == got[1] else got
                except ReproError as e:
                    got = type(e), str(e)
                assert got == says, (backend, batch)


#: (description, source, what the interpreter answers) on ``[1, 2]``: an
#: int literal outside int64.  The interpreter's integers have no bound, so
#: it answers; the four vector lanes refuse the literal where it becomes a
#: kernel operand, in the boundary's words.  Which is right is ROADMAP
#: 5(a)'s open decision (wrap, or raise on every lane).
LITERAL_OVERFLOW_CASES = [
    ("a scalar operand in a frame",
     "fun f(v) = [x <- v: x * 100000000000000000000]",
     [10 ** 20, 2 * 10 ** 20]),
    ("a hoisted scalar of a fused region",
     "fun f(v) = [x <- v: x * 100000000000000000000 + 1]",
     [10 ** 20 + 1, 2 * 10 ** 20 + 1]),
    ("a depth-0 operand", "fun f(v) = 100000000000000000000 + #v",
     10 ** 20 + 2),
]


class TestLiteralOverflowParity:
    @pytest.mark.parametrize("desc, src, interp", LITERAL_OVERFLOW_CASES,
                             ids=[c[0] for c in LITERAL_OVERFLOW_CASES])
    def test_the_vector_lanes_refuse_it_in_the_boundarys_words(
            self, desc, src, interp):
        prog = compile_program(src)
        assert prog.run("f", [[1, 2]], backend="interp") == interp
        for backend in BACKENDS:
            if backend == "interp":
                continue
            with pytest.raises(VectorError) as got:
                prog.run("f", [[1, 2]], backend=backend)
            assert str(got.value) == \
                "integer 100000000000000000000 does not fit int64", backend


STATIC_CASES = [
    ("unbound variable", "fun f(x) = y"),
    ("arity mismatch", "fun g(x) = x fun f(x) = g(x, x)"),
    ("branch type mismatch", "fun f(b) = if b then 1 else true"),
    ("condition not bool", "fun f(x) = if x + 1 then 1 else 2"),
    ("heterogeneous literal", "fun f() = [1, true]"),
    ("iterator over scalar", "fun f(x) = [i <- x + 1: i]"),
    ("eq on sequences", "fun f(v) = v == [1]"),
    ("filter not bool", "fun f(v) = [x <- v | x + 1: x]"),
    ("calling non-function", "fun f(x) = (x + 1)(2)"),
    ("capturing lambda", "fun f(a, v) = [x <- v: (fn(y) => y + a)(x)]"),
]


class TestStaticErrors:
    @pytest.mark.parametrize("desc,src", STATIC_CASES,
                             ids=[c[0] for c in STATIC_CASES])
    def test_rejected_at_compile_time(self, desc, src):
        with pytest.raises(TypeCheckError):
            prog = compile_program(src)
            # schemes are inferred eagerly at compile time
            assert prog is None  # pragma: no cover


PARSE_CASES = [
    "fun f(x) = ",
    "fun f x) = x",
    "fun f(x) = [x <-]",
    "fun f(x) = let in x",
    "fun = 1",
    "1 + 2",           # top level must be definitions
]


class TestParseErrors:
    @pytest.mark.parametrize("src", PARSE_CASES)
    def test_rejected(self, src):
        with pytest.raises(ParseError):
            compile_program(src)


class TestNoWrongAnswers:
    """Errors must not be swallowed into wrong values by vectorization:
    a partial failure inside a frame poisons the whole computation."""

    def test_error_in_one_element_fails_whole_frame(self):
        prog = compile_program("fun f(v) = [x <- v: 100 div x]")
        # interp evaluates left to right; vector evaluates all at once —
        # both must fail even though some elements are fine
        for backend in ("interp", "vector"):
            with pytest.raises(ReproError):
                prog.run("f", [[1, 2, 0, 4]], backend=backend)

    def test_untaken_branch_errors_do_not_fire(self):
        # but errors in *untaken* conditional branches must NOT fire
        prog = compile_program(
            "fun f(v) = [x <- v: if x == 0 then 0 else 100 div x]")
        assert prog.run_all("f", [[1, 0, 4]]) == [100, 0, 25]
