"""The exact fusion boundary for checked ops (docs in
repro/transform/fuse.py, "Fusion boundary").

Two pinned properties:

1. the checked ops ``div``, ``mod``, ``fdiv``, ``sqrt_`` never appear
   inside a registered fused tree — they are fusion barriers;
2. the error a failing checked op raises is **byte-identical** whether
   fusion is on or off, on every back end (the check always sees the
   original operands at the original program point).
"""

import pytest

from repro import ReproError, TransformOptions, compile_program
from repro.transform.fuse import _UNSAFE

# one source per checked op, each embedding the op in a fusable chain so
# the pass is tempted on both sides, plus args that make the check fire
CHECKED = [
    ("div", "fun f(v) = [x <- v: (x * 2 + 1) / (x - 2) + x * x]",
     [[1, 2, 3]]),
    ("mod", "fun f(v) = [x <- v: (x + 1) mod (x - 2) * (x + x)]",
     [[1, 2, 3]]),
    ("fdiv",
     "fun f(v: seq(float)) = [x <- v: fdiv(x * x + 1.0, x - 2.0) * x]",
     [[1.0, 2.0]]),
    ("sqrt_",
     "fun f(v: seq(float)) = [x <- v: sqrt_(x * x - 10.0) + x * 2.0]",
     [[1.0, 2.0]]),
]

OK_ARGS = {  # same programs, arguments on which no check fires
    "div": [[5, 7, 9]],
    "mod": [[5, 7, 9]],
    "fdiv": [[5.0, 7.0]],
    "sqrt_": [[5.0, 7.0]],
}


def _prims(tree, out):
    if tree[0] == "prim":
        out.add(tree[1])
        for c in tree[2]:
            _prims(c, out)
    return out


def registry_prims(src, entry, args):
    prog = compile_program(src, options=TransformOptions(fuse=True))
    types = prog.entry_types(entry, args)
    tp = prog.prepare(entry, tuple(types))[1]
    prims = set()
    for tree in tp.fusion.trees.values():
        _prims(tree, prims)
    return prims, tp.fusion


def outcome(prog, args, backend):
    try:
        return ("ok", prog.run("f", args, backend=backend))
    except ReproError as e:
        return (type(e).__name__, str(e))


@pytest.mark.parametrize("op,src,args", CHECKED,
                         ids=[c[0] for c in CHECKED])
class TestCheckedOpBoundary:
    def test_checked_op_never_in_fused_tree(self, op, src, args):
        prims, fusion = registry_prims(src, "f", args)
        assert prims, "the surrounding chain should still fuse"
        assert not prims & _UNSAFE, \
            f"checked op leaked into a fused tree: {prims & _UNSAFE}"

    @pytest.mark.parametrize("backend", ["vector", "native", "interp"])
    def test_error_byte_identical(self, op, src, args, backend):
        on = compile_program(src, options=TransformOptions(fuse=True))
        off = compile_program(src)
        got_on = outcome(on, args, backend)
        got_off = outcome(off, args, backend)
        assert got_on[0] != "ok", "the check must fire on these args"
        assert got_on == got_off

    @pytest.mark.parametrize("backend", ["vector", "native"])
    def test_results_identical_when_check_passes(self, op, src, args,
                                                 backend):
        on = compile_program(src, options=TransformOptions(fuse=True))
        off = compile_program(src)
        good = OK_ARGS[op]
        assert (on.run("f", good, backend=backend)
                == off.run("f", good, backend=backend))


def test_unsafe_set_is_exactly_the_checked_ops():
    assert _UNSAFE == {"div", "mod", "fdiv", "sqrt_"}


def test_div_is_a_barrier_not_a_blocker():
    """Chains on each side of a checked op still fuse — the op bounds
    fusion, it does not disable it."""
    src = "fun f(v) = [x <- v: (x * 2 + 1) / (x * x - 2 * x + 3)]"
    prims, fusion = registry_prims(src, "f", [[1, 2, 3]])
    assert fusion.trees, "both operand chains should have fused"
    assert "div" not in prims
