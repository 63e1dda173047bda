"""E11 — section 4.5 ablations.

Three design decisions the paper calls out, each measured on/off:

1. **shared seq_index** — "If the source parameter is fixed relative to the
   surrounding iterators, there is no need to replicate it ... each set of
   index values would retrieve from their own copy of the source sequence,
   clearly a waste of time and space."  We count replicated elements in the
   vector-op trace and time both variants.
2. **native flatten** — "Flatten can be implemented simply by creating a
   new descriptor vector for the values rather than by creating a new value
   using the reduce and concat function definitions."  Native descriptor
   surgery vs the P-level ``flatten_p`` (recursive reduce of concat_p).
3. **native reductions** — rewriting ``reduce(add, v)`` to the segmented
   ``sum`` primitive.
"""

import random


from repro import TransformOptions, compile_program
from repro.machine import VectorMachine

GATHER = "fun gather(v, ix) = [i <- ix: v[i]]"

#: the default pipeline without ``optimize``: seq_index is never shared
UNSHARED = TransformOptions(passes="canonical,eliminate,simplify,fuse")
#: the default pipeline with ``native-reduce`` before ``optimize``
NATIVE_REDUCE = TransformOptions(
    passes="canonical,eliminate,native-reduce,optimize,simplify,fuse")

rng = random.Random(12)


def trace_work(prog, fname, args):
    _res, trace = prog.vector_trace(fname, args)
    return sum(w for _op, w in trace), len(trace)


class TestSharedIndexAblation:
    def setup_method(self):
        self.v = [rng.randrange(100) for _ in range(2000)]
        self.ix = [rng.randrange(1, 2001) for _ in range(2000)]

    def test_same_results(self):
        on = compile_program(GATHER)
        off = compile_program(GATHER, options=UNSHARED)
        assert on.run("gather", [self.v, self.ix]) == \
            off.run("gather", [self.v, self.ix])

    def test_shared_does_less_work(self):
        on = compile_program(GATHER)
        off = compile_program(GATHER, options=UNSHARED)
        w_on, _ = trace_work(on, "gather", [self.v, self.ix])
        w_off, _ = trace_work(off, "gather", [self.v, self.ix])
        # without sharing, the 2000-element source is replicated for each of
        # the 2000 index values somewhere in the pipeline
        assert w_on < w_off, (w_on, w_off)

    def test_simulated_cycles_improve(self):
        on = compile_program(GATHER)
        off = compile_program(GATHER, options=UNSHARED)
        m = VectorMachine(processors=16, latency=2)
        _r, t_on = on.vector_trace("gather", [self.v, self.ix])
        _r, t_off = off.vector_trace("gather", [self.v, self.ix])
        assert m.run_trace(t_on).cycles <= m.run_trace(t_off).cycles


FLATTEN = """
fun native(vv) = flatten(vv)
fun plevel(vv) = flatten_p(vv)
"""


class TestNativeFlattenAblation:
    def setup_method(self):
        self.vv = [[rng.randrange(50) for _ in range(rng.randrange(0, 9))]
                   for _ in range(600)]

    def test_same_results(self):
        prog = compile_program(FLATTEN)
        flat = [x for row in self.vv for x in row]
        assert prog.run("native", [self.vv]) == flat
        assert prog.run("plevel", [self.vv]) == flat

    def test_native_far_cheaper(self):
        prog = compile_program(FLATTEN)
        w_nat, s_nat = trace_work(prog, "native", [self.vv])
        w_p, s_p = trace_work(prog, "plevel", [self.vv])
        assert w_nat < w_p / 5, (w_nat, w_p)
        assert s_nat < s_p / 5, (s_nat, s_p)


REDUCE = "fun total(v) = reduce(add, v)"


class TestNativeReduceAblation:
    def setup_method(self):
        self.v = [rng.randrange(-50, 50) for _ in range(4096)]

    def test_same_results(self):
        on = compile_program(REDUCE, options=NATIVE_REDUCE)
        off = compile_program(REDUCE)
        assert on.run("total", [self.v]) == off.run("total", [self.v]) \
            == sum(self.v)

    def test_native_fewer_steps(self):
        on = compile_program(REDUCE, options=NATIVE_REDUCE)
        off = compile_program(REDUCE)
        _w_on, s_on = trace_work(on, "total", [self.v])
        _w_off, s_off = trace_work(off, "total", [self.v])
        # the P-level reduce runs log2(4096) = 12 recursion levels
        assert s_on < s_off / 10, (s_on, s_off)


# -- wall-time benchmarks -------------------------------------------------------

def test_bench_gather_shared(benchmark):
    prog = compile_program(GATHER)
    v = [rng.randrange(100) for _ in range(5000)]
    ix = [rng.randrange(1, 5001) for _ in range(5000)]
    vm, mono = prog.vcode_vm("gather", [v, ix])
    benchmark(lambda: vm.call(mono, [v, ix]))


def test_bench_gather_replicated(benchmark):
    prog = compile_program(GATHER, options=UNSHARED)
    v = [rng.randrange(100) for _ in range(5000)]
    ix = [rng.randrange(1, 5001) for _ in range(5000)]
    vm, mono = prog.vcode_vm("gather", [v, ix])
    benchmark(lambda: vm.call(mono, [v, ix]))


def test_bench_flatten_native(benchmark):
    prog = compile_program(FLATTEN)
    vv = [[1] * (i % 9) for i in range(600)]
    vm, mono = prog.vcode_vm("native", [vv])
    benchmark(lambda: vm.call(mono, [vv]))


def test_bench_flatten_plevel(benchmark):
    prog = compile_program(FLATTEN)
    vv = [[1] * (i % 9) for i in range(600)]
    vm, mono = prog.vcode_vm("plevel", [vv])
    benchmark(lambda: vm.call(mono, [vv]))


def test_bench_reduce_native(benchmark):
    prog = compile_program(REDUCE, options=NATIVE_REDUCE)
    v = list(range(4096))
    vm, mono = prog.vcode_vm("total", [v])
    assert benchmark(lambda: vm.call(mono, [v])) == sum(v)


def test_bench_reduce_plevel(benchmark):
    prog = compile_program(REDUCE)
    v = list(range(4096))
    vm, mono = prog.vcode_vm("total", [v])
    assert benchmark(lambda: vm.call(mono, [v])) == sum(v)
