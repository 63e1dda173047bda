"""One battery, two executors: the same request stream gives the same
outcome per request — the value, or the error's class, ``limit``,
``stage`` family and request id — on the in-process
:class:`BatchExecutor` and on the :class:`WorkerPool`.

The pool *is* the executor with its groups run in worker processes
(``run_group`` is what both execute), so this cannot fail by drift; it
fails when someone re-implements a piece of the core on one side only —
as predicted admission once was, which never reached ``--pool``.
"""

import pytest

from repro.errors import EvalError, ResourceLimitError
from repro.guard import Budget
from repro.serve import BatchExecutor, PoolConfig, ServeConfig, WorkerPool

SQUARES = "fun main(n) = sum([i <- [1..n]: i * i])"
PICK = "fun main(v) = v[2] * 10"
CHAIN = "fun main(s) = sum([x <- s: x * x + 1])"    # fuses: a native kernel


def squares(n):
    return sum(i * i for i in range(1, n + 1))


@pytest.fixture(params=[(BatchExecutor, ServeConfig),
                        (WorkerPool, PoolConfig)],
                ids=["BatchExecutor", "WorkerPool"])
def serve(request):
    """``serve(**config)`` → a running executor of the parametrized
    kind, closed at teardown."""
    Executor, Config = request.param
    opened = []

    def make(**kw):
        opened.append(Executor(Config(workers=1, **kw)))
        return opened[-1]

    yield make
    for ex in opened:
        ex.close()


def signature(err):
    """What a client can tell of a failed request."""
    if isinstance(err, ResourceLimitError):
        return ("ResourceLimitError", err.limit, err.stage.split(":")[0],
                err.request)
    return (type(err).__name__,)


def outcome(call):
    """What a client can observe of one request: ``call()`` submits it
    and returns the future (or raises at submit)."""
    try:
        fut = call()
        err = fut.exception(60)
    except (ResourceLimitError, ValueError) as e:
        err = e
    return ("ok", fut.result()) if err is None else signature(err)


def test_plain_request(serve):
    ex = serve()
    assert outcome(lambda: ex.submit(SQUARES, "main", [7])) == \
        ("ok", squares(7))
    assert ex.stats.snapshot()["singles"] == 1


def test_coalesced_batch(serve):
    ex = serve(max_batch=16)
    futs = [ex.submit(SQUARES, "main", [k]) for k in range(1, 41)]
    assert [f.result(60) for f in futs] == [squares(k) for k in range(1, 41)]
    s = ex.stats.snapshot()
    assert s["batches"] >= 1 and 2 <= s["max_batch"] <= 16
    assert s["batched_requests"] + s["singles"] == 40
    assert s["responses"] == 40 and s["errors"] == 0
    assert sum(n * c for n, c in s["batch_sizes"].items()) == \
        s["batched_requests"]


def test_a_mixed_stream_answers_in_order(serve):
    """2,000 requests on eight keys, a tenth of them budgeted (they ride
    in the coalesced groups of their key), submitted without waiting:
    each future holds its own request's value — whatever groups, and on
    the pool whatever frames, the stream happened to be cut into."""
    import random
    rng = random.Random(21)
    sources = [f"fun main(s) = sum([x <- s: x * {k + 2} + 1])"
               for k in range(8)]
    ex = serve(max_queue=4096, native_after=0)
    futs, want = [], []
    for i in range(2000):
        k, s = rng.randrange(8), [rng.randrange(100)
                                  for _ in range(rng.randrange(6))]
        budget = Budget(max_elements=10 ** 6) if i % 10 == 3 else None
        futs.append(ex.submit(sources[k], "main", [s], types=("seq(int)",),
                              budget=budget))
        want.append(sum(x * (k + 2) + 1 for x in s))
    assert [f.result(120) for f in futs] == want
    s = ex.stats.snapshot()
    assert s["responses"] == 2000 and s["errors"] == 0
    assert s["batched_requests"] + s["singles"] == 2000
    assert s["batches"] >= 1 and s["fallbacks"] == 0
    assert s["budgeted_batched"] >= 1     # a generous budget never breaches


def test_runtime_error_inside_a_batch_spares_batchmates(serve):
    ex = serve()
    # queued behind a slow request, so the four coalesce
    slow = ex.submit(SQUARES, "main", [300000])
    futs = [ex.submit(PICK, "main", [v], request_id=f"m{i}")
            for i, v in enumerate(([1, 2, 3], [4, 5], [6], [7, 8, 9]))]
    got = [outcome(lambda f=f: f) for f in futs]
    assert got == [("ok", 20), ("ok", 50), ("EvalError",), ("ok", 80)]
    assert isinstance(futs[2].exception(0), EvalError)
    assert slow.result(60) == squares(300000)
    s = ex.stats.snapshot()
    assert s["fallbacks"] == 1 and s["batches"] == 0 and s["errors"] == 1


def test_run_time_budget_breach_names_its_request(serve):
    ex = serve(predict_admission=False)
    ok = ex.submit(SQUARES, "main", [10], request_id="fine")
    assert outcome(lambda: ex.submit(SQUARES, "main", [500],
                                     budget=Budget(max_steps=1),
                                     request_id="tight")) == \
        ("ResourceLimitError", "steps", "kernel", "tight")
    assert ok.result(60) == squares(10)


def test_predicted_rejection_at_submit(serve):
    """Fails on the pool at the parent commit: it served this request."""
    ex = serve()
    assert outcome(lambda: ex.submit(
        CHAIN, "main", [list(range(1000))], budget=Budget(max_steps=10),
        request_id="heavy")) == \
        ("ResourceLimitError", "predicted-steps", "serve", "heavy")
    s = ex.stats.snapshot()
    assert s["predicted_rejections"] == 1 and s["requests"] == 0


def test_deadline_expiry_in_the_queue(serve):
    ex = serve()
    assert outcome(lambda: ex.submit(SQUARES, "main", [5], deadline_s=0.0,
                                     request_id="late")) == \
        ("ResourceLimitError", "timeout", "serve", "late")
    assert ex.stats.expired == 1
    assert ex.submit(SQUARES, "main", [5]).result(60) == squares(5)


def test_queue_depth_rejection(serve):
    ex = serve(max_queue=1)
    with pytest.raises(ResourceLimitError) as ei:
        for k in range(200):             # outruns the single worker
            ex.submit(SQUARES, "main", [3000], request_id=f"q{k}")
    assert signature(ei.value) == \
        ("ResourceLimitError", "queue-depth", "serve", f"q{k}")
    assert ex.stats.rejected == 1


def test_unknown_backend_is_a_value_error(serve):
    ex = serve()
    assert outcome(lambda: ex.submit(SQUARES, "main", [1],
                                     backend="bogus")) == ("ValueError",)
    assert ex.queue_depth() == 0 and ex.stats.requests == 0


@pytest.fixture
def broken_cc(monkeypatch, tmp_path):
    """A C compiler that exists and always fails, in this process and in
    every worker (spawned, so they inherit the environment): each native
    kernel build is a real ``NativeCompileError``."""
    from repro.native import engine, toolchain
    from repro.parallel import reset_engines
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr("repro.serve.pool._START_METHOD", "spawn")

    def reset():
        toolchain.reset()
        engine.reset_engine()
        reset_engines()

    reset()
    yield
    monkeypatch.undo()
    reset()


def test_native_tier_falls_back_when_the_kernel_does_not_compile(
        serve, broken_cc):
    ex = serve(native_after=1, breaker_failures=1)
    for k in range(1, 6):                # promoted by the second request
        assert ex.submit(CHAIN, "main", [list(range(k))]).result(60) == \
            sum(x * x + 1 for x in range(k))
    s = ex.stats.snapshot()
    assert s["promotions"] == 1 and s["demotions"] == 1
    assert s["responses"] == 5 and s["errors"] == 0
