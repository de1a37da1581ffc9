"""Lowering on several host threads (:mod:`repro.parallel`).

A rule that splits its rows over the host threads must lower exactly as
it does whole: the same result bytes, instruction stream, statistics,
saturation count and integrity checks for every thread count.  The
properties force the split below the floor (``_SPLIT_FLOOR``) and set
the thread count themselves, so they exercise 1, 2 and 3 threads on any
machine, and they check that the pool was really used.

``THREADS_EXAMPLES`` overrides every property's example count (CI runs
300 with a fixed ``--hypothesis-seed``).

The structural tests below them spy on the pool at the real floor:
serving-size GEMMs never reach it, a 2048-row GEMM does.

The apps' own host math splits through :func:`repro.parallel.fill_rows`
(fixed row blocks, one call each): ``TestHostMath`` checks the helper
on ragged shapes and the backprop, LUD and Gaussian outcomes on 1, 2
and 3 threads, and that backprop's ``_predict`` reaches the pool at its
default size only.  ``TestImports`` keeps scipy out of the serving
processes.
"""

import asyncio
import contextlib
import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parallel
from repro.apps.backprop import BackpropApp
from repro.apps.gaussian import GaussianApp
from repro.apps.lud import LUDApp
from repro.edgetpu.isa import Opcode
from repro.edgetpu.quantize import quantize_tiles
from repro.host.platform import Platform
from repro.plan import PlanCache
from repro.runtime import tensorizer as tensorizer_module
from repro.runtime.api import OpenCtpu
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer, TensorizerOptions
from repro.serve import ServeConfig, TpuServer
from tests.runtime.test_vectorized_equivalence import data, laid_out, make_request, styles
from tests.serve.test_coalescer import gemm_request

_EXAMPLES = os.environ.get("THREADS_EXAMPLES")
THREAD_COUNTS = (1, 2, 3)

quant_modes = st.sampled_from([QuantMode.SCALE, QuantMode.GLOBAL])
seeds = st.integers(0, 2**32 - 1)
integrity = st.sampled_from(["off", "abft"])


def examples(default: int) -> settings:
    """Hypothesis settings: *default* examples unless the env overrides."""
    return settings(max_examples=int(_EXAMPLES or default), deadline=None)


@contextlib.contextmanager
def host_threads(count: int, floor: int = -1, block_bytes=None, block_rows=None):
    """Run with *count* host threads and split floor *floor* (``-1``
    splits every kernel with more than one row), and optionally GEMM
    block bytes and :func:`~repro.parallel.fill_rows` block rows; yields
    the list of pool submissions made meanwhile."""
    saved = (parallel._THREADS, parallel._SPLIT_FLOOR, parallel._executor,
             tensorizer_module._GEMM_BLOCK_BYTES, parallel._BLOCK_ROWS)
    real_executor = parallel._executor
    submits = []

    class CountingPool:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, *args):
            submits.append(args)
            return self.pool.submit(fn, *args)

    parallel._THREADS, parallel._SPLIT_FLOOR = count, floor
    parallel._executor = lambda: CountingPool(real_executor())
    if block_bytes is not None:
        tensorizer_module._GEMM_BLOCK_BYTES = block_bytes
    if block_rows is not None:
        parallel._BLOCK_ROWS = block_rows
    try:
        yield submits
    finally:
        (parallel._THREADS, parallel._SPLIT_FLOOR, parallel._executor,
         tensorizer_module._GEMM_BLOCK_BYTES, parallel._BLOCK_ROWS) = saved


def _check_fields(check):
    """A TileCheck as comparable values (arrays by their bytes)."""
    return tuple(
        (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for value in (getattr(check, f.name) for f in dataclasses.fields(check))
    )


def observe(tz, lowered):
    """Everything a split must not change, for a list of lowered ops."""
    ops = []
    for op in lowered:
        result = np.asarray(op.result)
        checks = (
            None if op.integrity is None
            else [_check_fields(c) for c in op.integrity.checks.values()]
        )
        ops.append((result.shape, result.tobytes(), op.instrs, op.saturated,
                    op.cpu_seconds, checks))
    return ops, dataclasses.asdict(tz.stats)


def assert_thread_invariant(lower, block_bytes=None):
    """``lower()`` observes the same outcome on 1, 2 and 3 threads, and
    when it says it has rows enough to split, the pool was used."""
    outcomes = {}
    for count in THREAD_COUNTS:
        with host_threads(count, block_bytes=block_bytes) as submits:
            outcomes[count] = lower()
        if count == 1:
            assert submits == []
        elif outcomes[count][2]:
            assert submits, "the kernel was expected to split"
    want = outcomes[1][:2]
    for count in THREAD_COUNTS[1:]:
        assert outcomes[count][:2] == want


def lowering(build, splits, **options):
    """A ``lower()`` for :func:`assert_thread_invariant`: a fresh
    Tensorizer lowers ``build()``; *splits* says whether it has rows
    enough to split at all."""

    def lower():
        tz = Tensorizer(options=TensorizerOptions(**options))
        lowered = build(tz)
        return (*observe(tz, lowered), splits)

    return lower


class TestThreadCountInvariance:
    @given(
        st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.MUL]),
        st.integers(1, 400), st.integers(1, 200), quant_modes, styles, seeds, integrity,
    )
    @examples(25)
    def test_pairwise(self, op, rows, cols, quant, style, seed, mode):
        rng = np.random.default_rng(seed)
        a, b = data(rng, (rows, cols), style), data(rng, (rows, cols), "normal")
        assert_thread_invariant(lowering(
            lambda tz: [tz.lower(make_request(op, a, b, quant=quant))],
            splits=rows > 128, integrity=mode,
        ))

    @given(
        st.sampled_from([Opcode.TANH, Opcode.RELU]),
        st.integers(1, 400), st.integers(1, 200), quant_modes, styles, seeds,
    )
    @examples(25)
    def test_unary(self, op, rows, cols, quant, style, seed):
        a = data(np.random.default_rng(seed), (rows, cols), style)
        assert_thread_invariant(lowering(
            lambda tz: [tz.lower(make_request(op, a, quant=quant))], splits=rows > 128,
        ))

    @given(
        st.integers(1, 300), st.integers(1, 200), st.integers(1, 150),
        quant_modes, styles, seeds, integrity, st.sampled_from([None, 16 << 10]),
        st.sampled_from(["contiguous", "transposed", "strided"]),
    )
    @examples(25)
    def test_gemm_conv2d(self, m, n, k, quant, style, seed, mode, block_bytes, layout):
        # A small block budget streams several row blocks, each split.  A
        # column-major or strided A takes its chunk ranges from one
        # per-row pass, split by rows.
        rng = np.random.default_rng(seed)
        a, b = data(rng, (m, n), style), data(rng, (n, k), "normal")
        if layout != "contiguous":
            a = laid_out(a, layout, rng)
        assert_thread_invariant(lowering(
            lambda tz: [tz.lower(make_request(Opcode.CONV2D, a, b, quant=quant, gemm=True))],
            splits=m > 1, integrity=mode,
        ), block_bytes=block_bytes)

    @given(
        st.integers(2, 4), st.integers(1, 130), st.integers(1, 130), st.integers(1, 90),
        styles, seeds, integrity, st.booleans(),
    )
    @examples(20)
    def test_gemm_coalesced(self, clients, m, n, k, style, seed, mode, cached):
        rng = np.random.default_rng(seed)
        b = data(rng, (n, k), "normal")
        members = [data(rng, (m, n), style) for _ in range(clients)]

        def group():
            return [
                OperationRequest(
                    task_id=3 + i, opcode=Opcode.CONV2D, inputs=(a, b),
                    quant=QuantMode.SCALE, attrs={"gemm": True}, input_name=f"client{i}",
                )
                for i, a in enumerate(members)
            ]

        def build(tz):
            # With a plan cache: a capture, then a warm bind.
            if not cached:
                return tz.lower_gemm_coalesced(group())
            tz.plan_cache = PlanCache()
            return tz.lower_gemm_coalesced(group()) + tz.lower_gemm_coalesced(group())

        assert_thread_invariant(lowering(build, splits=True, integrity=mode))

    @given(
        st.integers(1, 300), st.integers(1, 300), st.integers(1, 5), st.integers(1, 5),
        quant_modes, styles, seeds,
    )
    @examples(25)
    def test_conv2d_stencil(self, rows, cols, kh, kw, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (max(rows, kh), max(cols, kw)), style)
        kern = rng.uniform(0.0, 1.0, (kh, kw))
        assert_thread_invariant(lowering(
            lambda tz: [tz.lower(make_request(Opcode.CONV2D, a, kern, quant=quant))],
            splits=a.shape[0] - kh + 1 > 128 - max(kh, kw) + 1,
        ))

    @given(
        st.integers(1, 400), st.integers(1, 300), quant_modes, styles, seeds, st.booleans(),
    )
    @examples(25)
    def test_matvec(self, m, n, quant, style, seed, named):
        # Many tiles: the measured bounds, quantize_tiles and the batched
        # products all split.
        rng = np.random.default_rng(seed)
        mat, vec = data(rng, (m, n), style), data(rng, (m,), "normal")
        attrs = {"model_name": "w"} if named else {}

        def build(tz):
            request = lambda: make_request(  # noqa: E731
                Opcode.FULLY_CONNECTED, vec, mat, quant=quant, **attrs
            )
            return [tz.lower(request()), tz.lower(request())]

        assert_thread_invariant(lowering(build, splits=m > 128))

    @given(st.integers(1, 200), st.integers(1, 300), st.integers(1, 300), quant_modes, seeds)
    @examples(15)
    def test_gemm_fc(self, m, n, k, quant, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, n)), rng.normal(size=(n, k))
        assert_thread_invariant(lowering(
            lambda tz: [tz.lower(make_request(Opcode.FULLY_CONNECTED, a, b, quant=quant))],
            splits=n > 128,
        ))

    @given(
        st.integers(1, 400), st.integers(1, 300), st.sampled_from([64, 128]), st.booleans(),
        styles, seeds,
    )
    @examples(25)
    def test_quantize_tiles(self, rows, cols, tile, glob, style, seed):
        matrix = data(np.random.default_rng(seed), (rows, cols), style)
        scale = 0.75 if glob else None

        def lower():
            q, scales = quantize_tiles(matrix, tile, scale)
            return (q.tobytes(), q.shape), scales.tobytes(), rows > tile

        assert_thread_invariant(lower)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_non_finite_operand_raises_what_one_thread_raises(self, threads):
        a = np.random.default_rng(1).normal(size=(400, 200))
        a[300, 7] = np.nan
        for op in (Opcode.ADD, Opcode.TANH):
            operands = (a, a) if op.is_pairwise else (a,)
            with pytest.raises(Exception) as alone, host_threads(1):
                Tensorizer().lower(make_request(op, *operands))
            with pytest.raises(type(alone.value), match=re.escape(str(alone.value))), \
                    host_threads(threads):
                Tensorizer().lower(make_request(op, *operands))


def _gemm(m, n, k, **attrs):
    rng = np.random.default_rng(7)
    return make_request(
        Opcode.CONV2D, rng.normal(size=(m, n)), rng.normal(size=(n, k)), gemm=True, **attrs
    )


class TestPoolSpy:
    """Which lowerings reach the pool at the real floor (two threads)."""

    @pytest.mark.parametrize("size", [32, 64, 128, 256])
    @pytest.mark.parametrize("chunks", [None, 1])
    def test_serving_size_gemm_never_submits(self, size, chunks):
        # Serving sends gemm_chunks=1, with ABFT and a plan cache.
        attrs = {} if chunks is None else {"gemm_chunks": chunks}
        tz = Tensorizer(options=TensorizerOptions(integrity="abft"), plan_cache=PlanCache())
        with host_threads(2, floor=parallel._SPLIT_FLOOR) as submits:
            tz.lower(_gemm(size, size, size, **attrs))
            tz.lower(_gemm(size, size, size, **attrs))  # warm bind
        assert submits == []

    @pytest.mark.parametrize("size, members", [(64, 16), (128, 16), (256, 1)])
    def test_coalesced_group_at_or_below_the_floor_never_submits(self, size, members):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(size, size))
        requests = [
            OperationRequest(
                task_id=i, opcode=Opcode.CONV2D, inputs=(rng.normal(size=(size, size)), b),
                quant=QuantMode.SCALE, attrs={"gemm": True, "gemm_chunks": 1},
                input_name=f"client{i}",
            )
            for i in range(members)
        ]
        with host_threads(2, floor=parallel._SPLIT_FLOOR) as submits:
            Tensorizer(plan_cache=PlanCache()).lower_gemm_coalesced(requests)
        assert submits == []

    def test_in_process_server_below_the_floor_never_submits(self):
        # Bursts of ladder-size GEMMs sharing one B per size: every
        # group coalesces or lowers solo under the floor.
        rng = np.random.default_rng(9)
        requests = []
        for size in (32, 64, 128):
            b = rng.normal(size=(size, size))
            requests += [gemm_request(rng.normal(size=(size, size)), b) for _ in range(6)]

        async def serve():
            async with TpuServer(Platform.with_tpus(4), ServeConfig(time_scale=0.0)) as server:
                return await asyncio.gather(*(server.submit_nowait(r) for r in requests))

        with host_threads(2, floor=parallel._SPLIT_FLOOR) as submits:
            outcomes = asyncio.run(serve())
        assert len(outcomes) == len(requests)
        assert submits == []

    def test_2048_row_gemm_submits_and_matches_one_thread(self):
        results = {}
        for count in (1, 2):
            with host_threads(count, floor=parallel._SPLIT_FLOOR) as submits:
                results[count] = Tensorizer().lower(_gemm(2048, 2048, 64))
            assert (len(submits) > 0) == (count == 2)
        assert results[2].result.tobytes() == results[1].result.tobytes()
        assert results[2].instrs == results[1].instrs

    def test_a_split_never_splits_again(self):
        # A kernel running on a pool worker sees one range, so workers
        # never wait on each other.
        def kernel(r0, r1):
            return parallel.row_ranges(10, 1 << 30)

        with host_threads(2):
            inner = parallel.split_rows(kernel, parallel.row_ranges(2, 1 << 30))
        assert inner[0] == [(0, 5), (5, 10)]
        assert inner[1] == [(0, 10)]


def _app_outcome(app, params, seed, tpus=4):
    """What an app run shows: output bytes, modeled seconds, joules."""
    inputs = app.generate(seed=seed, **params)
    res = app.run_gptpu(inputs, OpenCtpu(Platform.with_tpus(tpus)))
    value = np.asarray(res.value)
    return (value.shape, value.tobytes(), res.wall_seconds,
            res.energy.active_joules, res.energy.total_joules)


class TestHostMath:
    """The apps' host NumPy on several threads (:func:`parallel.fill_rows`)."""

    @given(
        st.integers(1, 90), st.integers(1, 40), st.integers(1, 30), st.integers(1, 9),
        styles, seeds,
    )
    @examples(25)
    def test_fill_rows_is_thread_count_invariant(self, rows, n, k, block_rows, style, seed):
        # A row-independent kernel of products, sums and tanh, on ragged
        # shapes and blocks: every thread count makes the same calls.
        rng = np.random.default_rng(seed)
        x, w, b = data(rng, (rows, n), style), rng.normal(size=(n, k)), rng.normal(size=k)

        def kernel(r0, r1, out):
            np.matmul(x[r0:r1], w, out=out)
            out += b
            np.tanh(out, out=out)

        outs = {}
        for count in THREAD_COUNTS:
            with host_threads(count, block_rows=block_rows) as submits:
                out = parallel.fill_rows(np.empty((rows, k)), kernel, rows * n * k)
            outs[count] = out.tobytes()
            assert bool(submits) == (count > 1 and rows > block_rows)
        assert outs[2] == outs[1] and outs[3] == outs[1]

    def test_fill_rows_below_the_floor_calls_the_kernel_once(self):
        calls = []

        def kernel(r0, r1, out):
            calls.append((r0, r1))
            out[:] = 1.0

        with host_threads(2, floor=parallel._SPLIT_FLOOR, block_rows=4) as submits:
            out = parallel.fill_rows(np.empty((64, 8)), kernel, 64 * 8)
        assert calls == [(0, 64)] and submits == [] and (out == 1.0).all()

    @pytest.mark.parametrize("app, params", [
        (BackpropApp(), {"batch": 40, "n_in": 24, "n_hidden": 16, "n_out": 8}),
        (LUDApp(leaf=8), {"n": 40}),
        (GaussianApp(block=8), {"n": 36}),
    ], ids=["backprop", "lud", "gaussian"])
    def test_app_outcome_is_thread_count_invariant(self, app, params):
        # The floor forced: the app's host math and every lowering kernel
        # split, in blocks of 7 rows.
        outcomes = {}
        for count in THREAD_COUNTS:
            with host_threads(count, block_rows=7) as submits:
                outcomes[count] = _app_outcome(app, params, seed=5)
            assert bool(submits) == (count > 1)
        assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]

    @staticmethod
    def _predict_submits(params):
        app = BackpropApp()
        inputs = app.generate(seed=3, **params)
        with host_threads(2, floor=parallel._SPLIT_FLOOR) as submits:
            app._predict(inputs, inputs["w1"], inputs["w2"])
        return submits

    def test_backprop_predict_splits_at_default_size(self):
        assert self._predict_submits(BackpropApp().default_params())

    def test_backprop_predict_on_a_tiny_operand_runs_whole(self):
        assert self._predict_submits({"batch": 64, "n_in": 32, "n_hidden": 16, "n_out": 8}) == []


class TestImports:
    @staticmethod
    def _fresh_process_prints(code):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.abspath(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=120, check=True,
        )
        return out.stdout.strip()

    def test_serving_processes_load_no_scipy(self):
        # scipy adds about 28 MB of RSS to a process; the in-process
        # server and MP workers never need it.
        code = (
            "import sys, repro.serve, repro.mp.worker\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert self._fresh_process_prints(code) == "[]"

    def test_production_processes_load_no_des_reference(self):
        # The generator DES kernel belongs to the DES reference only;
        # production keeps a plain clock on the platform.
        code = (
            "import sys, repro.host.platform, repro.runtime.api, repro.serve, "
            "repro.mp.worker, repro.sim\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.conformance')),"
            " hasattr(repro.sim, 'Engine'))"
        )
        assert self._fresh_process_prints(code) == "[] False"

    def test_mp_workers_load_no_load_generator(self):
        # The load generators sit one layer above repro.serve and repro.mp
        # (repro.loadgen); a worker process imports the data plane only.
        code = (
            "import sys, repro.mp.worker\n"
            "print(sorted(m for m in sys.modules if m.rsplit('.', 1)[-1] == 'loadgen'))"
        )
        assert self._fresh_process_prints(code) == "[]"
