"""Tensorizer: dynamic lowering of operations to Edge TPU instructions.

Implements paper §6.2 in full:

* **Mapping operators into instructions** (§6.2.1).  Pair-wise and
  element-wise operators tile into 128×128 sub-matrices; matrix-wise
  reductions (mean/max) tile into 64×64 sub-matrices with CPU-side
  aggregation; arithmetic operators (FullyConnected, conv2D) follow the
  blocking algorithm with CPU aggregation of partial products.
* **The conv2D GEMM algorithm** (§7.1.2): rows of the source matrix
  become √N×√N sub-matrices, columns of the other matrix become kernels,
  and strided conv2D produces exact matrix-multiply results.  Lives here
  because the *partitioning* (chunking + kernel batching) is Tensorizer's
  job; the user-facing entry point is :func:`repro.ops.gemm.tpu_gemm`.
  One engine lowers it: a list of GEMMs sharing one model operand, of
  which a solo GEMM is a group of one and a serving-coalesced group
  (:meth:`Tensorizer.lower_gemm_coalesced`) is the general case.
* **Data transformation** (§6.2.2): per-tile (or global) input scales
  and the Eqs. 5–8 output scaling factors.
* **Fast model creation** (§6.2.3): every model is costed through the
  1.8 ms/2K² Tensorizer builder (or the 2.7 s TFLite flow when the fast
  path is disabled — the paper's motivating baseline).

Lowering executes each instruction *functionally* with exact int8
semantics (including output requantization), so accuracy results are
real; the timing metadata is replayed on the DES by the executor to
obtain the parallel timeline.

Each opcode has one lowering rule, run as a handful of batched NumPy
kernels: pairwise and unary ops one 128-row band at a time on the
operand's own layout, conv2D-GEMM over row blocks of a fixed byte
budget, the other rules over stacks of same-shape tiles (see
``docs/performance.md``).  Host memory then stays near the working set.
Large kernels split their rows over the host threads
(:mod:`repro.parallel`); everything stateful — statistics, model-build
accounting, integrity plans — stays on the calling thread, merged in
row order, so a split lowering is bit-identical to a whole one.
The per-tile oracle these rules must match — byte-for-byte identical
``LoweredInstr`` streams and bit-identical results — is
:class:`repro.conformance.reference.ReferenceTensorizer`; the property
tests in ``tests/runtime/test_vectorized_equivalence.py`` enforce it.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import parallel
from repro.config import EdgeTPUConfig
from repro.errors import QuantizationError, TensorizerError
from repro.edgetpu import functional
from repro.edgetpu.device import EdgeTPUDevice
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.model_format import HEADER_SIZE
from repro.edgetpu.quantize import (
    QMAX,
    QMIN,
    QuantParams,
    batch_max_abs,
    data_range,
    dequantize_batched,
    output_quant_params,
    params_for_range,
    quantize,
    quantize_batched,
    quantize_tiles,
    requantize_batched,
    scales_for_ranges,
)
from repro.edgetpu.timing import TimingModel
from repro.host.cpu import CPUCoreModel
from repro.integrity.plan import IntegrityPlan, make_exact_check, make_gemm_check
from repro.plan.cache import PlanCache, plan_signature
from repro.plan.compiled import (
    KIND_GEMM,
    MODEL_SRC_TOKEN,
    SRC_TOKEN,
    TASK_TOKEN,
    CompiledPlan,
    GemmGeometry,
    InstrTemplate,
    model_block_for,
)
from repro.plan.operand import frozen, hold_operand, same_operand
from repro.runtime.opqueue import (
    LoweredInstr,
    LoweredOperation,
    OperationRequest,
    QuantMode,
)
from repro.runtime.tiling import (
    fill_padding,
    grid_shape,
    iter_tiles,
    stack_tiles,
    tile_sizes,
)
from repro.telemetry import SpanTracer, get_tracer

#: Serialized-model overhead beyond the data section (§3.3 header + metadata).
MODEL_OVERHEAD_BYTES = HEADER_SIZE + 12

#: Conv2D-GEMM scratch-buffer LRU bound.  A serving mix alternating
#: between a few GEMM geometries keeps each one's buffers resident;
#: anything beyond a handful of live geometries is churn.
_GEMM_SCRATCH_SLOTS = 4

#: Byte budget of one conv2D-GEMM row block: its quantized A rows plus
#: their float32 slab products.  A GEMM streams over blocks of whole row
#: chunks, so its scratch stays block-sized however tall A is, while a
#: full serving group (16 coalesced 256² GEMMs) still fits in one block.
_GEMM_BLOCK_BYTES = 8 << 20


def _gemm_block_rows(n: int, k: int, rows_per_chunk: int, total_rows: int) -> int:
    """Rows per streamed conv2D-GEMM block: whole row chunks within the
    byte budget, at least one chunk, at most the rows there are."""
    row_bytes = 4 * (n + k * len(functional.f32_slab_starts(n)))
    chunks = max(_GEMM_BLOCK_BYTES // (row_bytes * rows_per_chunk), 1)
    return min(chunks * rows_per_chunk, total_rows)


def _gemm_scratch(block_rows: int, n: int, k: int, rows_per_chunk: int) -> dict:
    """Conv2D-GEMM buffers: one row block, the quantized B, and one
    float64 workspace pair per host thread.

    A workspace holds one row chunk of A while it is quantized and one
    chunk's accumulator strip at requantize.  The first pair's strip
    also quantizes B's rows, as many as fit an eighth of the budget;
    the pairs of further threads are added on their first split (see
    :func:`_split_with_workspaces`).
    """
    chunk_h = min(rows_per_chunk, block_rows)
    strip_h = max(chunk_h, min(n, _GEMM_BLOCK_BYTES // (64 * k)))
    return {
        "q_a": np.empty((block_rows, n), dtype=np.float32),
        "q_b": np.empty((n, k), dtype=np.float32),
        "workspaces": [(
            np.empty((chunk_h, n), dtype=np.float64),
            np.empty((strip_h, k), dtype=np.float64),
        )],
        "parts": [
            np.empty((block_rows, k), dtype=np.float32)
            for _ in functional.f32_slab_starts(n)
        ],
    }


def _split_with_workspaces(sc: dict, rows: int, work: int, kernel) -> list:
    """:func:`repro.parallel.split_rows` over *rows*, each range handed
    its own workspace pair of the conv2D-GEMM scratch *sc* as
    ``kernel(r0, r1, (tmp_a, strip))``.  A thread beyond the first adds
    one chunk-sized pair to the scratch, once."""
    ranges = parallel.row_ranges(rows, work)
    spaces = sc["workspaces"]
    while len(spaces) < len(ranges):
        tmp_a, strip = spaces[0]
        spaces.append((np.empty_like(tmp_a), np.empty((len(tmp_a), strip.shape[1]))))
    slot = {r0: spaces[i] for i, (r0, _) in enumerate(ranges)}
    return parallel.split_rows(lambda r0, r1: kernel(r0, r1, slot[r0]), ranges)


def _laid_out_like(buf: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A view of the float64 buffer *buf* with *like*'s shape, column-major
    when *like* is (backprop's ``x.T``), so an elementwise pass from
    *like* reads and writes both in memory order.  A 64-row chunk of a
    2048² ``x.T`` quantized through a row-major buffer took 60 ms per
    operand, against 18 ms through a column-major one."""
    h, w = like.shape
    flat = buf.reshape(-1)[: h * w]
    if like.strides[0] < like.strides[1]:
        return flat.reshape(w, h).T
    return flat.reshape(h, w)


def _extremes(views: Sequence[np.ndarray], work: int) -> List[Tuple[float, float]]:
    """``(max, min)`` of each view: one pass per reduction, the views
    split over the host threads."""

    def scan(v0: int, v1: int) -> List[Tuple[float, float]]:
        return [(float(v.max()), float(v.min())) for v in views[v0:v1]]

    ranges = parallel.row_ranges(len(views), work)
    return [pair for part in parallel.split_rows(scan, ranges) for pair in part]


def _chunk_extremes(a: np.ndarray, starts: Sequence[int]) -> List[Tuple[float, float]]:
    """``(max, min)`` of each row chunk of *a* (chunk i is rows
    ``starts[i]..starts[i+1]``), as :func:`_extremes` of the chunk views.

    A column-major *a* (backprop's ``x.T``) makes each chunk view a
    strided walk; one per-row max and min over the whole operand reads
    it in memory order, and ``reduceat`` folds the rows of each chunk.
    Exact: max and min do not round, and NaN survives both folds.
    """
    rows = len(a)
    hi, lo = np.empty(rows), np.empty(rows)

    def scan(r0: int, r1: int) -> None:
        np.max(a[r0:r1], axis=1, out=hi[r0:r1])
        np.min(a[r0:r1], axis=1, out=lo[r0:r1])

    parallel.split_rows(scan, parallel.row_ranges(rows, a.size))
    idx = np.asarray(starts, dtype=np.intp)
    return list(zip(
        np.maximum.reduceat(hi, idx).tolist(), np.minimum.reduceat(lo, idx).tolist()
    ))


def _extreme_params(hi: float, lo: float) -> QuantParams:
    """Params covering a view whose (max, min) is (*hi*, *lo*):
    bit-identical to :func:`params_for_data` (``max|x| == max(max,
    -min)``, exact in IEEE) without an ``|x|`` temporary.  NaN anywhere
    makes both reductions NaN and inf survives the fold, so the same
    inputs are rejected with the same error."""
    mx = max(hi, -lo)
    if not math.isfinite(mx):
        raise QuantizationError("data contains non-finite values")
    return params_for_range(mx)


def _tile_columns(cols: int, tile: int) -> Tuple[np.ndarray, np.ndarray]:
    """Start column and width of each tile column of a *cols*-wide matrix."""
    starts = np.arange(0, cols, tile)
    return starts, np.minimum(starts + tile, cols) - starts


def _band_max_abs(band: np.ndarray, col_starts: np.ndarray) -> np.ndarray:
    """Per-tile ``max |x|`` over one row band's tiles (no ``|x|`` temporary).

    ``max(max, -min)`` per tile, its columns reduced with ``reduceat``:
    bit-identical to :func:`batch_max_abs` of the tiles.  NaN survives
    both reductions and ±inf the fold, so callers can validate the
    reduced vector instead of the band.
    """
    hi = np.maximum.reduceat(band, col_starts, axis=1).max(axis=0)
    lo = np.minimum.reduceat(band, col_starts, axis=1).min(axis=0)
    return np.maximum(hi, -lo)


def _bind_template(
    t: InstrTemplate, task_id: int, source: str, model_source: str, fresh: bool
) -> LoweredInstr:
    """Instantiate a conv2D-GEMM plan template for one request.

    Every key string gets the request's data source, task id and model
    source in place of the plan's placeholder tokens.  ``fresh=True``
    charges the capture-time model-build seconds (the miss that built
    the models); ``fresh=False`` is a warm replay and the instruction
    ships with an already-built model.
    """
    task = str(task_id)
    return LoweredInstr(
        opcode=Opcode.CONV2D,
        task_id=task_id,
        group_key=t.group_key.replace(SRC_TOKEN, source)
        .replace(TASK_TOKEN, task).replace(MODEL_SRC_TOKEN, model_source),
        cache_key=t.cache_key.replace(SRC_TOKEN, source)
        .replace(TASK_TOKEN, task).replace(MODEL_SRC_TOKEN, model_source),
        data_bytes=t.data_bytes,
        model_bytes=t.model_bytes,
        model_build_seconds=t.model_build_seconds if fresh else 0.0,
        exec_seconds=t.exec_seconds,
        out_bytes=t.out_bytes,
        label=t.label,
        model_cache_key=t.model_cache_key.replace(SRC_TOKEN, source)
        .replace(TASK_TOKEN, task).replace(MODEL_SRC_TOKEN, model_source),
        count=t.count,
    )


def _quantize_band(band: np.ndarray, col_scales: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rint(x * f)`` with per-column scales, into the float64 *out*.

    The int8 values :func:`quantize` produces, held as floats.  The clip
    is dead: every scale is ``127 / max|x|`` of data covering the band
    (or 1 where that range is too small to quantize).
    """
    np.multiply(band, col_scales, out=out)
    return np.rint(out, out=out)


class _LazyRange:
    """``data_range`` of some operands, scanned on first use.

    The Eqs. 5-8 output scale needs the operands' (min, max) only when a
    tile's measured Eq. 4 bound is zero or the scaling rule is
    "formula"; the common case never scans the operands for it.  The
    row ranges of a split rule share one instance, so the scan is
    locked: it runs once, whichever thread asks first.
    """

    __slots__ = ("_arrays", "_range", "_lock")

    def __init__(self, *arrays: np.ndarray, known: Optional[Tuple[float, float]] = None) -> None:
        self._arrays = arrays
        self._range = known
        self._lock = threading.Lock()

    def __call__(self) -> Tuple[float, float]:
        with self._lock:
            if self._range is None:
                self._range = data_range(*self._arrays)
                self._arrays = ()
        return self._range


@dataclass(frozen=True)
class TensorizerOptions:
    """Tunable lowering policy (ablation knobs)."""

    #: Optimal sub-matrix edge for arithmetic/pairwise instructions
    #: (§6.2.1 / §3.3: 128×128).
    arithmetic_tile: int = 128
    #: Optimal sub-matrix edge for mean/max (§6.2.1: 64×64).
    reduction_tile: int = 64
    #: Use the §6.2.3 fast model builder; False falls back to the stock
    #: TFLite compile cost (the paper's 1500×-slower baseline).
    fast_model_builder: bool = True
    #: Batch several GEMM kernels (output channels) into one conv2D
    #: instruction, filling the 128² result tile.  Disabling emits one
    #: instruction per kernel, as §7.1.2 describes literally.
    kernel_batching: bool = True
    #: How output quantization scales are chosen (§6.2.2):
    #: "measured" instantiates Eq. 4 with the sampled/true output extreme
    #: (Tensorizer "dynamically evaluates input data"); "formula" applies
    #: the closed-form worst cases of Eqs. 5-8 literally (ablation — far
    #: looser, so quantization error grows on non-uniform data).
    scaling_rule: str = "measured"
    #: Upper bound on a resident GEMM data chunk (leaves room for models
    #: and output buffers in the 8 MB on-chip memory).
    max_chunk_bytes: int = 2 * 1024 * 1024
    #: Minimum number of row chunks a GEMM is split into, so small
    #: problems still expose parallelism to multiple TPUs.
    min_gemm_chunks: int = 32
    #: Silent-data-corruption defense (:mod:`repro.integrity`): "off"
    #: builds nothing (bit-identical, allocation-free); "abft" records
    #: Huang–Abraham row/column checksums for GEMM pieces (plus exact
    #: output checksums for pairwise tiles); "vote" records the same
    #: plans for dual-device cross-checking at dispatch.
    integrity: str = "off"


@dataclass
class TensorizerStats:
    """Lifetime counters for one Tensorizer instance."""

    operations_lowered: int = 0
    instructions_emitted: int = 0
    models_built: int = 0
    model_build_seconds: float = 0.0
    saturated_values: int = 0
    #: Tiles (or GEMM chunk×kernel-batch pieces) processed by lowering.
    tiles_lowered: int = 0
    #: Batched NumPy kernel invocations on stacked tiles.
    batched_dispatches: int = 0
    #: Per-tile scratch-device executions (crop/ext, and every tile of
    #: the conformance reference).
    scalar_dispatches: int = 0
    #: Operations lowered through :meth:`Tensorizer.lower_gemm_coalesced`
    #: (multi-client GEMMs that shared one batched dispatch).
    coalesced_operations: int = 0
    #: Integrity plans attached to lowered operations (SDC defense).
    integrity_plans: int = 0
    #: Tile checks (expected tile + checksums) recorded across plans.
    integrity_tiles_planned: int = 0
    #: Compiled plans captured into the plan cache (misses that lowered
    #: fresh and stored their outcome).
    plan_captures: int = 0
    #: Operations replayed from a cached plan (warm binds; a coalesced
    #: group counts one per member request).
    plan_replays: int = 0


class Tensorizer:
    """Lowers :class:`OperationRequest` entries into instruction streams."""

    def __init__(
        self,
        tpu_config: Optional[EdgeTPUConfig] = None,
        options: Optional[TensorizerOptions] = None,
        cpu: Optional[CPUCoreModel] = None,
        tracer: Optional["SpanTracer"] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.tpu_config = tpu_config or EdgeTPUConfig()
        self.options = options or TensorizerOptions()
        self.cpu = cpu or CPUCoreModel()
        self.timing = TimingModel(self.tpu_config)
        if self.options.scaling_rule not in ("measured", "formula"):
            raise TensorizerError(
                f"unknown scaling_rule {self.options.scaling_rule!r}; "
                "choose 'measured' or 'formula'"
            )
        if self.options.integrity not in ("off", "abft", "vote"):
            raise TensorizerError(
                f"unknown integrity mode {self.options.integrity!r}; "
                "choose 'off', 'abft' or 'vote'"
            )
        self._scratch = EdgeTPUDevice("tensorizer-scratch", self.tpu_config, self.timing)
        self.stats = TensorizerStats()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._op_seq = 0
        self._global_params: Optional[QuantParams] = None
        # AOT compiled-plan cache (opt-in).  None keeps the legacy
        # lower-every-time path — including its per-call model-build
        # accounting, which several tests and the ablation CLI pin.
        self.plan_cache = plan_cache
        # True while re-running a lowering rule under a cached plan;
        # model builds then bind at zero cost without touching stats.
        self._replaying = False
        # Keyed LRU of conv2D-GEMM scratch buffers: geometry key -> dict.
        self._gemm_scratch: "OrderedDict[tuple, dict]" = OrderedDict()
        # The last named FullyConnected model operand, quantized (see
        # _model_tiles): (key, held operand, int8 tiles, scales).
        self._model_memo: Optional[tuple] = None
        # The last read-only operand a crop scanned whole, and the input
        # params that scan gave (see _crop_params).
        self._range_memo: Optional[Tuple[np.ndarray, QuantParams]] = None

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def lower(self, request: OperationRequest) -> LoweredOperation:
        """Lower one OPQ entry into instructions plus its exact result."""
        tracer = self._tracer
        if not tracer.enabled:
            return self._lower_impl(request)
        with tracer.span(
            f"lower:{request.opcode.opname}",
            cat="lower",
            track="tensorizer",
            task_id=request.task_id,
        ) as sp:
            lowered = self._lower_impl(request)
            sp.add_device_seconds(lowered.total_exec_seconds)
            sp.set(instructions=lowered.instruction_count)
            return lowered

    def _lower_impl(self, request: OperationRequest) -> LoweredOperation:
        self._normalize_inputs(request)
        self._global_params = None  # per-operation GLOBAL-params memo
        cache = self.plan_cache
        gemm = request.opcode is Opcode.CONV2D and request.attrs.get("gemm", False)
        if cache is None or gemm or request.opcode.is_macro:
            # conv2D-GEMM consults the cache inside its own rule (it has
            # a dedicated fast-replay path reusing the quantized model);
            # macro ops (conv2D_nn) delegate to that same self-planning
            # GEMM path after im2col; every other rule replays
            # generically below.
            lowered = self._dispatch_rule(request)
        else:
            lowered = self._lower_generic_planned(request, cache)
        self._note_lowered(lowered)
        return lowered

    def _note_lowered(self, lowered: LoweredOperation) -> None:
        """Per-operation counters; advances the ``op{seq}`` source names."""
        self.stats.operations_lowered += 1
        self.stats.instructions_emitted += lowered.instruction_count
        self.stats.saturated_values += lowered.saturated
        self._op_seq += 1

    def _lower_generic_planned(
        self, request: OperationRequest, cache: PlanCache
    ) -> LoweredOperation:
        """Plan capture/replay for every rule without a dedicated path.

        A miss runs the rule as usual and freezes its instruction stream
        into a plan; a hit re-runs the same rule under ``_replaying``, so
        the §6.2.3 model builds — already accounted at capture — bind at
        zero cost, and the emitted stream is validated against the plan.
        Results are bit-identical either way: the rule's arithmetic is
        a pure function of the request.
        """
        signature = plan_signature(request, self.options, self.tpu_config)
        plan = cache.get(signature)
        tracer = self._tracer
        if plan is None:
            tracer.instant(
                "plan_miss", cat="plan", track="tensorizer", op=request.opcode.opname
            )
            lowered = self._dispatch_rule(request)
            cache.put(signature, self._capture_generic(signature, request, lowered))
            self.stats.plan_captures += 1
            return lowered
        tracer.instant(
            "plan_hit", cat="plan", track="tensorizer", op=request.opcode.opname
        )
        sp = tracer.begin(
            "plan_bind", cat="plan", track="tensorizer", op=request.opcode.opname
        )
        self._replaying = True
        try:
            lowered = self._dispatch_rule(request)
        finally:
            self._replaying = False
            tracer.end(sp)
        if len(lowered.instrs) != len(plan.templates):
            raise TensorizerError(
                f"cached plan for {request.opcode.opname} records "
                f"{len(plan.templates)} instruction templates but replay "
                f"emitted {len(lowered.instrs)}"
            )
        plan.replays += 1
        cache.note_bind()
        self.stats.plan_replays += 1
        return lowered

    def _capture_generic(
        self, signature: str, request: OperationRequest, lowered: LoweredOperation
    ) -> CompiledPlan:
        """Freeze a just-lowered operation's stream into a generic plan."""
        templates = [
            InstrTemplate(
                opname=i.opcode.opname,
                label=i.label,
                group_key=i.group_key,
                cache_key=i.cache_key,
                model_cache_key=i.model_cache_key,
                data_bytes=i.data_bytes,
                model_bytes=i.model_bytes,
                out_bytes=i.out_bytes,
                count=i.count,
                model_build_seconds=i.model_build_seconds,
                exec_seconds=i.exec_seconds,
            )
            for i in lowered.instrs
        ]
        return CompiledPlan(
            signature=signature, kind="generic", opname=request.opcode.opname,
            templates=templates,
        )

    def _dispatch_rule(self, request: OperationRequest) -> LoweredOperation:
        """One lowering rule per opcode (the conformance reference
        overrides the same rule names with its per-tile versions)."""
        op = request.opcode
        if op.is_pairwise:
            return self._lower_pairwise(request)
        if op.is_elementwise_unary:
            return self._lower_unary(request)
        if op.is_reduction:
            return self._lower_reduction(request)
        if op is Opcode.FULLY_CONNECTED:
            if request.inputs[0].ndim == 1:
                return self._lower_matvec(request)
            return self._lower_gemm_fc(request)
        if op is Opcode.CONV2D:
            if request.attrs.get("gemm", False):
                return self._lower_gemm_conv2d(request)
            return self._lower_conv2d_stencil(request)
        if op is Opcode.CROP:
            return self._lower_crop(request)
        if op is Opcode.EXT:
            return self._lower_ext(request)
        if op is Opcode.CONV2D_NN:
            return self._lower_conv2d_nn(request)
        if op is Opcode.POOL:
            return self._lower_pool(request)
        if op is Opcode.SOFTMAX:
            return self._lower_softmax(request)
        raise TensorizerError(f"no lowering rule for {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_inputs(request: OperationRequest) -> None:
        """Convert operands to float64 exactly once.

        Pairwise, unary, crop and conv2D-GEMM rules read their operands in
        any layout (transposed or broadcast views cost no copy); every other
        rule gets C-contiguous operands, so its tile slices are views of
        one buffer.
        """
        op = request.opcode
        any_layout = (
            op.is_pairwise
            or op.is_elementwise_unary
            or op is Opcode.CROP
            or (op is Opcode.CONV2D and request.attrs.get("gemm", False))
        )
        convert = np.asarray if any_layout else np.ascontiguousarray
        request.inputs = tuple(convert(x, dtype=np.float64) for x in request.inputs)

    def _model_build_seconds(self, elems: int) -> float:
        """Cost of creating one model blob (fast path or TFLite)."""
        if self._replaying:
            # AOT replay: the model was built — and its cost accounted —
            # once, at plan capture.  The warm bind ships it for free.
            return 0.0
        if self.options.fast_model_builder:
            seconds = self.timing.tensorizer_build_seconds(elems)
        else:
            seconds = self.timing.tflite_compile_seconds(elems)
        self.stats.models_built += 1
        self.stats.model_build_seconds += seconds
        return seconds

    @staticmethod
    def _model_bytes(elems: int) -> int:
        """Serialized size of a model with *elems* int8 weights."""
        return elems + MODEL_OVERHEAD_BYTES

    @staticmethod
    def _params_for_data(data: np.ndarray) -> QuantParams:
        """:func:`params_for_data` of an operand already in float64."""
        if data.size == 0:
            raise QuantizationError("cannot derive quantization parameters from empty data")
        if not np.all(np.isfinite(data)):
            raise QuantizationError("data contains non-finite values")
        return params_for_range(float(np.max(np.abs(data))))

    def _input_params(self, request: OperationRequest, *tiles: np.ndarray) -> QuantParams:
        """Input quantization: per-tile (SCALE) or whole-dataset (GLOBAL)."""
        if request.quant is QuantMode.GLOBAL:
            if self._global_params is None:
                self._global_params = self._range_params(*request.inputs)
            return self._global_params
        return self._range_params(*tiles)

    @staticmethod
    def _range_params(*arrays: np.ndarray) -> QuantParams:
        """Params covering every value of *arrays*."""
        lo, hi = data_range(*arrays)
        return params_for_range(max(abs(lo), abs(hi)))

    def _input_scales(self, request: OperationRequest, stacked: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_input_params`: one scale per stacked tile.

        Zero padding in the stack cannot change a tile's ``max |x|``, so
        scales match the reference's per-tile (unpadded) computation exactly.
        """
        if request.quant is QuantMode.GLOBAL:
            return np.full(stacked.shape[0], self._input_params(request).scale)
        return scales_for_ranges(batch_max_abs(stacked))

    def _output_params(
        self, opname: str, measured_bound: float, minmax: _LazyRange, n: int = 1
    ) -> QuantParams:
        """Output scale per §6.2.2: measured Eq. 4 bound or Eqs. 5-8.

        *minmax* yields the operands' (min, max), the Eqs. 5-8 input.
        """
        if self.options.scaling_rule == "measured" and measured_bound > 0:
            return params_for_range(measured_bound * 1.05)
        return output_quant_params(opname, *minmax(), n)

    def _output_scales(
        self,
        opname: str,
        measured: np.ndarray,
        minmax: _LazyRange,
        ns: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`_output_params`: one output scale per tile.

        ``ns`` broadcasts against ``measured``; the Eqs. 5-8 fallback is
        evaluated once per distinct inner dimension, and only if some
        tile needs it.
        """
        measured = np.asarray(measured, dtype=np.float64)
        if self.options.scaling_rule == "measured":
            meas_scales = scales_for_ranges(measured * 1.05)
            if np.all(measured > 0):
                return meas_scales
        lo, hi = minmax()
        ns_arr = np.broadcast_to(np.asarray(ns, dtype=np.int64), measured.shape)
        fallback = np.empty_like(measured)
        for n in np.unique(ns_arr):
            fallback[ns_arr == n] = output_quant_params(opname, lo, hi, int(n)).scale
        if self.options.scaling_rule != "measured":
            return fallback
        return np.where(measured > 0, meas_scales, fallback)

    def _require_2d_pair(self, request: OperationRequest) -> Tuple[np.ndarray, np.ndarray]:
        if len(request.inputs) != 2:
            raise TensorizerError(f"{request.opcode.opname} needs two inputs")
        a, b = request.inputs  # normalized to float64 by lower()
        if a.ndim != 2 or b.ndim != 2:
            raise TensorizerError(
                f"{request.opcode.opname} operates on 2-D matrices, got {a.shape} and {b.shape}"
            )
        return a, b

    # ------------------------------------------------------------------
    # pair-wise operators: add / sub / mul (§6.2.1 rule 1)
    # ------------------------------------------------------------------

    def _band_input_scales(
        self, request: OperationRequest, col_starts: np.ndarray, *bands: np.ndarray
    ) -> np.ndarray:
        """Input scales (§6.2.2) of one row band's tiles, covering *bands*.

        One scale per tile: each tile's own ``127 / max|x|`` (SCALE) or
        the whole-dataset scale (GLOBAL), exactly as
        :meth:`_input_params` derives it for that tile alone.
        """
        if request.quant is QuantMode.GLOBAL:
            return np.full(len(col_starts), self._input_params(request).scale)
        max_abs = _band_max_abs(bands[0], col_starts)
        for band in bands[1:]:
            np.maximum(max_abs, _band_max_abs(band, col_starts), out=max_abs)
        if not np.all(np.isfinite(max_abs)):
            raise QuantizationError("data contains non-finite values")
        return scales_for_ranges(max_abs)

    def _elementwise_instr(
        self, request: OperationRequest, index: Tuple[int, int], h: int, w: int
    ) -> LoweredInstr:
        """The IQ entry for tile *index* (h×w) of a pairwise or unary op.

        Pairwise ops ship their second operand as a model; a request
        naming its first operand (``data_name``) keeps that tile on chip.
        """
        op = request.opcode
        elems = h * w
        pairwise = op.is_pairwise
        data_name = str(request.attrs.get("data_name", "")) if pairwise else ""
        return LoweredInstr(
            opcode=op,
            task_id=request.task_id,
            group_key="",
            cache_key=f"{data_name}:t{index}" if data_name else "",
            data_bytes=elems,
            model_bytes=self._model_bytes(elems) if pairwise else 0,
            model_build_seconds=self._model_build_seconds(elems) if pairwise else 0.0,
            exec_seconds=self.timing.instruction_seconds(
                op, elems, elems if op is Opcode.MUL else 0
            ),
            out_bytes=elems,
            label=f"{op.opname}@{index}",
        )

    def _lower_pairwise(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape != b.shape:
            raise TensorizerError(f"pairwise shapes differ: {a.shape} vs {b.shape}")
        op = request.opcode
        tile = self.options.arithmetic_tile
        rows, cols = a.shape
        minmax = _LazyRange(a, b)
        float_op = {Opcode.ADD: np.add, Opcode.SUB: np.subtract, Opcode.MUL: np.multiply}[op]
        col_starts, widths = _tile_columns(cols, tile)
        one = np.int64(1)
        result = np.empty((rows, cols))
        if request.quant is QuantMode.GLOBAL:
            self._input_params(request)  # the shared scale, before any split
        # Pairwise ops have no linear accumulator structure for ABFT, so
        # their plan carries exact post-requantization checksums (and,
        # under "vote", the payload for dual-device byte comparison).
        integrity_on = self.options.integrity != "off"

        def bands(b0: int, b1: int) -> List[Tuple[int, list]]:
            """Bands b0..b1: result rows, plus (saturated, checks) each."""
            qa_buf = np.empty((min(tile, rows - b0 * tile), cols))
            qb_buf = np.empty_like(qa_buf)
            outcomes = []
            for r0 in range(b0 * tile, min(b1 * tile, rows), tile):
                r1 = min(r0 + tile, rows)
                a_band, b_band = a[r0:r1], b[r0:r1]
                if op is Opcode.MUL:
                    a_scales = self._band_input_scales(request, col_starts, a_band)
                    b_scales = self._band_input_scales(request, col_starts, b_band)
                    acc_scales = a_scales * b_scales
                else:
                    # add/sub share one scale so integer addition is aligned.
                    a_scales = b_scales = acc_scales = self._band_input_scales(
                        request, col_starts, a_band, b_band
                    )
                qa, qb = qa_buf[: r1 - r0], qb_buf[: r1 - r0]
                # Measured Eq. 4 bound on the raw (pre-quantization) outputs.
                measured = _band_max_abs(float_op(a_band, b_band, out=qa), col_starts)
                out_scales = self._output_scales(op.opname, measured, minmax, one)
                _quantize_band(a_band, np.repeat(a_scales, widths), qa)
                _quantize_band(b_band, np.repeat(b_scales, widths), qb)
                # The int8 products / sums are exact in float64.
                float_op(qa, qb, out=qa)
                # EdgeTPUDevice._requantize: rescale = out/acc, rint, clip.
                # ``+ 0.0``: int8 has no signed zero, nor may the result.
                np.multiply(qa, np.repeat(out_scales / acc_scales, widths), out=qa)
                np.rint(qa, out=qa)
                np.add(qa, 0.0, out=qa)
                band_saturated = int(np.count_nonzero(qa > QMAX)) + int(
                    np.count_nonzero(qa < QMIN)
                )
                if band_saturated:
                    np.clip(qa, QMIN, QMAX, out=qa)
                np.divide(qa, np.repeat(out_scales, widths), out=result[r0:r1])
                checks = [
                    make_exact_check(
                        label=f"{op.opname}@{(r0 // tile, c)}",
                        rows=(r0, r1),
                        cols=(c0, c0 + w),
                        q=qa[:, c0 : c0 + w],
                        out_scale=float(out_scales[c]),
                    )
                    for c, (c0, w) in enumerate(zip(col_starts.tolist(), widths.tolist()))
                ] if integrity_on else []
                outcomes.append((band_saturated, checks))
            return outcomes

        # One 128-row band at a time, on the operands' own layout: every
        # temporary is band-sized, and each tile's arithmetic is the
        # reference's, applied with per-column expanded scales.  Large
        # operands split their bands over the host threads.
        n_bands = -(-rows // tile)
        done = parallel.split_rows(bands, parallel.row_ranges(n_bands, rows * cols))
        plan = IntegrityPlan(mode=self.options.integrity) if integrity_on else None
        instrs: List[LoweredInstr] = []
        saturated = 0
        for r, (band_saturated, checks) in enumerate(o for part in done for o in part):
            saturated += band_saturated
            r0 = r * tile
            for c, w in enumerate(widths.tolist()):
                instrs.append(self._elementwise_instr(request, (r, c), min(tile, rows - r0), w))
            for check in checks:
                plan.add(check)
        self.stats.tiles_lowered += len(instrs)
        self.stats.batched_dispatches += 1
        if plan is not None:
            self.stats.integrity_plans += 1
            self.stats.integrity_tiles_planned += plan.tiles
        return LoweredOperation(request, instrs, result, saturated=saturated, integrity=plan)

    # ------------------------------------------------------------------
    # element-wise unary operators: tanh / ReLu (§6.2.1 rule 1)
    # ------------------------------------------------------------------

    def _lower_unary(self, request: OperationRequest) -> LoweredOperation:
        if len(request.inputs) != 1:
            raise TensorizerError(f"{request.opcode.opname} takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"{request.opcode.opname} operates on a 2-D matrix")
        op = request.opcode
        tile = self.options.arithmetic_tile
        rows, cols = a.shape
        col_starts, widths = _tile_columns(cols, tile)
        result = np.empty((rows, cols))
        if request.quant is QuantMode.GLOBAL:
            self._input_params(request)  # the shared scale, before any split
        if op is Opcode.TANH:
            levels = np.arange(-128, 128, dtype=np.int64)
            # Column c of a band reads its tile's 256-entry table.
            lut_offsets = np.repeat(np.arange(len(col_starts)) * 256 + 128, widths)

        def bands(b0: int, b1: int) -> None:
            q_buf = np.empty((min(tile, rows - b0 * tile), cols))
            if op is Opcode.TANH:
                lut_idx = np.empty(q_buf.shape, dtype=np.intp)
            for r0 in range(b0 * tile, min(b1 * tile, rows), tile):
                r1 = min(r0 + tile, rows)
                band = a[r0:r1]
                scales = self._band_input_scales(request, col_starts, band)
                q = _quantize_band(band, np.repeat(scales, widths), q_buf[: r1 - r0])
                # The device requantizes these ops losslessly at the
                # accumulator scale (out/acc == 1.0 exactly): the
                # accumulator is the int8 output, and nothing saturates.
                if op is Opcode.TANH:
                    # The same rint(tanh(level / scale) * 127) entries
                    # functional.tanh computes per tile, one table per tile.
                    luts = np.rint(np.tanh(levels[None, :] / scales[:, None]) * QMAX) + 0.0
                    idx = lut_idx[: r1 - r0]
                    np.add(q, lut_offsets, out=idx, casting="unsafe")
                    np.take(luts, idx, out=q)
                    np.divide(q, float(QMAX), out=result[r0:r1])
                else:
                    np.maximum(q, 0.0, out=q)
                    np.add(q, 0.0, out=q)
                    np.divide(q, np.repeat(scales, widths), out=result[r0:r1])

        n_bands = -(-rows // tile)
        parallel.split_rows(bands, parallel.row_ranges(n_bands, rows * cols))
        instrs = [
            self._elementwise_instr(request, (r, c), min(tile, rows - r * tile), w)
            for r in range(n_bands)
            for c, w in enumerate(widths.tolist())
        ]
        self.stats.tiles_lowered += len(instrs)
        self.stats.batched_dispatches += 1
        return LoweredOperation(request, instrs, result)

    # ------------------------------------------------------------------
    # matrix-wise reductions: mean / max (§6.2.1 rule 2)
    # ------------------------------------------------------------------

    def _lower_reduction(self, request: OperationRequest) -> LoweredOperation:
        if len(request.inputs) != 1:
            raise TensorizerError(f"{request.opcode.opname} takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"{request.opcode.opname} operates on a 2-D matrix")
        op = request.opcode
        tile = self.options.reduction_tile

        sa, tiles = stack_tiles(a, tile)
        sizes = tile_sizes(tiles)
        scales = self._input_scales(request, sa)
        qa = quantize_batched(sa, scales, assume_finite=True)
        if op is Opcode.MEAN:
            # Zero padding adds nothing to the exact int64 sums; the
            # per-tile effective scale folds in the *actual* tile size.
            batched = functional.mean_batched(qa, scales, sizes)
            out_scales = scales  # device MEAN default: the input scale
        else:
            # Zero padding would win a max over all-negative tiles:
            # refill it with the int8 minimum first.
            fill_padding(qa, a.shape, tile, QMIN)
            batched = functional.max_batched(qa, scales, sizes)
            out_scales = batched.acc_scales  # lossless, out/acc == 1.0
        q_out, _ = requantize_batched(batched.acc, batched.acc_scales, out_scales)
        partial_arr = dequantize_batched(q_out, out_scales)[:, 0, 0]
        partials = [float(v) for v in partial_arr]
        weights = [int(s) for s in sizes]
        self.stats.tiles_lowered += len(tiles)
        self.stats.batched_dispatches += 1

        instrs: List[LoweredInstr] = []
        for i, t in enumerate(tiles):
            elems = int(sizes[i])
            instrs.append(
                LoweredInstr(
                    opcode=op,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=elems,
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=self.timing.instruction_seconds(
                        op, 1, int(batched.macs[i])
                    ),
                    out_bytes=1,
                    label=f"{op.opname}@{t.index}",
                )
            )
        if op is Opcode.MEAN:
            value = float(np.average(partials, weights=weights))
        else:
            value = float(np.max(partials))
        cpu_seconds = self.cpu.aggregate_seconds(len(partials))
        return LoweredOperation(
            request, instrs, np.array(value), cpu_seconds=cpu_seconds
        )

    # ------------------------------------------------------------------
    # FullyConnected on a vector (matrix-vector product)
    # ------------------------------------------------------------------

    def _check_matvec(self, request: OperationRequest) -> Tuple[np.ndarray, np.ndarray]:
        vec, mat = request.inputs[0], request.inputs[1]
        if vec.ndim != 1 or mat.ndim != 2 or mat.shape[0] != vec.shape[0]:
            raise TensorizerError(
                f"matvec expects (n,) x (n, m), got {vec.shape} x {mat.shape}"
            )
        return vec, mat

    def _matvec_instr(
        self,
        request: OperationRequest,
        index: Tuple[int, int],
        seg_size: int,
        out_size: int,
        model_elems: int,
        exec_seconds: float,
    ) -> LoweredInstr:
        """One matvec IQ entry for tile *index*; shared by both paths so
        fields agree."""
        tile = f"{index}"
        attrs = request.attrs
        # Positional: opcode, task, group and cache keys, data, model bytes,
        # model build, exec seconds, out bytes, label, model cache key.
        return LoweredInstr(
            Opcode.FULLY_CONNECTED,
            request.task_id,
            f"task{request.task_id}:{request.input_name}:col{index[1]}",
            "",
            seg_size,
            self._model_bytes(model_elems),
            self._model_build_seconds(model_elems),
            exec_seconds,
            out_size,
            f"FC@{tile}",
            f"{attrs['model_name']}:{tile}" if "model_name" in attrs else "",
        )

    def _lower_matvec(self, request: OperationRequest) -> LoweredOperation:
        vec, mat = self._check_matvec(request)
        tile = self.options.arithmetic_tile
        rows, cols = mat.shape
        n_ktiles = -(-vec.shape[0] // tile)

        n_r, n_c = grid_shape(mat.shape, tile)
        # Vector segments, zero-padded to the tile length per k-tile row.
        vpad = np.zeros(n_r * tile, dtype=np.float64)
        vpad[: vec.shape[0]] = vec
        vseg = vpad.reshape(n_r, tile)

        if request.quant is QuantMode.GLOBAL:
            seg_scales = np.full(n_r, self._input_params(request).scale)
        else:
            seg_scales = scales_for_ranges(batch_max_abs(vseg))
        q_mat, wt_scales = self._model_tiles(request, mat, tile)
        q_vseg = quantize_batched(vseg, seg_scales, assume_finite=True)

        # Tiles in row-major order: row r, column c is tile r·n_c + c.
        col_starts, widths = _tile_columns(cols, tile)
        band_starts = np.arange(0, rows, tile)
        seg_sizes = np.repeat(np.minimum(band_starts + tile, rows) - band_starts, n_c)
        out_sizes = np.tile(widths, n_r)
        rows_idx = np.repeat(np.arange(n_r), n_c)

        def band_bounds(b0: int, b1: int) -> np.ndarray:
            """Measured Eq. 4 bounds of tile rows b0..b1, from one GEMV
            per tile row on the *raw* views, maximized per tile column.

            Each output of a GEMV is its own dot product, and BLAS
            computes a column block of a wide GEMV bit for bit as it
            computes that block alone (the equivalence suite checks it
            against the per-tile reference), except a one-column block,
            which NumPy routes to another kernel: such a tile keeps its
            own GEMV.  A float64 GEMV is order-sensitive along the rows,
            so tile rows are never merged.
            """
            out = np.empty((b1 - b0, n_c))
            for r in range(b0, b1):
                band = slice(r * tile, (r + 1) * tile)
                out[r - b0] = np.maximum.reduceat(np.abs(vec[band] @ mat[band]), col_starts)
                for c in np.flatnonzero(widths == 1).tolist():
                    c0 = int(col_starts[c])
                    out[r - b0, c] = np.abs(vec[band] @ mat[band, c0 : c0 + 1]).max()
            return out

        measured = np.concatenate(
            parallel.split_rows(band_bounds, parallel.row_ranges(n_r, rows * cols))
        ).reshape(-1)
        out_scales = self._output_scales(
            Opcode.FULLY_CONNECTED.opname, measured, _LazyRange(vec, mat), seg_sizes
        )

        batched = functional.fully_connected_batched(
            q_vseg[rows_idx],
            q_mat,
            seg_scales[rows_idx],
            wt_scales,
            seg_sizes,
            out_sizes,
        )
        q_out, saturated = requantize_batched(batched.acc, batched.acc_scales, out_scales)
        deq = dequantize_batched(q_out, out_scales)
        self.stats.batched_dispatches += 1

        # Tile row by tile row, in the reference's row order (float +=
        # is order-sensitive): a row's tiles, side by side, are one
        # full-width band whose ragged last tile ends at ``cols``.
        result = np.zeros(cols, dtype=np.float64)
        for band in deq.reshape(n_r, -1):
            result += band[:cols]
        exec_seconds = self.timing.instruction_seconds_array(
            Opcode.FULLY_CONNECTED, out_sizes, batched.macs
        ).tolist()
        instrs = [
            self._matvec_instr(request, (i // n_c, i % n_c), seg, out, seg * out, seconds)
            for i, (seg, out, seconds) in enumerate(
                zip(seg_sizes.tolist(), out_sizes.tolist(), exec_seconds)
            )
        ]
        cpu_seconds = self.cpu.aggregate_seconds(mat.shape[1] * n_ktiles)
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

    def _model_tiles(
        self, request: OperationRequest, matrix: np.ndarray, tile: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A model operand's int8 tile stack and per-tile scales.

        A request naming its model (``model_name``) reuses the last
        quantization of that name while the operand is unchanged — the
        resident adjacency tiles an iterative app re-sends every call.
        The memo holds the operand by :func:`~repro.plan.operand.hold_operand`
        and a hit needs :func:`~repro.plan.operand.same_operand`, so an
        edited or different operand re-quantizes.  Modeled costs (model
        builds, ``tiles_lowered``, residency keys) are charged by the
        callers either way.
        """
        n_r, n_c = grid_shape(matrix.shape, tile)
        self.stats.tiles_lowered += n_r * n_c
        glob = request.quant is QuantMode.GLOBAL
        scale = self._input_params(request).scale if glob else None
        name = request.attrs.get("model_name")
        if name is None:
            return quantize_tiles(matrix, tile, scale)
        key = (name, tile, scale, matrix.shape)
        memo = self._model_memo
        if memo is not None and memo[0] == key and same_operand(memo[1], matrix):
            return memo[2], memo[3]
        q, scales = quantize_tiles(matrix, tile, scale)
        q.flags.writeable = False
        scales.flags.writeable = False
        self._model_memo = (key, hold_operand(matrix), q, scales)
        return q, scales

    # ------------------------------------------------------------------
    # GEMM via FullyConnected (§7.1.1) — the slow path of Fig. 6
    # ------------------------------------------------------------------

    def _gemm_fc_instr(
        self,
        request: OperationRequest,
        t,
        m: int,
        a_block_elems: int,
        model_elems: int,
        exec_seconds: float,
        out_width: int,
    ) -> LoweredInstr:
        return LoweredInstr(
            opcode=Opcode.FULLY_CONNECTED,
            task_id=request.task_id,
            group_key=f"task{request.task_id}:fcgemm:{t.index}",
            cache_key="",
            data_bytes=a_block_elems,
            model_bytes=self._model_bytes(model_elems),
            model_build_seconds=self._model_build_seconds(model_elems),
            exec_seconds=exec_seconds,
            out_bytes=m * out_width,
            label=f"FCGEMM@{t.index}",
            count=m,
        )

    def _lower_gemm_fc(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape[1] != b.shape[0]:
            raise TensorizerError(f"GEMM inner dims differ: {a.shape} x {b.shape}")
        m, n = a.shape
        k = b.shape[1]
        tile = self.options.arithmetic_tile
        minmax = _LazyRange(a, b)
        result = np.zeros((m, k), dtype=np.float64)
        instrs: List[LoweredInstr] = []
        saturated = 0

        q_b, wt_scales = self._model_tiles(request, b, tile)
        tiles = list(iter_tiles(b.shape, tile))
        n_kt, n_ct = grid_shape(b.shape, tile)
        q_b = q_b.reshape(n_kt, n_ct, tile, tile)
        wt_scales_2d = wt_scales.reshape(n_kt, n_ct)

        # One batched matmul per k-block row: the A column block is
        # quantized once (the reference re-quantizes it per B tile) and
        # swept across all n_ct B tiles in a single dispatch.
        for r in range(n_kt):
            r0 = r * tile
            r1 = min(r0 + tile, n)
            w_r = r1 - r0
            a_block = a[:, r0:r1]
            p_a = self._input_params(request, a_block)
            q_a = quantize(a_block, p_a).astype(np.float64)
            # (m, w_r) @ (n_ct, w_r, tile) -> (n_ct, m, tile); integer
            # float64 products/sums are exact, so padding and summation
            # order cannot change the accumulator.
            acc = np.matmul(q_a, q_b[r, :, :w_r, :].astype(np.float64))
            self.stats.batched_dispatches += 1
            measured = np.abs(acc).max(axis=(1, 2)) / (p_a.scale * wt_scales_2d[r])
            out_scales = self._output_scales(
                Opcode.FULLY_CONNECTED.opname, measured, minmax, np.int64(w_r)
            )
            rescale = out_scales / (p_a.scale * wt_scales_2d[r])
            q_out = np.rint(acc * rescale[:, None, None])
            saturated += int(np.count_nonzero(np.abs(q_out) > 127))
            q_out = np.clip(q_out, -128, 127)
            deq = q_out / out_scales[:, None, None]
            for c in range(n_ct):
                t = tiles[r * n_ct + c]
                w_c = t.shape()[1]
                result[:, t.cols] += deq[c][:, :w_c]
                per_instr = self.timing.instruction_seconds(
                    Opcode.FULLY_CONNECTED, out_elems=w_c, macs=w_r * w_c
                )
                instrs.append(
                    self._gemm_fc_instr(
                        request, t, m, m * w_r, w_r * w_c, per_instr, w_c
                    )
                )
        cpu_seconds = self.cpu.aggregate_seconds(m * k * (-(-n // tile)))
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

    # ------------------------------------------------------------------
    # GEMM via strided conv2D (§7.1.2) — the fast path of Fig. 6
    # ------------------------------------------------------------------

    def _gemm_conv2d_geometry(self, request: OperationRequest, m: int, n: int):
        """Shared chunk/batch geometry so both paths partition identically."""
        opts = self.options
        # §7.1.2: stride = round-up of the square root of the inner dim.
        s = math.isqrt(n)
        if s * s < n:
            s += 1
        # Chunk rows of A so a chunk's reshaped form (rows × s²) stays
        # resident on chip while every kernel sweeps it (locality), and so
        # at least min_gemm_chunks chunks exist for multi-TPU parallelism.
        # An operation may cap its own chunk count via the "gemm_chunks"
        # attribute (LUD's four-partition recursion, §9.3: only one of
        # the four partitions is open to parallel execution at a time).
        chunk_target = int(request.attrs.get("gemm_chunks", opts.min_gemm_chunks))
        rows_per_chunk = max(1, opts.max_chunk_bytes // (s * s))
        rows_per_chunk = min(rows_per_chunk, max(1, -(-m // chunk_target)))
        # Kernel batch: fill the 128² result tile per instruction.
        optimal_out = self.timing.optimal_out_elems(Opcode.CONV2D)
        batch = max(1, optimal_out // rows_per_chunk) if opts.kernel_batching else 1
        return s, rows_per_chunk, batch

    def _gemm_scratch_for(
        self, m: int, n: int, k: int, rows_per_chunk: int, batch: int
    ) -> dict:
        """Keyed LRU of conv2D-GEMM scratch buffers (solo GEMMs).

        Scratch (one row block of quantized A and its slab products, the
        quantized B, one strip accumulator) survives between calls of
        the same geometry — iterative apps re-lower identical shapes
        every step, and refaulting the pages per call costs more than
        the arithmetic.  A small LRU keeps the few live geometries of a
        serving mix resident.
        """
        key = (m, n, k, rows_per_chunk, batch)
        sc = self._gemm_scratch.get(key)
        if sc is not None:
            self._gemm_scratch.move_to_end(key)
            return sc
        block_rows = _gemm_block_rows(n, k, rows_per_chunk, m)
        sc = _gemm_scratch(block_rows, n, k, rows_per_chunk)
        self._gemm_scratch[key] = sc
        while len(self._gemm_scratch) > _GEMM_SCRATCH_SLOTS:
            self._gemm_scratch.popitem(last=False)
        return sc

    def _gemm_capture(self, request: OperationRequest, signature: str) -> CompiledPlan:
        """Capture the data-independent half of one conv2D-GEMM lowering.

        Geometry, per-piece instruction templates (identity left as
        ``{src}``/``{task}``/``{msrc}`` placeholders, in the exact
        (chunk, kernel-batch) emission order).  Model builds are costed
        here, once — binding a warm replay charges nothing.
        """
        a, b = request.inputs
        m, n = a.shape
        k = b.shape[1]
        s, rows_per_chunk, batch = self._gemm_conv2d_geometry(request, m, n)
        geometry = GemmGeometry(m=m, n=n, k=k, s=s, rows_per_chunk=rows_per_chunk, batch=batch)
        templates: List[InstrTemplate] = []
        for c0 in geometry.row_starts:
            c1 = min(c0 + rows_per_chunk, m)
            chunk_bytes = (c1 - c0) * s * s
            cache_key = f"{SRC_TOKEN}:rows{c0}"
            for j0 in geometry.col_starts:
                j1 = min(j0 + batch, k)
                nk = j1 - j0
                out_elems = (c1 - c0) * nk
                model_elems = nk * s * s
                label = f"convGEMM:r{c0}:k{j0}"
                templates.append(
                    InstrTemplate(
                        opname=Opcode.CONV2D.opname,
                        label=label,
                        group_key=f"task{TASK_TOKEN}:{cache_key}",
                        cache_key=cache_key,
                        model_cache_key=f"{MODEL_SRC_TOKEN}:kernels{j0}",
                        data_bytes=chunk_bytes,
                        model_bytes=self._model_bytes(model_elems),
                        out_bytes=out_elems,
                        count=1,
                        model_build_seconds=self._model_build_seconds(model_elems),
                        exec_seconds=self.timing.instruction_seconds(
                            Opcode.CONV2D, out_elems=out_elems, macs=out_elems * s * s
                        ),
                    )
                )
        return CompiledPlan(
            signature=signature, kind=KIND_GEMM, opname=Opcode.CONV2D.opname,
            templates=templates, geometry=geometry,
        )

    def _lower_gemm_conv2d(self, request: OperationRequest) -> LoweredOperation:
        """A solo conv2D-GEMM: the engine on a group of one.  conv2D_nn
        lowers its im2col GEMM through this rule too."""
        return self._lower_gemm_group([request])[0]

    def _lower_gemm_group(
        self, requests: Sequence[OperationRequest]
    ) -> List[LoweredOperation]:
        """The conv2D-GEMM engine: lower GEMMs that share one model operand.

        A solo GEMM is a group of one; the serving coalescer's groups
        (:meth:`lower_gemm_coalesced`) arrive already checked to share B,
        the data shape, ``gemm_chunks`` and SCALE quantization.  B is
        quantized once; the members' row chunks, each quantized with its
        member's *own* scales, stream through row blocks of at most
        ``_GEMM_BLOCK_BYTES``, and one exact-f32 slab product serves each
        block (a serving group fits in one).  Each member's strips are
        then requantized with its own measured output bounds.  Operands
        are read in place, in any layout.

        Instructions always come from binding a :class:`CompiledPlan`:
        the cached one (a warm replay binds model builds at zero cost),
        a fresh capture, or — without a plan cache — a plan captured for
        this call only, which is neither stored nor counted as a capture.

        **Bit-identity**: every slab partial holds exact integers (any
        BLAS summation order yields the same value — see
        :func:`repro.edgetpu.functional.f32_slab_products`), each member
        occupies its own rows of the stack, and (re)quantization uses
        exactly the values the reference computes per piece.  A
        member's result is therefore bit-for-bit that of lowering it
        alone, cold or warm.
        """
        first = requests[0]
        n_req = len(requests)
        a0, b = self._require_2d_pair(first)
        if a0.shape[1] != b.shape[0]:
            raise TensorizerError(f"GEMM inner dims differ: {a0.shape} x {b.shape}")
        m, n = a0.shape
        k = b.shape[1]
        tracer = self._tracer
        op = first.opcode.opname
        cache = self.plan_cache
        replay = False
        if cache is None:
            plan = self._gemm_capture(first, "")
        else:
            # The coalescing key (shapes / dtypes / quant / gemm_chunks)
            # is a sub-key of the plan signature: one plan serves a group.
            signature = plan_signature(first, self.options, self.tpu_config)
            plan = cache.get(signature)
            if plan is None:
                tracer.instant(
                    "plan_miss", cat="plan", track="tensorizer", op=op, requests=n_req
                )
                sp = tracer.begin("plan_capture", cat="plan", track="tensorizer")
                plan = self._gemm_capture(first, signature)
                tracer.end(sp)
                cache.put(signature, plan)
                self.stats.plan_captures += 1
            else:
                tracer.instant(
                    "plan_hit", cat="plan", track="tensorizer", op=op, requests=n_req
                )
                replay = True
        g = plan.geometry
        s, rows_per_chunk, batch = g.s, g.rows_per_chunk, g.batch
        row_starts = list(range(0, m, rows_per_chunk))
        col_starts = list(range(0, k, batch))
        n_rows = len(row_starts)
        n_cols = len(col_starts)
        if len(plan.templates) != n_rows * n_cols:
            raise TensorizerError(
                f"cached GEMM plan records {len(plan.templates)} pieces but the "
                f"geometry yields {n_rows * n_cols}"
            )

        # The warm-path host work the plan cache does NOT amortize: input
        # range scans and template binding (A's quantize streams with the
        # slab product below).  (The slab product and requantize are the
        # modeled *device* math — on real hardware they run on the TPU.)
        bind_sp = (
            tracer.begin("plan_bind", cat="plan", track="tensorizer", op=op, requests=n_req)
            if replay
            else None
        )
        sp = tracer.begin(
            "quantize", cat="lower.phase", track="tensorizer",
            chunks=n_rows, batches=n_cols, requests=n_req,
        )
        # GLOBAL scales span both operands, so only a group of one (the
        # coalescer never merges GLOBAL requests) may use them.
        glob = first.quant is QuantMode.GLOBAL
        if glob:
            p_glob = self._input_params(first, a0)
            if not np.all(np.isfinite(a0)) or not np.all(np.isfinite(b)):
                raise QuantizationError("data contains non-finite values")
        # Scratch is block-sized (see _gemm_block_rows).  A solo GEMM
        # keeps its geometry's scratch resident (iterative apps); a
        # coalesced group's is allocated per call.
        block_rows = _gemm_block_rows(n, k, rows_per_chunk, n_req * m)
        batch_sizes = np.array(
            [min(j0 + batch, k) - j0 for j0 in col_starts], dtype=np.intp
        )
        sc = (
            self._gemm_scratch_for(m, n, k, rows_per_chunk, batch)
            if n_req == 1
            else _gemm_scratch(block_rows, n, k, rows_per_chunk)
        )

        # Shared model operand.  A warm replay whose cached model block
        # matches B skips every pass over it: quantized weights,
        # per-batch scales and B's value range all come from the plan.
        # SCALE only — GLOBAL scales depend on A as well.
        block = plan.model
        reuse_model = replay and not glob and block is not None and block.matches(b)
        if reuse_model:
            col_scales, q_b = block.col_scales, block.q_b
            b_lo, b_hi = block.b_lo, block.b_hi
        else:
            # One (max, min) pass per kernel batch gives both its scale
            # and B's value range.  The reference recomputes the scales
            # for every row chunk, but they do not depend on the chunk.
            b_ext = _extremes([b[:, j0 : j0 + batch] for j0 in col_starts], n * k)
            col_scales = np.array([
                p_glob.scale if glob else _extreme_params(hi, lo).scale for hi, lo in b_ext
            ])
            b_lo, b_hi = min(lo for _, lo in b_ext), max(hi for hi, _ in b_ext)
            # Quantize strip by strip into a float32 buffer, each column
            # at its batch's scale.  The scaling and rint arithmetic stay
            # float64, so the stored integers are bit-identical to the
            # reference's; the clip is provably dead because every
            # scale is 127/max_abs of the very data it multiplies.
            # ``+ 0.0`` normalizes rint's ``-0.0`` to the ``+0.0`` the
            # reference's int8 round-trip produces, keeping signed
            # zeros bit-identical.
            q_b = sc["q_b"]
            b_col_scales = np.repeat(col_scales, batch_sizes)

            strip_h = len(sc["workspaces"][0][1])

            def quantize_b(s0: int, s1: int, tmp: np.ndarray) -> None:
                """B's rows of strips s0..s1, through the strip buffer *tmp*."""
                end = min(s1 * strip_h, n)
                for r0 in range(s0 * strip_h, end, len(tmp)):
                    rows_in = b[r0 : min(r0 + len(tmp), end)]
                    t = _laid_out_like(tmp, rows_in)
                    np.multiply(rows_in, b_col_scales, out=t)
                    np.rint(t, out=t)
                    np.add(t, 0.0, out=q_b[r0 : r0 + len(t)])

            _split_with_workspaces(
                sc, -(-n // strip_h), n * k, lambda s0, s1, ws: quantize_b(s0, s1, ws[1])
            )

        # Each member's per-chunk scales, taken up front so a bad operand
        # raises before anything is bound.  The same (max, min) pass per
        # chunk gives A's range; folded with B's it equals
        # data_range(a, b) (the Eqs. 5-8 fallback input).
        pieces = [
            (idx, ci, c0, min(c0 + rows_per_chunk, m))
            for idx in range(n_req)
            for ci, c0 in enumerate(row_starts)
        ]
        ranges: List[Tuple[float, float]] = []
        all_row_params: List[List[QuantParams]] = []
        if glob:
            a_lo, a_hi = data_range(a0)
            ranges.append((min(a_lo, b_lo), max(a_hi, b_hi)))
            all_row_params.append([p_glob] * n_rows)
        else:
            a_ext = []
            for request in requests:
                a = request.inputs[0]
                a_ext += (
                    _extremes([a[c0 : c0 + rows_per_chunk] for c0 in row_starts], m * n)
                    if a.flags.c_contiguous
                    else _chunk_extremes(a, row_starts)
                )
            for idx in range(n_req):
                member = a_ext[idx * n_rows : (idx + 1) * n_rows]
                all_row_params.append([_extreme_params(hi, lo) for hi, lo in member])
                a_lo, a_hi = min(lo for _, lo in member), max(hi for hi, _ in member)
                ranges.append((min(a_lo, b_lo), max(a_hi, b_hi)))
        # Unique per distinct input so unrelated GEMMs never alias in
        # on-chip memory; bare arrays fall back to the sequence number
        # the caller advances once per request.
        sources = [
            request.input_name or f"op{self._op_seq + idx}"
            for idx, request in enumerate(requests)
        ]
        tracer.end(sp)

        if cache is not None and not glob and not reuse_model:
            # Cache the quantized model operand with the plan, and hold
            # B by the same-operand rule.  Copy q_b: the scratch is
            # overwritten by the next GEMM of this geometry, and the
            # block must outlive it.
            plan.model = model_block_for(b, q_b.copy(), col_scales, b_lo, b_hi)

        # Bind the templates in (chunk, kernel-batch) order.  Every
        # member keeps its own data source but shares member 0's model
        # source, so the common kernel batches stay device-resident
        # across clients.  Only a miss's first member carries the
        # capture-time model-build seconds.
        model_source = sources[0]
        all_instrs = [
            [
                _bind_template(
                    t, request.task_id, source, model_source, not replay and idx == 0
                )
                for t in plan.templates
            ]
            for idx, (request, source) in enumerate(zip(requests, sources))
        ]
        if bind_sp is not None:
            tracer.end(bind_sp)

        # Stream the stacked members' row chunks (member by member, chunk
        # by chunk) through blocks of at most block_rows rows: quantize
        # the block's A rows with their own per-chunk scales, take ONE
        # exact-f32 slab product for the block, then requantize it strip
        # by strip.  Rows never interact in the product, so a block's
        # rows are bit-for-bit those of the whole stack's product.  A
        # large block's chunks split over the host threads: each thread
        # takes its rows of the block through all three steps, with one
        # slab product of its own.
        blocks: List[list] = [[]]
        filled = 0
        for piece in pieces:
            height = piece[3] - piece[2]
            if blocks[-1] and filled + height > block_rows:
                blocks.append([])
                filled = 0
            blocks[-1].append(piece)
            filled += height
        sp = tracer.begin(
            "row_blocks", cat="lower.phase", track="tensorizer",
            blocks=len(blocks), m=n_req * m, n=n, k=k, requests=n_req,
        )
        q_a = sc["q_a"]
        col_idx = np.array(col_starts, dtype=np.intp)
        results = [np.empty((m, k), dtype=np.float64) for _ in requests]
        integrity_on = self.options.integrity != "off"

        def stream(pieces_in_block, tops, p0, p1, tmp_a, strip):
            """Quantize, multiply and requantize pieces p0..p1 of a block,
            in rows tops[p0]..tops[p1] of its scratch; returns
            ``(member, saturated, checks)`` per piece."""
            own = pieces_in_block[p0:p1]
            lo, hi = tops[p0], tops[p1]
            for (idx, ci, c0, c1), top in zip(own, tops[p0:p1]):
                rows_in = requests[idx].inputs[0][c0:c1]
                t = _laid_out_like(tmp_a, rows_in)
                np.multiply(rows_in, all_row_params[idx][ci].scale, out=t)
                np.rint(t, out=t)
                np.add(t, 0.0, out=q_a[top : top + c1 - c0])
            partials = functional.f32_slab_products(
                q_a[lo:hi], q_b, out=[part[lo:hi] for part in sc["parts"]]
            )
            out_scales_row = np.empty(n_cols)
            rescale_row = np.empty(n_cols)
            outcomes = []
            # Requantize chunk-strip by chunk-strip: the exact float64
            # accumulator strip is assembled from the slab partials, its
            # per-(chunk, batch) bounds taken with two reduceat passes,
            # and the rescale/rint/clip/dequantize sequence applied with
            # the per-batch factors expanded to a column vector —
            # elementwise the identical operations (and operand values)
            # the reference applies to each piece.
            for (idx, ci, c0, c1), top in zip(own, tops[p0:p1]):
                p_rows = all_row_params[idx][ci]
                minmax = _LazyRange(known=ranges[idx])
                st = strip[: c1 - c0]
                r0, r1 = top - lo, top - lo + (c1 - c0)
                if len(partials) == 1:
                    np.copyto(st, partials[0][r0:r1])
                else:
                    np.add(partials[0][r0:r1], partials[1][r0:r1], out=st)
                    for part in partials[2:]:
                        st += part[r0:r1]
                acc_bounds = _band_max_abs(st, col_idx).tolist()  # per batch
                may_saturate = False
                for bi in range(n_cols):
                    acc_bound = acc_bounds[bi]
                    scale_prod = p_rows.scale * col_scales[bi]
                    measured = acc_bound / scale_prod
                    out_params = self._output_params(Opcode.CONV2D.opname, measured, minmax, n=n)
                    out_scales_row[bi] = out_params.scale
                    rescale_row[bi] = out_params.scale / scale_prod
                    # fl(·) is monotone, so acc_bound * rescale bounds every
                    # rescaled element; below 127.5 nothing rounds past ±127
                    # and the saturation count and clip are provably no-ops.
                    if not acc_bound * rescale_row[bi] < 127.5:
                        may_saturate = True
                # ABFT checksums come from the exact accumulator strip, so
                # they must be captured before the in-place requantize below
                # destroys it.  A saturating strip breaks the linear relation
                # (clipping); it falls back to exact post-clip sums instead.
                if integrity_on and not may_saturate:
                    acc_row_seg = np.add.reduceat(st, col_idx, axis=1)
                    acc_col = st.sum(axis=0)
                else:
                    acc_row_seg = acc_col = None
                np.multiply(st, np.repeat(rescale_row, batch_sizes), out=st)
                np.rint(st, out=st)
                # Like the operand quantize above: rint's ``-0.0`` is not on
                # the int8 wire grid, and the integrity write-back divides
                # the device-returned ``0`` by the same out_scale — normalize
                # so verified and unverified deliveries stay bit-identical.
                np.add(st, 0.0, out=st)
                saturated_here = 0
                if may_saturate:
                    # Saturation counts are additive across blocks and clip
                    # is a no-op wherever nothing exceeds ±127, so one strip
                    # pass equals the reference's per-block pass.
                    saturated_here = int(np.count_nonzero(st > 127)) + int(
                        np.count_nonzero(st < -127)
                    )
                    np.clip(st, -128, 127, out=st)
                np.divide(
                    st, np.repeat(out_scales_row, batch_sizes), out=results[idx][c0:c1]
                )
                checks = []
                if integrity_on:
                    for bi, j0 in enumerate(col_starts):
                        j1 = j0 + int(batch_sizes[bi])
                        checks.append(make_gemm_check(
                            label=f"convGEMM:r{c0}:k{j0}",
                            rows=(c0, c1),
                            cols=(j0, j1),
                            q=st[:, j0:j1],
                            out_scale=float(out_scales_row[bi]),
                            acc_row_sums=None if acc_row_seg is None else acc_row_seg[:, bi],
                            acc_col_sums=None if acc_col is None else acc_col[j0:j1],
                            rescale=float(rescale_row[bi]),
                        ))
                outcomes.append((idx, saturated_here, checks))
            return outcomes

        saturated = [0] * n_req
        integs = [
            IntegrityPlan(mode=self.options.integrity) if integrity_on else None
            for _ in requests
        ]
        for pieces_in_block in blocks:
            tops = [0]
            for _, _, c0, c1 in pieces_in_block:
                tops.append(tops[-1] + c1 - c0)
            done = _split_with_workspaces(
                sc, len(pieces_in_block), tops[-1] * (n + k),
                lambda p0, p1, ws: stream(pieces_in_block, tops, p0, p1, *ws),  # noqa: B023
            )
            self.stats.batched_dispatches += 1
            # Merged here, in piece order: the serial path's order.
            for outcomes in done:
                for idx, saturated_here, checks in outcomes:
                    saturated[idx] += saturated_here
                    for check in checks:
                        integs[idx].add(check)
        tracer.end(sp)
        self.stats.tiles_lowered += n_req * n_rows * n_cols

        lowered: List[LoweredOperation] = []
        for idx, request in enumerate(requests):
            integ = integs[idx]
            if integ is not None:
                self.stats.integrity_plans += 1
                self.stats.integrity_tiles_planned += integ.tiles
            # §7.1.3 host data transformation: each member reshapes its
            # own rows into s×s sub-matrices; B's kernels are reshaped
            # once, by the first member, unless a warm model block
            # already holds them.
            elems = m * s * s + (k * s * s if idx == 0 and not reuse_model else 0)
            lowered.append(LoweredOperation(
                request, all_instrs[idx], results[idx],
                cpu_seconds=self.cpu.elementwise_seconds(elems, bytes_per_elem=2),
                saturated=saturated[idx], integrity=integ,
            ))
        if replay:
            # Counted only once the whole group lowered: a request that
            # raises above was never bound.
            plan.replays += 1
            cache.note_bind(n_req)
            self.stats.plan_replays += n_req
        return lowered

    # ------------------------------------------------------------------
    # coalesced multi-client GEMM (serving layer)
    # ------------------------------------------------------------------

    def lower_gemm_coalesced(
        self, requests: Sequence[OperationRequest]
    ) -> List[LoweredOperation]:
        """Lower several compatible conv2D-GEMMs as ONE batched dispatch.

        The serving layer (:mod:`repro.serve`) merges GEMM requests from
        different clients that share the model operand *B*, the data
        shape, and SCALE quantization — the common "many clients, one
        weight matrix" pattern.  This checks the group, then runs it
        through the same engine a solo GEMM uses (a group of one), so
        each returned result is bit-for-bit what :meth:`lower` would
        produce for that request alone; ``tests/serve/test_coalescer.py``
        enforces this by property test.

        Instruction streams keep per-request data sources (no aliasing
        of on-chip chunks) but share one *model* source, so the common
        kernel batches stay device-resident across clients.  The shared
        model builds and B reshape cost (§7.1.3 data transformation) are
        charged once, to the first request of the group.

        Raises :class:`TensorizerError` when the requests are not
        coalescible (the serving coalescer only groups compatible ones).
        """
        if not requests:
            raise TensorizerError("lower_gemm_coalesced needs at least one request")
        if len(requests) == 1:
            return [self.lower(requests[0])]
        for request in requests:
            self._normalize_inputs(request)
            if request.opcode is not Opcode.CONV2D or not request.attrs.get("gemm", False):
                raise TensorizerError(
                    f"only conv2D-GEMM operations coalesce, got {request.opcode.opname}"
                )
            if request.quant is not QuantMode.SCALE:
                raise TensorizerError("coalescing requires SCALE quantization")
        first = requests[0]
        a0, b = self._require_2d_pair(first)
        b_held = hold_operand(b)
        chunk_attr = int(first.attrs.get("gemm_chunks", self.options.min_gemm_chunks))
        for request in requests[1:]:
            a_r, b_r = self._require_2d_pair(request)
            if a_r.shape != a0.shape:
                raise TensorizerError(
                    f"coalesced GEMM data shapes differ: {a_r.shape} vs {a0.shape}"
                )
            if not same_operand(b_held, b_r):
                raise TensorizerError("coalesced GEMMs must share the model operand")
            if int(request.attrs.get("gemm_chunks", self.options.min_gemm_chunks)) != chunk_attr:
                raise TensorizerError("coalesced GEMMs must agree on gemm_chunks")

        sp = self._tracer.begin(
            "lower:conv2D-coalesced", cat="lower", track="tensorizer", requests=len(requests)
        )
        lowered = self._lower_gemm_group(requests)
        for op in lowered:
            self._note_lowered(op)
            sp.add_device_seconds(op.total_exec_seconds)
        self.stats.coalesced_operations += len(requests)
        self._tracer.end(sp.set(instructions=sum(op.instruction_count for op in lowered)))
        return lowered

    # ------------------------------------------------------------------
    # conv2D as a stencil (HotSpot3D-style small kernels)
    # ------------------------------------------------------------------

    def _stencil_setup(
        self, request: OperationRequest
    ) -> Tuple[np.ndarray, np.ndarray, QuantParams, QuantParams, int]:
        """Checks and operation-wide parameters shared by both stencil rules.

        Returns the data, the kernel, the output params, the kernel params
        and the output-tile step (the 128² tile minus the kernel halo).
        """
        a, kern = self._require_2d_pair(request)
        kh, kw = kern.shape
        if kh > a.shape[0] or kw > a.shape[1]:
            raise TensorizerError(f"kernel {kern.shape} larger than input {a.shape}")
        # Eq. 4 directly: for a convolution the output magnitude is bounded
        # exactly by max|data| * Σ|kernel|, which is far tighter than the
        # generic Eq. 5 worst case when kernels are normalized (HotSpot3D's
        # weighted average sums to ~1).
        # ``max|a|`` as ``max(max, -min)``: exact, and no |a| temporary.
        bound = float(max(a.max(), -a.min()) * np.abs(kern).sum())
        out_params = self._output_params(
            Opcode.CONV2D.opname, bound, _LazyRange(a, kern), n=kh * kw
        )
        p_kern = self._params_for_data(kern)
        tile = self.options.arithmetic_tile
        step = tile - (max(kh, kw) - 1)
        if step < 1:
            raise TensorizerError(
                f"kernel {kern.shape} too large for the {tile}x{tile} instruction tile"
            )
        return a, kern, out_params, p_kern, step

    def _stencil_instr(
        self,
        request: OperationRequest,
        r0: int,
        c0: int,
        out_shape: Tuple[int, int],
        kern_shape: Tuple[int, int],
        exec_seconds: float,
    ) -> LoweredInstr:
        """One stencil IQ entry; shared by both rules so fields agree."""
        (h, w), (kh, kw) = out_shape, kern_shape
        kern_elems = kh * kw
        return LoweredInstr(
            opcode=Opcode.CONV2D,
            task_id=request.task_id,
            group_key="",
            cache_key="",
            data_bytes=(h + kh - 1) * (w + kw - 1),
            model_bytes=self._model_bytes(kern_elems),
            model_build_seconds=self._model_build_seconds(kern_elems),
            exec_seconds=exec_seconds,
            out_bytes=h * w,
            label=f"conv@{r0},{c0}",
            model_cache_key=str(request.attrs.get("model_name", "")),
        )

    def _lower_conv2d_stencil(self, request: OperationRequest) -> LoweredOperation:
        a, kern, out_params, p_kern, step = self._stencil_setup(request)
        kh, kw = kern.shape
        q_kern = quantize(kern, p_kern)
        oh, ow = a.shape[0] - kh + 1, a.shape[1] - kw + 1
        n_r, n_c = -(-oh // step), -(-ow // step)
        sh, sw = min(step, oh), min(step, ow)  # interior output tile
        ph, pw = sh + kh - 1, sw + kw - 1  # interior halo patch
        # Every halo patch, ragged edges zero-padded to the interior
        # patch shape: zeros cannot change a patch's max |x|.
        padded = np.zeros(((n_r - 1) * step + ph, (n_c - 1) * step + pw))
        padded[: a.shape[0], : a.shape[1]] = a
        patches = sliding_window_view(padded, (ph, pw))[::step, ::step]
        glob_scale = (
            self._input_params(request).scale if request.quant is QuantMode.GLOBAL else None
        )
        taps = [(dy, dx) for dy in range(kh) for dx in range(kw)]
        bounds = list(functional.f32_slab_starts(len(taps))) + [len(taps)]
        result = np.empty((oh, ow))

        def patch_rows(p0: int, p1: int) -> int:
            """Patch rows p0..p1 into their output rows; returns saturated."""
            stacked = patches[p0:p1].reshape((p1 - p0) * n_c, ph, pw)
            if glob_scale is not None:
                scales = np.full(len(stacked), glob_scale)
            else:
                max_abs = np.maximum(stacked.max(axis=(1, 2)), -stacked.min(axis=(1, 2)))
                bad = ~np.isfinite(max_abs)
                if bad.any():
                    # NaN data (inf already failed the output bound): raise
                    # the reference's error for the first such patch.
                    params_for_range(float(max_abs[bad][0]))
                scales = scales_for_ranges(max_abs)
            rescale = out_params.scale / (scales * p_kern.scale)
            grid = stacked.reshape(p1 - p0, n_c, ph, pw)
            grid_scales = scales.reshape(p1 - p0, n_c)
            grid_rescale = rescale.reshape(p1 - p0, n_c)

            def tiles(r0: int, r1: int, c0: int, c1: int, h: int, w: int) -> int:
                """Output tiles (h×w each) of patch rows r0..r1 and columns
                c0..c1 into the result; returns saturated."""
                n = (r1 - r0) * (c1 - c0)
                rows = slice(r0 - p0, r1 - p0)
                # quantize_batched without its clip and int8 round trip:
                # every scale covers its patch (or the whole operand), so
                # |rint(x·f)| <= 127 already, and the int8 codes are exact
                # in float32.  A ``-0.0`` code can only sign an all-zero
                # sum, which the final int8 cast below turns back into
                # ``+0``.
                q = grid[rows, c0:c1, : h + kh - 1, : w + kw - 1] * grid_scales[
                    rows, c0:c1, None, None
                ]
                q32 = np.rint(q, out=q).astype(np.float32).reshape(n, h + kh - 1, w + kw - 1)
                # The kh·kw shifted products accumulate in place in
                # float32: each product is at most 128² and a slab of
                # <= 1024 taps keeps every partial sum within 2²⁴, where
                # float32 is exact.  Several slabs fold in float64, so the
                # sum equals the device's int64 accumulator.
                prod = np.empty((n, h, w), dtype=np.float32)
                parts = []
                for t0, t1 in zip(bounds, bounds[1:]):
                    (dy, dx), *rest = taps[t0:t1]
                    part = q32[:, dy : dy + h, dx : dx + w] * q_kern[dy, dx]
                    for dy, dx in rest:
                        tap = q32[:, dy : dy + h, dx : dx + w]
                        part += np.multiply(tap, q_kern[dy, dx], out=prod)
                    parts.append(part)
                acc = parts[0] if len(parts) == 1 else np.sum(parts, axis=0, dtype=np.float64)
                # EdgeTPUDevice._requantize per patch, with the same IEEE
                # operations, written straight into the output plane's
                # layout.
                plane = np.empty((r1 - r0, h, c1 - c0, w))
                np.multiply(
                    acc.reshape(r1 - r0, c1 - c0, h, w).transpose(0, 2, 1, 3),
                    grid_rescale[rows, None, c0:c1, None],
                    out=plane,
                )
                q = np.rint(plane.reshape((r1 - r0) * h, (c1 - c0) * w))
                saturated = 0
                if q.min() < QMIN or q.max() > QMAX:
                    saturated = int(np.count_nonzero((q < QMIN) | (q > QMAX)))
                    np.clip(q, QMIN, QMAX, out=q)
                # The device's int8 cast and dequantize: ``+ 0.0`` is the
                # one step of that cast left for codes already in range.
                np.add(q, 0.0, out=q)
                y0, x0 = r0 * sh, c0 * sw
                out = result[y0 : y0 + (r1 - r0) * h, x0 : x0 + (c1 - c0) * w]
                np.divide(q, out_params.scale, out=out)
                return saturated

            # A patch at the plane's bottom or right edge holds fewer
            # output rows or columns: each run of equal tiles goes at its
            # own size, so the zero padding past the plane is never
            # multiplied, and every output element takes the operations
            # it took in the whole padded patch.
            row_runs = [(p0, min(p1, oh // sh), sh), (max(p0, oh // sh), p1, oh % sh)]
            col_runs = [(0, ow // sw, sw), (ow // sw, n_c, ow % sw)]
            return sum(
                tiles(r0, r1, c0, c1, h, w)
                for r0, r1, h in row_runs
                for c0, c1, w in col_runs
                if r0 < r1 and c0 < c1
            )

        # Large planes split their patch rows over the host threads.
        ranges = parallel.row_ranges(n_r, n_r * n_c * ph * pw)
        saturated = sum(parallel.split_rows(patch_rows, ranges))
        self.stats.tiles_lowered += n_r * n_c
        self.stats.batched_dispatches += 1

        instrs: List[LoweredInstr] = []
        for r0 in range(0, oh, step):
            h = min(step, oh - r0)
            for c0 in range(0, ow, step):
                w = min(step, ow - c0)
                seconds = self.timing.instruction_seconds(Opcode.CONV2D, h * w, h * w * kh * kw)
                instrs.append(self._stencil_instr(request, r0, c0, (h, w), (kh, kw), seconds))
        return LoweredOperation(request, instrs, result, saturated=saturated)

    # ------------------------------------------------------------------
    # data movement: crop / ext
    # ------------------------------------------------------------------

    def _lower_crop(self, request: OperationRequest) -> LoweredOperation:
        a = request.inputs[0]
        box = request.attrs.get("crop_box")
        if box is None:
            raise TensorizerError("crop requires a 'crop_box' attribute")
        p_a = self._crop_params(request, a)
        # The whole operand sets the scale; only the box is quantized and
        # shipped to the scratch device, which crops all of it.  The
        # modeled bytes below still count the whole operand.
        window = functional.crop_window(a, box)
        instr = Instruction(
            Opcode.CROP,
            quantize(window, p_a),
            p_a,
            attrs={"crop_box": (0, 0) + window.shape},
            task_id=request.task_id,
        )
        execd = self._scratch.execute(instr)
        self.stats.tiles_lowered += 1
        self.stats.scalar_dispatches += 1
        instrs = [
            LoweredInstr(
                opcode=Opcode.CROP,
                task_id=request.task_id,
                group_key="",
                cache_key="",
                data_bytes=a.size,
                model_bytes=0,
                model_build_seconds=0.0,
                exec_seconds=execd.seconds,
                out_bytes=execd.out_elems,
                label="crop",
            )
        ]
        return LoweredOperation(request, instrs, execd.dequantized())

    def _crop_params(self, request: OperationRequest, a: np.ndarray) -> QuantParams:
        """:meth:`_input_params` of a crop's whole operand.

        LUD crops one matrix four times per recursion level.  A frozen
        operand (:func:`~repro.plan.operand.frozen`) is remembered with
        its params, held without a copy, and a crop of the
        :func:`~repro.plan.operand.same_operand` scans nothing; any other
        operand is scanned every time (holding a copy would cost what
        the scan costs).  Both quantization modes derive the params from
        the operand's range alone.
        """
        memo = self._range_memo
        if memo is not None and same_operand(memo[0], a):
            return memo[1]
        params = self._input_params(request, a)
        self._range_memo = (hold_operand(a), params) if frozen(a) else None
        return params

    def _lower_ext(self, request: OperationRequest) -> LoweredOperation:
        a = request.inputs[0]
        shape = request.attrs.get("ext_shape")
        if shape is None:
            raise TensorizerError("ext requires an 'ext_shape' attribute")
        offset = request.attrs.get("ext_offset", (0, 0))
        p_a = self._input_params(request, a)
        instr = Instruction(
            Opcode.EXT,
            quantize(a, p_a),
            p_a,
            attrs={"ext_shape": shape, "ext_offset": offset},
            task_id=request.task_id,
        )
        execd = self._scratch.execute(instr)
        self.stats.tiles_lowered += 1
        self.stats.scalar_dispatches += 1
        instrs = [
            LoweredInstr(
                opcode=Opcode.EXT,
                task_id=request.task_id,
                group_key="",
                cache_key="",
                data_bytes=a.size,
                model_bytes=0,
                model_build_seconds=0.0,
                exec_seconds=execd.seconds,
                out_bytes=execd.out_elems,
                label="ext",
            )
        ]
        return LoweredOperation(request, instrs, execd.dequantized())

    # ------------------------------------------------------------------
    # NN extension: pool / softmax / multichannel conv2d (docs/nn.md)
    # ------------------------------------------------------------------

    def _pool_operand(
        self, request: OperationRequest
    ) -> Tuple[np.ndarray, Tuple[int, int], Tuple[int, int], str]:
        """The POOL operand as a ``(P, H, W)`` plane stack, plus its attrs.

        A 2-D matrix is a stack of one plane; the rules reshape the
        result back to the input's rank.
        """
        if len(request.inputs) != 1:
            raise TensorizerError("pool takes one input")
        a = request.inputs[0]
        if a.ndim not in (2, 3):
            raise TensorizerError(
                f"pool operates on a 2-D matrix or a (P, H, W) plane stack, got {a.shape}"
            )
        planes = a[None] if a.ndim == 2 else a
        if planes.shape[0] == 0:
            raise TensorizerError(f"pool needs at least one plane, got {a.shape}")
        window = tuple(int(v) for v in request.attrs.get("window", (2, 2)))
        stride = tuple(int(v) for v in request.attrs.get("stride", window))
        kind = str(request.attrs.get("kind", "max"))
        if len(window) != 2 or min(window) < 1:
            raise TensorizerError(f"pool window must be two positive ints, got {window}")
        if len(stride) != 2 or min(stride) < 1:
            raise TensorizerError(f"pool stride must be two positive ints, got {stride}")
        if kind not in ("max", "avg"):
            raise TensorizerError(f"unknown pool kind {kind!r}")
        if window[0] > planes.shape[1] or window[1] > planes.shape[2]:
            raise TensorizerError(
                f"pool window {window} larger than data {a.shape}"
            )
        return planes, window, stride, kind

    def _row_bands(self, n_out_rows: int, out_cols: int) -> List[Tuple[int, int]]:
        """Split *n_out_rows* output rows into bands of ~one optimal tile.

        Each band becomes one instruction whose result count approaches
        the 128² sweet spot (§3.2), mirroring how the GEMM path sizes
        its kernel batches.
        """
        tile = self.options.arithmetic_tile
        band = max(1, (tile * tile) // max(1, out_cols))
        return [
            (b0, min(b0 + band, n_out_rows)) for b0 in range(0, n_out_rows, band)
        ]

    @staticmethod
    def _stack_bands(bands: List[np.ndarray]) -> np.ndarray:
        """Stack ragged full-width row bands, zero-padding short ones.

        Zero rows cannot change a band's ``max |x|`` (so per-band scales
        match the reference exactly) and every *valid* output row reads
        only real input rows — callers slice padded garbage away.
        """
        hmax = max(b.shape[0] for b in bands)
        stacked = np.zeros((len(bands), hmax, bands[0].shape[1]), dtype=np.float64)
        for i, b in enumerate(bands):
            stacked[i, : b.shape[0]] = b
        return stacked

    def _lower_pool(self, request: OperationRequest) -> LoweredOperation:
        planes, window, stride, kind = self._pool_operand(request)
        wh, ww = window
        sy, sx = stride
        n_planes, h, w = planes.shape
        oh = (h - wh) // sy + 1
        ow = (w - ww) // sx + 1
        bands = self._row_bands(oh, ow)
        spans = [(b0 * sy, (b1 - 1) * sy + wh) for b0, b1 in bands]
        # Every plane's row bands in plane-major order, short bands
        # zero-padded as in _stack_bands.
        stacked = np.zeros((n_planes, len(bands), spans[0][1] - spans[0][0], w))
        for bi, (r0, r1) in enumerate(spans):
            stacked[:, bi, : r1 - r0] = planes[:, r0:r1]
        stacked = stacked.reshape(n_planes * len(bands), -1, w)
        if request.quant is QuantMode.GLOBAL:
            # Each plane is its own scale domain.
            scales = np.repeat([self._range_params(p).scale for p in planes], len(bands))
        else:
            scales = scales_for_ranges(batch_max_abs(stacked))
        qa = quantize_batched(stacked, scales, assume_finite=True)
        band_sizes = np.array([(b1 - b0) * ow for b0, b1 in bands], dtype=np.int64)
        out_sizes = np.tile(band_sizes, n_planes)
        batched = functional.pool2d_batched(qa, window, stride, kind, scales, out_sizes)
        # Device POOL default output scale: the input scale (max pooling
        # requantizes with rescale exactly 1; averages cannot saturate).
        out_scales = scales
        q_out, saturated = requantize_batched(batched.acc, batched.acc_scales, out_scales)
        deq = dequantize_batched(q_out, out_scales)
        deq = deq.reshape((n_planes, len(bands)) + deq.shape[1:])
        result = np.empty((n_planes, oh, ow), dtype=np.float64)
        for bi, (b0, b1) in enumerate(bands):
            result[:, b0:b1] = deq[:, bi, : b1 - b0, :ow]
        self.stats.tiles_lowered += len(stacked)
        self.stats.batched_dispatches += 1

        # The stream is the per-plane streams concatenated in plane order.
        band_seconds = [
            self.timing.instruction_seconds(Opcode.POOL, int(out), int(macs))
            for out, macs in zip(band_sizes, batched.macs)
        ]
        instrs = [
            LoweredInstr(
                opcode=Opcode.POOL,
                task_id=request.task_id,
                group_key="",
                cache_key="",
                data_bytes=(r1 - r0) * w,
                model_bytes=0,
                model_build_seconds=0.0,
                exec_seconds=band_seconds[bi],
                out_bytes=int(band_sizes[bi]),
                label=f"pool@{bi}",
            )
            for _ in range(n_planes)
            for bi, (r0, r1) in enumerate(spans)
        ]
        result = result.reshape(request.inputs[0].shape[:-2] + (oh, ow))
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _softmax_operand(self, request: OperationRequest) -> np.ndarray:
        if len(request.inputs) != 1:
            raise TensorizerError("softmax takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"softmax operates on a 2-D matrix, got {a.shape}")
        return a

    def _lower_softmax(self, request: OperationRequest) -> LoweredOperation:
        a = self._softmax_operand(request)
        tile = self.options.arithmetic_tile
        starts = list(range(0, a.shape[0], tile))
        slices = [a[b0 : b0 + tile] for b0 in starts]
        # Full-width row bands only: padded *columns* would enter row
        # sums and break bit-identity; padded rows are sliced away.
        stacked = self._stack_bands(slices)
        scales = self._input_scales(request, stacked)
        qa = quantize_batched(stacked, scales, assume_finite=True)
        sizes = np.array([s.size for s in slices], dtype=np.int64)
        batched = functional.softmax_batched(qa, scales, sizes)
        # Lossless requantization at the LUT scale (127), like tanh.
        q_out, saturated = requantize_batched(
            batched.acc, batched.acc_scales, batched.acc_scales
        )
        deq = dequantize_batched(q_out, batched.acc_scales)
        result = np.empty_like(a)
        for i, b0 in enumerate(starts):
            nb = slices[i].shape[0]
            result[b0 : b0 + nb] = deq[i, :nb]
        self.stats.tiles_lowered += len(slices)
        self.stats.batched_dispatches += 1

        instrs: List[LoweredInstr] = []
        for i, b0 in enumerate(starts):
            instrs.append(
                LoweredInstr(
                    opcode=Opcode.SOFTMAX,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=int(sizes[i]),
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=self.timing.instruction_seconds(
                        Opcode.SOFTMAX, int(sizes[i]), int(batched.macs[i])
                    ),
                    out_bytes=int(sizes[i]),
                    label=f"softmax@{i}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    # -- multichannel conv2d (im2col over the conv2D-GEMM path) ---------

    @staticmethod
    def _conv2d_nn_padding(attrs) -> Tuple[int, int, int, int]:
        pad = attrs.get("padding", 0)
        if isinstance(pad, int):
            return (pad, pad, pad, pad)
        pad = tuple(int(v) for v in pad)
        if len(pad) == 2:
            return (pad[0], pad[0], pad[1], pad[1])
        if len(pad) == 4:
            return pad
        raise TensorizerError(
            f"conv2D_nn padding must be an int, (py, px), or (pt, pb, pl, pr); got {pad!r}"
        )

    def _lower_conv2d_nn(self, request: OperationRequest) -> LoweredOperation:
        """Multichannel NCHW conv2d: im2col → conv2D-GEMM → NN epilogue.

        The data-parallel heart — an ``(N·OH·OW, C·kh·kw) × (C·kh·kw, F)``
        matrix product — runs through the §7.1.2 conv2D-GEMM rule and so
        inherits its whole stack: plan capture/replay, ABFT integrity
        checksums, model-block reuse, and bit-identity to the reference.
        The host contributes the im2col transform and an NN-style
        epilogue: bias fold, optional fused ReLU, and per-output-channel
        int8 requantization (the "per-channel quant params" real NN
        runtimes use; see docs/nn.md).
        """
        if len(request.inputs) not in (2, 3):
            raise TensorizerError("conv2D_nn needs inputs (x, w[, bias])")
        x, w = request.inputs[0], request.inputs[1]
        bias = request.inputs[2] if len(request.inputs) == 3 else None
        if x.ndim != 4 or w.ndim != 4:
            raise TensorizerError(
                f"conv2D_nn wants NCHW x and FCHW w, got {x.shape} and {w.shape}"
            )
        n, c, h, wid = x.shape
        f, cw, kh, kw = w.shape
        if cw != c:
            raise TensorizerError(
                f"conv2D_nn channel mismatch: x has {c}, w has {cw}"
            )
        if bias is not None and bias.shape != (f,):
            raise TensorizerError(
                f"conv2D_nn bias must have shape ({f},), got {bias.shape}"
            )
        sy, sx = (int(v) for v in request.attrs.get("stride", (1, 1)))
        if sy < 1 or sx < 1:
            raise TensorizerError(f"conv2D_nn stride must be positive, got ({sy}, {sx})")
        pt, pb, pl, pr = self._conv2d_nn_padding(request.attrs)
        if min(pt, pb, pl, pr) < 0:
            raise TensorizerError("conv2D_nn padding must be non-negative")
        ph, pw = h + pt + pb, wid + pl + pr
        if kh > ph or kw > pw:
            raise TensorizerError(
                f"conv2D_nn kernel {kh}x{kw} larger than padded input {ph}x{pw}"
            )
        oh = (ph - kh) // sy + 1
        ow = (pw - kw) // sx + 1

        # Host im2col: zero-pad, then unfold every (kh, kw) patch into a
        # row of A.  Rows are ordered (image, out_row, out_col); columns
        # are ordered (channel, ky, kx) to match w.reshape(f, -1).
        if (pt, pb, pl, pr) != (0, 0, 0, 0):
            xp = np.zeros((n, c, ph, pw), dtype=np.float64)
            xp[:, :, pt : pt + h, pl : pl + wid] = x
        else:
            xp = x
        patches = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sy, ::sx]
        a_mat = np.ascontiguousarray(
            patches.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        )
        w_mat = np.ascontiguousarray(w.reshape(f, c * kh * kw).T)

        sub_attrs = {"gemm": True}
        if "gemm_chunks" in request.attrs:
            sub_attrs["gemm_chunks"] = int(request.attrs["gemm_chunks"])
        sub = OperationRequest(
            task_id=request.task_id,
            opcode=Opcode.CONV2D,
            inputs=(a_mat, w_mat),
            quant=request.quant,
            attrs=sub_attrs,
            input_name=request.input_name,
            output_name=request.output_name,
        )
        inner = self._lower_gemm_conv2d(sub)

        # NN epilogue (host float64, deterministic → bit-identical across
        # production and the reference inner paths): bias, fused ReLU, then
        # per-output-channel int8 requantization.
        out2d = inner.result
        if bias is not None:
            out2d = out2d + bias[None, :]
        if request.attrs.get("relu", False):
            out2d = np.maximum(out2d, 0.0)
        ch_override = request.attrs.get("channel_scales")
        if ch_override is not None:
            ch_scales = np.asarray(ch_override, dtype=np.float64)
            if ch_scales.shape != (f,) or not np.all(ch_scales > 0):
                raise TensorizerError(
                    f"channel_scales must be {f} positive floats"
                )
        else:
            cmax = np.abs(out2d).max(axis=0)
            ch_scales = np.array(
                [params_for_range(float(m) * 1.05).scale for m in cmax]
            )
        q = np.rint(out2d * ch_scales[None, :])
        saturated = int(np.count_nonzero((q < QMIN) | (q > QMAX)))
        deq = np.clip(q, QMIN, QMAX) / ch_scales[None, :]
        result = np.ascontiguousarray(
            deq.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
        )
        # §7.1.3-style host transform cost: im2col writes A once, the
        # epilogue touches every output value once.
        host_seconds = self.cpu.elementwise_seconds(
            a_mat.size + deq.size, bytes_per_elem=8
        )
        return LoweredOperation(
            request,
            inner.instrs,
            result,
            cpu_seconds=inner.cpu_seconds + host_seconds,
            saturated=inner.saturated + saturated,
            integrity=inner.integrity,
        )
