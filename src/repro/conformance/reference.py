"""The per-tile int8 reference lowering (conformance oracle 2).

:class:`ReferenceTensorizer` is the production
:class:`~repro.runtime.tensorizer.Tensorizer` with its nine batched
rules — pairwise, unary, reduction, matvec, FullyConnected-GEMM,
conv2D-GEMM, conv2D stencil, pool and softmax — replaced by
deliberately naive ones: one tile (or GEMM piece) at a time, each
executed through the scratch :class:`~repro.edgetpu.device.EdgeTPUDevice`
and the :mod:`repro.edgetpu.functional` integer kernels, with no
stacking, scratch reuse, plan cache or integrity plans.  Rule names
match the production ones, so every shared helper (geometry, scales,
instruction fields) and the conv2D_nn im2col rule, which calls the
conv2D-GEMM rule, are inherited unchanged.

The production rules are a pure performance transform of these: the
same results byte for byte, the same saturation counts, CPU seconds
and ``LoweredInstr`` stream.  ``tests/runtime/test_vectorized_equivalence.py``
and the ``ops``/``nn`` conformance suites difference the two.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.quantize import quantize
from repro.errors import TensorizerError
from repro.host.platform import Platform
from repro.runtime.api import OpenCtpu
from repro.runtime.opqueue import (
    LoweredInstr,
    LoweredOperation,
    OperationRequest,
    QuantMode,
)
from repro.runtime.tensorizer import Tensorizer, _LazyRange
from repro.runtime.tiling import iter_tiles


def reference_runtime(platform: Platform) -> OpenCtpu:
    """A fresh :class:`OpenCtpu` on *platform* that lowers through the
    reference."""
    ctx = OpenCtpu(platform)
    ctx.tensorizer = ReferenceTensorizer(
        platform.config.edgetpu, cpu=platform.cpu, tracer=ctx.tracer
    )
    return ctx


class ReferenceTensorizer(Tensorizer):
    """Per-tile reference lowering; see the module docstring."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.plan_cache is not None or self.options.integrity != "off":
            raise TensorizerError(
                "the reference lowering is the bit-identity oracle and stays "
                "plan-free: no plan cache, integrity 'off'"
            )

    def _execute(self, instr: Instruction):
        """Run one tile on the scratch device: one scalar dispatch."""
        execd = self._scratch.execute(instr)
        self.stats.tiles_lowered += 1
        self.stats.scalar_dispatches += 1
        return execd

    @staticmethod
    def _tile_instr(
        request: OperationRequest, data_bytes: int, out_bytes: int, seconds: float, label: str
    ) -> LoweredInstr:
        """The IQ entry of one model-less tile instruction."""
        return LoweredInstr(
            opcode=request.opcode,
            task_id=request.task_id,
            group_key="",
            cache_key="",
            data_bytes=data_bytes,
            model_bytes=0,
            model_build_seconds=0.0,
            exec_seconds=seconds,
            out_bytes=out_bytes,
            label=label,
        )

    def _lower_pairwise(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape != b.shape:
            raise TensorizerError(f"pairwise shapes differ: {a.shape} vs {b.shape}")
        op = request.opcode
        tile = self.options.arithmetic_tile
        minmax = _LazyRange(a, b)
        # Optional on-chip residency for the first operand when the
        # caller marks it stable across calls (e.g. Black-Scholes keeps
        # the option grid resident through the Horner recurrence).
        data_name = str(request.attrs.get("data_name", ""))
        result = np.empty_like(a)
        instrs: List[LoweredInstr] = []
        saturated = 0
        float_op = {Opcode.ADD: np.add, Opcode.SUB: np.subtract, Opcode.MUL: np.multiply}[op]
        for t in iter_tiles(a.shape, tile):
            ta = a[t.rows, t.cols]
            tb = b[t.rows, t.cols]
            if op is Opcode.MUL:
                pa = self._input_params(request, ta)
                pb = self._input_params(request, tb)
            else:
                # add/sub share one scale so integer addition is aligned.
                pa = pb = self._input_params(request, ta, tb)
            measured = float(np.abs(float_op(ta, tb)).max())
            out_params = self._output_params(op.opname, measured, minmax)
            instr = Instruction(
                op,
                quantize(ta, pa),
                pa,
                model=quantize(tb, pb),
                model_params=pb,
                out_params=out_params,
                task_id=request.task_id,
            )
            execd = self._execute(instr)
            saturated += execd.saturated
            result[t.rows, t.cols] = execd.dequantized()
            elems = ta.size
            instrs.append(
                LoweredInstr(
                    opcode=op,
                    task_id=request.task_id,
                    group_key="",
                    cache_key=f"{data_name}:t{t.index}" if data_name else "",
                    data_bytes=elems,
                    model_bytes=self._model_bytes(elems),
                    model_build_seconds=self._model_build_seconds(elems),
                    exec_seconds=execd.seconds,
                    out_bytes=elems,
                    label=f"{op.opname}@{t.index}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _lower_unary(self, request: OperationRequest) -> LoweredOperation:
        if len(request.inputs) != 1:
            raise TensorizerError(f"{request.opcode.opname} takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"{request.opcode.opname} operates on a 2-D matrix")
        op = request.opcode
        tile = self.options.arithmetic_tile
        result = np.empty_like(a)
        instrs: List[LoweredInstr] = []
        saturated = 0
        for t in iter_tiles(a.shape, tile):
            ta = a[t.rows, t.cols]
            pa = self._input_params(request, ta)
            instr = Instruction(op, quantize(ta, pa), pa, task_id=request.task_id)
            execd = self._execute(instr)
            saturated += execd.saturated
            result[t.rows, t.cols] = execd.dequantized()
            instrs.append(self._tile_instr(
                request, ta.size, ta.size, execd.seconds, f"{op.opname}@{t.index}"
            ))
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _lower_reduction(self, request: OperationRequest) -> LoweredOperation:
        if len(request.inputs) != 1:
            raise TensorizerError(f"{request.opcode.opname} takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"{request.opcode.opname} operates on a 2-D matrix")
        op = request.opcode
        tile = self.options.reduction_tile
        instrs: List[LoweredInstr] = []
        partials: List[float] = []
        weights: List[int] = []
        for t in iter_tiles(a.shape, tile):
            ta = a[t.rows, t.cols]
            pa = self._input_params(request, ta)
            instr = Instruction(op, quantize(ta, pa), pa, task_id=request.task_id)
            execd = self._execute(instr)
            partials.append(float(execd.dequantized()[0, 0]))
            weights.append(ta.size)
            instrs.append(self._tile_instr(
                request, ta.size, 1, execd.seconds, f"{op.opname}@{t.index}"
            ))
        # §6.2.1: "Tensorizer will additionally generate CPU code to
        # aggregate the received values" — the TPU round already shrank
        # the data by 4096x, so CPU aggregation is the cheap choice.
        if op is Opcode.MEAN:
            value = float(np.average(partials, weights=weights))
        else:
            value = float(np.max(partials))
        cpu_seconds = self.cpu.aggregate_seconds(len(partials))
        return LoweredOperation(
            request, instrs, np.array(value), cpu_seconds=cpu_seconds
        )

    def _lower_matvec(self, request: OperationRequest) -> LoweredOperation:
        vec, mat = self._check_matvec(request)
        tile = self.options.arithmetic_tile
        minmax = _LazyRange(vec, mat)
        instrs: List[LoweredInstr] = []
        result = np.zeros(mat.shape[1], dtype=np.float64)
        saturated = 0
        n_ktiles = -(-vec.shape[0] // tile)
        for t in iter_tiles(mat.shape, tile):
            seg = vec[t.rows]
            wt = mat[t.rows, t.cols]
            p_seg = self._input_params(request, seg)
            p_wt = self._input_params(request, wt)
            # Eq. 4 with a measured bound: the closed-form Eq. 5 worst case
            # (span²·n) is hopelessly loose for e.g. stochastic matrices
            # (PageRank), collapsing every partial to zero.  Tensorizer
            # "dynamically evaluates input data" (§6.2), so it estimates
            # the true per-instruction output extreme and adds headroom.
            measured = float(np.abs(seg @ wt).max())
            out_params = self._output_params(
                Opcode.FULLY_CONNECTED.opname, measured, minmax, n=seg.size
            )
            instr = Instruction(
                Opcode.FULLY_CONNECTED,
                quantize(seg, p_seg),
                p_seg,
                model=quantize(wt, p_wt),
                model_params=p_wt,
                out_params=out_params,
                task_id=request.task_id,
            )
            execd = self._execute(instr)
            saturated += execd.saturated
            result[t.cols] += execd.dequantized()
            instrs.append(
                self._matvec_instr(
                    request, t.index, seg.size, execd.out_elems, wt.size, execd.seconds
                )
            )
        # CPU sums the k-partials in wide registers (§6.2.1).
        cpu_seconds = self.cpu.aggregate_seconds(mat.shape[1] * n_ktiles)
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

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
        # One FullyConnected per (row of A, 128x128 tile of B): M·⌈N/128⌉·
        # ⌈K/128⌉ instructions.  Functionally we evaluate whole row-blocks
        # with one exact integer matmul; for the IQ each (k-tile, n-tile)
        # pair becomes an M-instruction burst.
        for t in iter_tiles(b.shape, tile):
            a_block = a[:, t.rows]
            w = b[t.rows, t.cols]
            p_a = self._input_params(request, a_block)
            p_w = self._input_params(request, w)
            q_a = quantize(a_block, p_a).astype(np.float64)
            q_w = quantize(w, p_w).astype(np.float64)
            acc = q_a @ q_w  # exact: |values| << 2^53
            self.stats.tiles_lowered += 1
            self.stats.scalar_dispatches += 1
            measured = float(np.abs(acc).max()) / (p_a.scale * p_w.scale)
            out_params = self._output_params(
                Opcode.FULLY_CONNECTED.opname, measured, minmax, n=a_block.shape[1]
            )
            rescale = out_params.scale / (p_a.scale * p_w.scale)
            q_out = np.rint(acc * rescale)
            saturated += int(np.count_nonzero(np.abs(q_out) > 127))
            q_out = np.clip(q_out, -128, 127)
            result[:, t.cols] += q_out / out_params.scale
            per_instr = self.timing.instruction_seconds(
                Opcode.FULLY_CONNECTED,
                out_elems=w.shape[1],
                macs=a_block.shape[1] * w.shape[1],
            )
            instrs.append(
                self._gemm_fc_instr(
                    request, t, m, a_block.size, w.size, per_instr, w.shape[1]
                )
            )
        cpu_seconds = self.cpu.aggregate_seconds(m * k * (-(-n // tile)))
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

    def _gemm_conv2d_instr(
        self,
        request: OperationRequest,
        source: str,
        c0: int,
        j0: int,
        chunk_bytes: int,
        model_elems: int,
        exec_seconds: float,
        out_elems: int,
    ) -> LoweredInstr:
        """One conv2D-GEMM piece, emitted directly (the scalar oracle)."""
        cache_key = f"{source}:rows{c0}"
        return LoweredInstr(
            opcode=Opcode.CONV2D,
            task_id=request.task_id,
            group_key=f"task{request.task_id}:{cache_key}",
            cache_key=cache_key,
            # The executor transfers the chunk only on a residency miss
            # (cache_key), so every burst can carry the full chunk size.
            data_bytes=chunk_bytes,
            model_bytes=self._model_bytes(model_elems),
            model_build_seconds=self._model_build_seconds(model_elems),
            exec_seconds=exec_seconds,
            out_bytes=out_elems,
            label=f"convGEMM:r{c0}:k{j0}",
            # Kernel batches are identical across row chunks: they stay
            # resident per device instead of being re-streamed for every
            # chunk.
            model_cache_key=f"{source}:kernels{j0}",
        )

    def _lower_gemm_conv2d(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape[1] != b.shape[0]:
            raise TensorizerError(f"GEMM inner dims differ: {a.shape} x {b.shape}")
        m, n = a.shape
        k = b.shape[1]
        s, rows_per_chunk, batch = self._gemm_conv2d_geometry(request, m, n)
        minmax = _LazyRange(a, b)

        result = np.zeros((m, k), dtype=np.float64)
        instrs: List[LoweredInstr] = []
        saturated = 0
        p_a_global = None
        if request.quant is QuantMode.GLOBAL:
            p_a_global = self._input_params(request, a)
        # Unique per distinct input so unrelated GEMMs never alias in
        # on-chip memory (buffer names are unique; bare arrays fall
        # back to the operation sequence number).
        source = request.input_name or f"op{self._op_seq}"

        for c0 in range(0, m, rows_per_chunk):
            c1 = min(c0 + rows_per_chunk, m)
            rows = a[c0:c1]
            p_rows = p_a_global or self._params_for_data(rows)
            q_rows = quantize(rows, p_rows).astype(np.float64)
            chunk_bytes = (c1 - c0) * s * s  # reshaped, zero-padded form
            for j0 in range(0, k, batch):
                j1 = min(j0 + batch, k)
                cols = b[:, j0:j1]
                p_cols = p_a_global or self._params_for_data(cols)
                q_cols = quantize(cols, p_cols).astype(np.float64)
                # Strided conv2D over the reshaped rows with the padded
                # column-kernels is exactly this integer matmul (verified
                # against repro.edgetpu.functional.conv2d in the tests).
                acc = q_rows @ q_cols
                self.stats.tiles_lowered += 1
                self.stats.scalar_dispatches += 1
                measured = float(np.abs(acc).max()) / (p_rows.scale * p_cols.scale)
                out_params = self._output_params(Opcode.CONV2D.opname, measured, minmax, n=n)
                rescale = out_params.scale / (p_rows.scale * p_cols.scale)
                # ``+ 0.0``: the device returns int8, which has no signed
                # zero, so the host's requantized grid must not either —
                # the integrity write-back reconstructs these exact values
                # from the wire bytes.
                q_out = np.rint(acc * rescale) + 0.0
                saturated += int(np.count_nonzero(np.abs(q_out) > 127))
                q_out = np.clip(q_out, -128, 127)
                result[c0:c1, j0:j1] = q_out / out_params.scale
                nk = j1 - j0
                out_elems = (c1 - c0) * nk
                exec_seconds = self.timing.instruction_seconds(
                    Opcode.CONV2D, out_elems=out_elems, macs=out_elems * s * s
                )
                instrs.append(
                    self._gemm_conv2d_instr(
                        request, source, c0, j0, chunk_bytes, nk * s * s,
                        exec_seconds, out_elems,
                    )
                )
        # Host-side data transformation: reshaping A's rows into s×s
        # sub-matrices and B's columns into kernels (§7.1.3's
        # "additional data-transformation overhead").
        cpu_seconds = self.cpu.elementwise_seconds(m * s * s + k * s * s, bytes_per_elem=2)
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

    def _lower_conv2d_stencil(self, request: OperationRequest) -> LoweredOperation:
        a, kern, out_params, p_kern, step = self._stencil_setup(request)
        kh, kw = kern.shape
        q_kern = quantize(kern, p_kern)
        oh, ow = a.shape[0] - kh + 1, a.shape[1] - kw + 1
        result = np.empty((oh, ow), dtype=np.float64)
        instrs: List[LoweredInstr] = []
        saturated = 0
        for r0 in range(0, oh, step):
            r1 = min(r0 + step, oh)
            for c0 in range(0, ow, step):
                c1 = min(c0 + step, ow)
                # Halo: input region needed for this output tile.
                patch = a[r0 : r1 + kh - 1, c0 : c1 + kw - 1]
                p_patch = self._input_params(request, patch)
                instr = Instruction(
                    Opcode.CONV2D,
                    quantize(patch, p_patch),
                    p_patch,
                    model=q_kern,
                    model_params=p_kern,
                    out_params=out_params,
                    task_id=request.task_id,
                )
                execd = self._execute(instr)
                saturated += execd.saturated
                result[r0:r1, c0:c1] = execd.dequantized()
                instrs.append(
                    self._stencil_instr(
                        request, r0, c0, (r1 - r0, c1 - c0), (kh, kw), execd.seconds
                    )
                )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _lower_pool(self, request: OperationRequest) -> LoweredOperation:
        planes, window, stride, kind = self._pool_operand(request)
        wh, ww = window
        sy, sx = stride
        oh = (planes.shape[1] - wh) // sy + 1
        ow = (planes.shape[2] - ww) // sx + 1
        attrs = {"window": window, "stride": stride, "kind": kind}
        glob = request.quant is QuantMode.GLOBAL
        result = np.empty((len(planes), oh, ow), dtype=np.float64)
        instrs: List[LoweredInstr] = []
        saturated = 0
        for p, plane in enumerate(planes):
            # Under GLOBAL each plane is its own scale domain.
            p_plane = self._range_params(plane) if glob else None
            for bi, (b0, b1) in enumerate(self._row_bands(oh, ow)):
                band = plane[b0 * sy : (b1 - 1) * sy + wh]
                pa = p_plane if glob else self._range_params(band)
                instr = Instruction(
                    Opcode.POOL, quantize(band, pa), pa, attrs=attrs, task_id=request.task_id
                )
                execd = self._execute(instr)
                saturated += execd.saturated
                result[p, b0:b1] = execd.dequantized()
                instrs.append(self._tile_instr(
                    request, band.size, (b1 - b0) * ow, execd.seconds, f"pool@{bi}"
                ))
        result = result.reshape(request.inputs[0].shape[:-2] + (oh, ow))
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _lower_softmax(self, request: OperationRequest) -> LoweredOperation:
        a = self._softmax_operand(request)
        tile = self.options.arithmetic_tile
        result = np.empty_like(a)
        instrs: List[LoweredInstr] = []
        saturated = 0
        for bi, b0 in enumerate(range(0, a.shape[0], tile)):
            band = a[b0 : b0 + tile]
            pa = self._input_params(request, band)
            instr = Instruction(
                Opcode.SOFTMAX, quantize(band, pa), pa, task_id=request.task_id
            )
            execd = self._execute(instr)
            saturated += execd.saturated
            result[b0 : b0 + band.shape[0]] = execd.dequantized()
            instrs.append(self._tile_instr(
                request, band.size, band.size, execd.seconds, f"softmax@{bi}"
            ))
        return LoweredOperation(request, instrs, result, saturated=saturated)
