"""Request coalescing: merge compatible multi-client GEMMs.

Serving traffic is dominated by the "many clients, one weight matrix"
pattern — the same model operand *B* multiplied against each client's
own data.  The coalescer groups admitted GEMM requests whose lowering
is provably mergeable and hands each group to
:meth:`repro.runtime.tensorizer.Tensorizer.lower_gemm_coalesced`, which
runs ONE batched lowering and de-multiplexes bit-identical per-client
results.

Compatibility (conservative by construction — anything else stays a
singleton and lowers normally):

* conv2D-GEMM opcode (``gemm=True``) with only known GEMM attributes;
* SCALE quantization (GLOBAL derives scales from each request's whole
  dataset, so merged scales would differ from solo ones);
* identical operand shapes, *B* dtype and ``gemm_chunks`` (the
  :func:`coalesce_key`, hence identical chunk geometry);
* the same model operand *B*, by the one same-operand rule
  (:func:`repro.plan.operand.same_operand` against the group's
  :func:`~repro.plan.operand.hold_operand`), which the coalesced
  lowering checks again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.edgetpu.isa import Opcode
from repro.plan.operand import hold_operand, same_operand
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.serve.request import ServeRequest

#: GEMM lowering attributes the coalescer understands; a request with
#: any other attribute is left alone rather than guessed about.
GEMM_ATTR_KEYS = frozenset({"gemm", "gemm_chunks"})


def coalesce_key(request: OperationRequest) -> Optional[Tuple]:
    """Grouping key for a coalescible GEMM, or None when not eligible.

    The key names the lowering geometry only; requests under one key
    merge when they also share *B* (see :func:`coalesce`).
    """
    if request.opcode is not Opcode.CONV2D or not request.attrs.get("gemm", False):
        return None
    if request.quant is not QuantMode.SCALE:
        return None
    if set(request.attrs) - GEMM_ATTR_KEYS:
        return None
    if len(request.inputs) != 2:
        return None
    a, b = request.inputs
    if getattr(a, "ndim", 0) != 2 or getattr(b, "ndim", 0) != 2:
        return None
    if a.shape[1] != b.shape[0]:
        return None
    return (a.shape, b.shape, b.dtype.str, request.attrs.get("gemm_chunks"))


def coalesce(
    sreqs: Sequence[ServeRequest], max_group: int = 16
) -> List[List[ServeRequest]]:
    """Partition requests into coalescible groups, preserving FCFS order.

    Groups are ordered by their first member's arrival; non-eligible
    requests become singletons.  Under one :func:`coalesce_key`, a
    request joins the open group whose held *B* it matches, else opens
    its own.  ``max_group`` bounds lowering working-set size (the
    stacked operand is ``group × data`` rows).
    """
    if max_group < 1:
        raise ValueError(f"max_group must be >= 1, got {max_group}")
    groups: List[List[ServeRequest]] = []
    # key -> one [B, held B, open group] per distinct B seen under the
    # key.  B is held only once a second request shares the key, so a
    # lone GEMM copies nothing (B cannot change during one pass).
    open_by_key: Dict[Tuple, List[list]] = {}
    for sreq in sreqs:
        key = coalesce_key(sreq.request)
        if key is None:
            groups.append([sreq])
            continue
        b = sreq.request.inputs[1]
        slots = open_by_key.setdefault(key, [])
        for slot in slots:
            if slot[1] is None:
                slot[1] = hold_operand(slot[0])
            if same_operand(slot[1], b):
                break
        else:
            slot = [b, None, []]
            slots.append(slot)
        if not slot[2] or len(slot[2]) >= max_group:
            slot[2] = [sreq]
            groups.append(slot[2])
        else:
            slot[2].append(sreq)
    return groups
