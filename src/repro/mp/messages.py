"""Wire format between the admission parent and data-plane workers.

Control messages are tiny picklable tuples over ``multiprocessing``
pipes; every ndarray (request operands, array-valued attrs, results)
travels as a :class:`~repro.mp.shm.ShmRing` ref instead — the pipes
carry offsets, never tensor bytes.

Parent → worker::

    ("req", [encoded request, ...])   one coalescible shipment
    ("warm", [plan blob, ...])        §3.3-serialized plans to pre-warm
    ("snapshot", seq)                 reply on the snapshot pipe
    ("trace", seq)                    reply with pid-tagged Chrome trace
    ("rfree", offset)                 result block consumed, reuse it
    ("stop",)                         drain, report, exit 0

Worker → parent::

    ("ready", worker_id, pid)
    ("done", serve_id, ok, result_ref | None, (errname, msg) | None,
     device_index)                            the request's one outcome
    ("preempted", [serve_id, ...])            detached, never started
    ("event", name, serve_id, device_index)   non-terminal pool events
    ("plans", [(signature, blob), ...])       newly captured plans
    ("snapshot", worker_id, payload, seq)     on the snapshot pipe
    ("trace", worker_id, chrome_trace_dict, seq)
                                              on the snapshot pipe

A snapshot/trace reply echoes its request's ``seq``, so the parent can
drop a late reply to a round trip that already timed out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.edgetpu.device import FaultInjector
from repro.edgetpu.isa import Opcode
from repro.errors import (
    DeviceFailure,
    GPTPUError,
    RequestTimeout,
    ServingError,
    SilentDataCorruption,
)
from repro.mp.shm import ShmRing
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.serve.server import ServeConfig

#: Marker for an array-valued request attribute shipped through the ring.
SHM_REF = "__shmref__"

#: Error classes a worker may surface across the boundary, by name.
ERROR_CLASSES = {
    cls.__name__: cls
    for cls in (
        GPTPUError,
        DeviceFailure,
        SilentDataCorruption,
        ServingError,
        RequestTimeout,
    )
}


def encode_error(exc: BaseException) -> Tuple[str, str]:
    """Portable (class name, message) form of a worker-side failure."""
    return type(exc).__name__, str(exc)


def decode_error(err: Tuple[str, str]) -> BaseException:
    """Rebuild a worker failure in the parent's exception hierarchy."""
    name, message = err
    cls = ERROR_CLASSES.get(name, ServingError)
    return cls(message)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs to build its device slice."""

    worker_id: int
    base_seed: int
    #: Picklable platform recipe; the worker instantiates its own slice.
    system_config: Any
    #: Global device names this worker owns (its local tpu0.. renamed).
    device_names: Tuple[str, ...]
    config: ServeConfig
    req_ring_name: str
    req_ring_capacity: int
    res_ring_name: str
    res_ring_capacity: int
    #: Armed fault injectors per local device (picklable plain objects),
    #: so a parent-side `platform.devices[i].inject_fault(...)` made
    #: before start — the conformance suites' contract — survives the
    #: process boundary.
    injectors: Tuple[Optional[FaultInjector], ...] = ()
    trace: bool = False


def encode_request(
    ring: ShmRing,
    serve_id: int,
    request: OperationRequest,
    deadline_remaining: Optional[float],
) -> Tuple[Dict[str, Any], List[int]]:
    """Stage one request's tensors into *ring*; returns (entry, offsets).

    The returned ``offsets`` are the parent-side blocks to free once the
    worker reports ``done`` for this serve id.  Staging is atomic: if any
    allocation fails (ring full mid-request), every block this call
    already reserved is freed before the exception propagates — the
    caller only ever rolls back whole requests, so a half-staged one
    must not leak ring space each time a parked shipment retries.
    """
    offsets: List[int] = []
    inputs = []
    attrs: Dict[str, Any] = {}
    try:
        for array in request.inputs:
            ref = ring.write_array(array)
            offsets.append(ref[0])
            inputs.append(ref)
        for key, value in request.attrs.items():
            if hasattr(value, "__array_interface__"):
                ref = ring.write_array(value)
                offsets.append(ref[0])
                attrs[key] = (SHM_REF,) + ref
            else:
                attrs[key] = value
    except Exception:
        for offset in offsets:
            ring.free(offset)
        raise
    entry = {
        "serve_id": serve_id,
        "opcode": request.opcode.name,
        "quant": request.quant.name,
        "tenant": request.tenant,
        "input_name": request.input_name,
        "output_name": request.output_name,
        "inputs": inputs,
        "attrs": attrs,
        "deadline": deadline_remaining,
    }
    return entry, offsets


def decode_request(ring: ShmRing, entry: Dict[str, Any]) -> OperationRequest:
    """Materialize a shipped request with zero-copy views into *ring*."""
    inputs = tuple(
        ring.read_view(offset, shape, dtype)
        for offset, _nbytes, shape, dtype in entry["inputs"]
    )
    attrs: Dict[str, Any] = {}
    for key, value in entry["attrs"].items():
        if isinstance(value, tuple) and value and value[0] == SHM_REF:
            _tag, offset, _nbytes, shape, dtype = value
            attrs[key] = ring.read_view(offset, shape, dtype)
        else:
            attrs[key] = value
    return OperationRequest(
        task_id=entry["serve_id"],
        opcode=Opcode[entry["opcode"]],
        inputs=inputs,
        quant=QuantMode[entry["quant"]],
        attrs=attrs,
        input_name=entry["input_name"],
        output_name=entry["output_name"],
        tenant=entry["tenant"],
    )
