"""Multi-process data plane for the serving stack (ROADMAP item 1).

:class:`MpTpuServer` shares the asyncio front door of
:class:`~repro.serve.server.TpuServer` (admission, coalescing,
preemption) and stays the exactly-once tier, while it shards the
Tensorizer + simulated-device pool across spawned worker processes so
host lowering escapes the GIL.  Tensors travel through
:class:`~repro.mp.shm.ShmRing` shared-memory rings as zero-copy views;
compiled plans gossip between workers in their §3.3 byte serialization.

See docs/serving.md ("Multi-process data plane") for the architecture
and the crash-recovery contract.
"""

from repro.mp.messages import WorkerSpec, decode_request, encode_request
from repro.mp.server import DEFAULT_RING_BYTES, MpTpuServer
from repro.mp.shm import RingFull, ShmRing

__all__ = [
    "DEFAULT_RING_BYTES",
    "MpTpuServer",
    "RingFull",
    "ShmRing",
    "WorkerSpec",
    "decode_request",
    "encode_request",
]
