"""repro.serve — multi-tenant async serving over the GPTPU stack.

The paper's runtime (§6.1) is batch-oriented: one caller fills the OPQ,
then syncs.  This package turns the same OPQ → Tensorizer → scheduler →
device pipeline into a continuously-fed service with admission control
and backpressure, multi-client GEMM coalescing, and fault-tolerant
dispatch with retries and circuit breakers.  See docs/serving.md.

It holds the data plane and the front door only: the load generators
and ``make_server``, which also picks the multi-process server of
:mod:`repro.mp`, live one layer up in :mod:`repro.loadgen`.
"""

from repro.serve.admission import AdmissionController
from repro.serve.arrivals import (
    Arrival,
    ArrivalSchedule,
    build_schedule,
    lognormal_sizes,
    poisson_times,
)
from repro.serve.coalescer import coalesce, coalesce_key
from repro.serve.dispatcher import CircuitBreaker, DevicePool, DispatchWork
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest
from repro.serve.server import ServeConfig, TpuServer
from repro.serve.slo import OverloadController, SloPolicy, SloTier, gold_silver_bronze

__all__ = [
    "AdmissionController",
    "Arrival",
    "ArrivalSchedule",
    "CircuitBreaker",
    "DevicePool",
    "DispatchWork",
    "OverloadController",
    "ServeConfig",
    "ServeRequest",
    "ServingMetrics",
    "SloPolicy",
    "SloTier",
    "TpuServer",
    "build_schedule",
    "coalesce",
    "coalesce_key",
    "gold_silver_bronze",
    "lognormal_sizes",
    "poisson_times",
]
