"""Exception hierarchy for the GPTPU reproduction.

Every error raised by the library derives from :class:`GPTPUError` so that
callers can catch library failures without masking programming errors
(``TypeError``/``ValueError`` raised by argument validation still use the
built-in types where that is the idiomatic choice).
"""

from __future__ import annotations


class GPTPUError(Exception):
    """Base class for all library-specific errors."""


class SimulationError(GPTPUError):
    """Raised when the discrete-event engine is driven incorrectly."""


class DeadlockError(SimulationError):
    """Raised when the engine runs out of events while processes wait."""


class DeviceError(GPTPUError):
    """Raised for Edge TPU device-level failures."""


class DeviceFailure(DeviceError):
    """Raised when a device fails while holding a dispatch group.

    The serving layer's fault-injection hooks raise this to model a TPU
    dropping off the bus mid-stream; the dispatcher catches it, opens
    the device's circuit breaker, and requeues the group elsewhere.
    """

    def __init__(self, message: str, device: str = "") -> None:
        super().__init__(message)
        #: Name of the device that failed (e.g. ``"tpu3"``), when known.
        self.device = device


class SilentDataCorruption(DeviceFailure):
    """An integrity check caught a device returning wrong int8 bytes.

    Unlike a plain :class:`DeviceFailure` (fail-stop: the device raised
    instead of answering), silent corruption means the device *answered*
    — with data whose ABFT checksums (or a witness device's copy)
    disagree beyond the requantization error bound.  The dispatcher
    treats it as retriable like a failure, but feeds the device's
    quarantine score instead of its circuit breaker.
    """

    def __init__(self, message: str, device: str = "", detections: int = 0) -> None:
        super().__init__(message, device=device)
        #: Number of tiles that failed verification in this incident.
        self.detections = detections


class OutOfDeviceMemoryError(DeviceError):
    """Raised when an allocation exceeds the 8 MB on-chip memory."""


class UnsupportedInstructionError(DeviceError):
    """Raised when an opcode outside the Edge TPU ISA is executed."""


class ModelFormatError(GPTPUError):
    """Raised when an Edge TPU model binary fails to parse or validate."""


class ModelSizeMismatchError(ModelFormatError):
    """The header's data-section size field disagrees with the blob.

    A parser that trusted the shorter of the two lengths would silently
    truncate (or over-read) the weight matrix; this typed error carries
    both numbers so callers and fuzzers can assert the exact complaint.
    """

    def __init__(self, message: str, declared: int, actual: int) -> None:
        super().__init__(message)
        #: Data-section size the header's last-4-bytes field declares.
        self.declared = declared
        #: Data-section bytes actually present between header and metadata.
        self.actual = actual


class PlanFormatError(ModelFormatError):
    """Raised when a serialized compiled plan fails to parse or validate.

    Compiled plans (:mod:`repro.plan`) extend the §3.3 model-binary
    layout with a versioned plan header, instruction-group records, and
    an integrity block; the same reject-typed-or-roundtrip-byte-exact
    contract applies, so the error slots into the :class:`ModelFormatError`
    hierarchy (size-field disagreements still raise the dedicated
    :class:`ModelSizeMismatchError`).
    """


class QuantizationError(GPTPUError):
    """Raised when data cannot be quantized (e.g. non-finite inputs)."""


class RuntimeAPIError(GPTPUError):
    """Raised for misuse of the OpenCtpu-style runtime API."""


class TaskError(RuntimeAPIError):
    """Raised when a task reference is invalid or a task failed."""


class SchedulerError(GPTPUError):
    """Raised when the scheduler is configured or driven incorrectly."""


class TensorizerError(GPTPUError):
    """Raised when an operation cannot be lowered to TPU instructions."""


class BenchmarkError(GPTPUError):
    """Raised by the benchmark harness for invalid experiment configs."""


class ServingError(GPTPUError):
    """Base class for multi-tenant serving-layer errors (:mod:`repro.serve`)."""


class QueueFull(ServingError):
    """Admission fast-reject: the bounded OPQ (or a tenant's share) is full.

    Backpressure signal — the client should retry later or shed load;
    nothing was enqueued.
    """


class LoadShed(QueueFull):
    """Admission shed this request by SLO policy, not by capacity.

    Raised instead of the plain :class:`QueueFull` when the overload
    controller is engaged and the request's tenant tier is inside the
    current shed set (lowest tiers first; see :mod:`repro.serve.slo`).
    Subclassing :class:`QueueFull` keeps existing back-off clients
    working, while outcome accounting can tell deliberate shedding
    apart from a full queue.
    """

    def __init__(self, message: str, tier: str = "") -> None:
        super().__init__(message)
        #: SLO tier the shed request belonged to (e.g. ``"bronze"``).
        self.tier = tier


class RequestTimeout(ServingError):
    """A request's deadline expired before its results were delivered."""


class WorkerStartError(ServingError):
    """A multi-process server's worker fleet failed to come up.

    Raised by ``MpTpuServer.start()`` when a worker exits before it
    reports ready (or the fleet does not report ready in time); the
    server has already torn down every worker and shared-memory ring.
    """
