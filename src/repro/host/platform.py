"""Platform assembly: CPU + Edge TPUs + interconnect + clock + energy.

A :class:`Platform` bundles one simulation's worth of state.  The
runtime executor (``repro.runtime.executor``) drives it; benchmarks
create a fresh platform per run so simulated clocks start at zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.edgetpu.device import EdgeTPUDevice
from repro.edgetpu.timing import TimingModel
from repro.host.cpu import CPUCoreModel
from repro.host.energy import EnergyModel
from repro.interconnect.topology import (
    Topology,
    build_dual_module_topology,
    build_prototype_topology,
    build_usb_topology,
)
from repro.sim.trace import Tracer


class Platform:
    """One instantiated GPTPU machine (paper §3.1)."""

    def __init__(self, config: Optional[SystemConfig] = None, trace: bool = True) -> None:
        self.config = config or SystemConfig()
        #: Simulated clock (seconds); each ``sync()`` moves it to its end.
        self.now = 0.0
        #: Bytes moved between host and device, per TPU index.
        self.bytes_moved: Dict[int, int] = {}
        self.tracer = Tracer(enabled=trace)
        self.timing = TimingModel(self.config.edgetpu)
        if self.config.interconnect == "usb":
            self.topology: Topology = build_usb_topology(self.config)
        elif self.config.interconnect == "dual":
            self.topology = build_dual_module_topology(self.config)
        else:
            self.topology = build_prototype_topology(self.config)
        self.devices: List[EdgeTPUDevice] = [
            EdgeTPUDevice(f"tpu{i}", self.config.edgetpu, self.timing)
            for i in range(self.config.num_edge_tpus)
        ]
        self.cpu = CPUCoreModel(self.config.cpu)
        self.energy = EnergyModel(self.config)

    @property
    def num_tpus(self) -> int:
        """Number of Edge TPUs installed."""
        return len(self.devices)

    @classmethod
    def with_tpus(cls, n: int, trace: bool = True) -> "Platform":
        """A default platform with *n* Edge TPUs (Fig. 8 sweeps)."""
        return cls(SystemConfig().with_tpus(n), trace=trace)

    def busy_by_unit(self) -> dict:
        """Busy seconds per unit from the trace (for the energy model)."""
        return self.tracer.busy_seconds()
