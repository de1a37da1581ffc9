"""Host interconnect topology: quad-TPU cards behind PCIe switches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.config import SystemConfig
from repro.interconnect.pcie import Link


@dataclass
class Topology:
    """The set of links and the path each Edge TPU uses to reach the host.

    ``paths[i]`` lists the link segments (host side first) a transfer to
    TPU *i* must traverse.  Links shared by several TPUs appear in
    several paths — the DMA engine serializes on them.
    """

    links: Dict[str, Link] = field(default_factory=dict)
    paths: List[Tuple[str, ...]] = field(default_factory=list)

    @property
    def num_tpus(self) -> int:
        """Number of endpoints (Edge TPUs)."""
        return len(self.paths)

    def path_links(self, tpu_index: int) -> Tuple[Link, ...]:
        """Link objects along the path to TPU *tpu_index*."""
        if not 0 <= tpu_index < len(self.paths):
            raise IndexError(f"no TPU {tpu_index} in a {len(self.paths)}-TPU topology")
        return tuple(self.links[name] for name in self.paths[tpu_index])

    def shared_link_names(self) -> Tuple[str, ...]:
        """Names of links appearing in more than one path."""
        counts: Dict[str, int] = {}
        for path in self.paths:
            for name in path:
                counts[name] = counts.get(name, 0) + 1
        return tuple(name for name, count in counts.items() if count > 1)


#: USB 3.0 attachment characteristics for the Coral USB accelerator —
#: the alternative the paper's prototype deliberately avoids (§3.1:
#: PCIe allows "lower latency and better bandwidth compared to other
#: Edge TPU interconnect options, such as USB 3.0").
USB3_EFFECTIVE_BYTES_PER_SEC = 320e6
USB3_TRANSFER_LATENCY_SECONDS = 500e-6


def build_usb_topology(config: SystemConfig) -> Topology:
    """All Edge TPUs behind one shared USB 3.0 host controller.

    Two penalties relative to the §3.1 PCIe machine: a high fixed
    per-transfer latency (bulk-transfer protocol overhead) and a single
    shared bus, so concurrent transfers to different TPUs serialize.
    """
    topo = Topology()
    topo.links["usb-bus"] = Link(
        name="usb-bus",
        bytes_per_sec=USB3_EFFECTIVE_BYTES_PER_SEC,
        latency_seconds=USB3_TRANSFER_LATENCY_SECONDS,
    )
    for tpu in range(config.num_edge_tpus):
        leaf_name = f"usb-tpu{tpu}"
        topo.links[leaf_name] = Link(
            name=leaf_name,
            bytes_per_sec=USB3_EFFECTIVE_BYTES_PER_SEC,
            latency_seconds=0.0,
        )
        topo.paths.append(("usb-bus", leaf_name))
    return topo


def build_dual_module_topology(config: SystemConfig) -> Topology:
    """Dual-Edge-TPU M.2 modules: two TPUs share each single-lane slot.

    Table 6 prices the 8×-TPU system as "4x dual Edge TPU modules" —
    half the slots of the paper's quad-card machine, at the cost of two
    devices contending for each module's lane.  Useful for what-if
    studies of cheaper build-outs.
    """
    topo = Topology()
    upstream_rate = config.pcie_lane_bytes_per_sec * config.tpus_per_card
    leaf_spb = config.edgetpu.transfer_seconds_per_byte - 1.0 / upstream_rate
    if leaf_spb <= 0:
        raise ValueError("upstream PCIe slower than the measured end-to-end rate")
    num_modules = -(-config.num_edge_tpus // 2)
    topo.links["host-switch"] = Link(
        name="host-switch",
        bytes_per_sec=upstream_rate,
        latency_seconds=config.pcie_switch_latency_seconds,
    )
    for module in range(num_modules):
        mod_name = f"module{module}"
        # One single-lane segment per module, shared by its two TPUs.
        topo.links[mod_name] = Link(
            name=mod_name,
            bytes_per_sec=1.0 / leaf_spb,
            latency_seconds=config.edgetpu.transfer_setup_seconds,
        )
    for tpu in range(config.num_edge_tpus):
        topo.paths.append(("host-switch", f"module{tpu // 2}"))
    return topo


def build_prototype_topology(config: SystemConfig) -> Topology:
    """Build the paper's §3.1 machine: TPUs grouped 4-per-card.

    Each card's upstream slot carries ``tpus_per_card`` lanes (the QNAP
    card "evenly divides the PCIe lanes ... to four Edge TPUs"); each
    TPU hangs off the card switch on a single-lane segment whose
    effective rate is the measured 6 ms/MB end-to-end figure.
    """
    topo = Topology()
    upstream_rate = config.pcie_lane_bytes_per_sec * config.tpus_per_card
    # Calibrate the leaf so upstream + leaf reproduce the paper's
    # measured end-to-end 6 ms/MB (store-and-forward sums occupancies).
    leaf_spb = config.edgetpu.transfer_seconds_per_byte - 1.0 / upstream_rate
    if leaf_spb <= 0:
        raise ValueError("upstream PCIe slower than the measured end-to-end rate")
    leaf_rate = 1.0 / leaf_spb
    num_cards = -(-config.num_edge_tpus // config.tpus_per_card)  # ceil div
    for card in range(num_cards):
        up_name = f"host-card{card}"
        topo.links[up_name] = Link(
            name=up_name,
            bytes_per_sec=upstream_rate,
            latency_seconds=config.pcie_switch_latency_seconds,
        )
    for tpu in range(config.num_edge_tpus):
        card = tpu // config.tpus_per_card
        leaf_name = f"card{card}-tpu{tpu}"
        topo.links[leaf_name] = Link(
            name=leaf_name,
            bytes_per_sec=leaf_rate,
            latency_seconds=config.edgetpu.transfer_setup_seconds,
        )
        topo.paths.append((f"host-card{card}", leaf_name))
    return topo
