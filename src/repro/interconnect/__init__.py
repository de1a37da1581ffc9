"""PCIe interconnect model for the GPTPU prototype machine (paper §3.1).

The prototype attaches 8× M.2 Edge TPUs through custom quad-TPU PCIe
expansion cards (Fig. 1): each card holds four M.2 slots behind a PCIe
switch, and each Edge TPU occupies a single PCIe 2.0 lane.  Every TPU
reaches the CPU with exactly one switch hop in the middle.

The model reproduces the two facts the paper's evaluation depends on:

* the measured end-to-end host→device rate of ≈6 ms/MB (§3.2), and
* contention: transfers to TPUs on the same card share the card's
  upstream link.

The runtime executor (:mod:`repro.runtime.executor`) moves bytes over
these links; the DES reference's transfer process is
:class:`repro.conformance.des.DMAEngine`.
"""

from repro.interconnect.pcie import Link
from repro.interconnect.topology import (
    Topology,
    build_prototype_topology,
    build_usb_topology,
)

__all__ = [
    "Link",
    "Topology",
    "build_prototype_topology",
    "build_usb_topology",
]
