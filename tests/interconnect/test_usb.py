"""Tests for the USB 3.0 attachment alternative (§3.1's rejected option)."""

import pytest

from repro.config import SystemConfig
from repro.conformance.des import DMAEngine
from repro.conformance.des_kernel import Engine
from repro.host.platform import Platform
from repro.interconnect import build_prototype_topology, build_usb_topology
from repro.sim.trace import Tracer

MB = 1024 * 1024


def test_usb_topology_shares_one_bus():
    topo = build_usb_topology(SystemConfig().with_tpus(4))
    assert topo.num_tpus == 4
    assert topo.shared_link_names() == ("usb-bus",)


def test_usb_transfer_slower_than_pcie():
    config = SystemConfig().with_tpus(1)
    pcie = build_prototype_topology(config)
    usb = build_usb_topology(config)
    pcie_t = sum(l.occupancy_seconds(MB) for l in pcie.path_links(0))
    usb_t = sum(l.occupancy_seconds(MB) for l in usb.path_links(0))
    # "lower latency and better bandwidth compared to ... USB 3.0" (§3.1)
    assert pcie_t < usb_t


def test_usb_concurrent_transfers_serialize_on_the_bus():
    eng = Engine()
    dma = DMAEngine(eng, build_usb_topology(SystemConfig().with_tpus(2)), Tracer(), {})

    def both():
        p1 = eng.process(dma.transfer(0, MB))
        p2 = eng.process(dma.transfer(1, MB))
        yield p1
        yield p2
        return eng.now

    total = eng.run_process(both())
    single = MB / 320e6 + 500e-6
    # Two transfers take nearly twice one (shared bus), unlike PCIe cards.
    assert total > 1.7 * single


def test_usb_fixed_latency_dominates_small_transfers():
    eng = Engine()
    dma = DMAEngine(eng, build_usb_topology(SystemConfig().with_tpus(1)), Tracer(), {})
    t = eng.run_process(dma.transfer(0, 128))
    assert t == pytest.approx(500e-6, rel=0.1)


def test_platform_selects_usb_topology():
    config = SystemConfig().with_tpus(2).with_interconnect("usb")
    platform = Platform(config)
    assert "usb-bus" in platform.topology.links


def test_unknown_interconnect_rejected():
    with pytest.raises(ValueError, match="unknown interconnect"):
        SystemConfig().with_interconnect("carrier-pigeon")


def test_usb_machine_slower_end_to_end():
    """A transfer-heavy app (HotSpot3D) pays for the USB attachment."""
    from repro.bench.harness import run_app

    params = {"n": 192, "layers": 2, "iterations": 2}
    pcie = run_app("hotspot3d", params=params)
    usb = run_app("hotspot3d", params=params,
                  config=SystemConfig().with_interconnect("usb"))
    assert usb.gptpu.wall_seconds > pcie.gptpu.wall_seconds * 1.3


def test_platform_selects_dual_topology():
    config = SystemConfig().with_tpus(4).with_interconnect("dual")
    platform = Platform(config)
    assert "host-switch" in platform.topology.links
    assert platform.topology.num_tpus == 4


def test_dual_machine_slower_under_parallel_load():
    """Fig.8-style parallel work pays for sharing module lanes."""
    from repro.bench.harness import run_app

    params = {"n": 512}
    quad = run_app("gemm", num_tpus=8, params=params)
    dual = run_app("gemm", num_tpus=8, params=params,
                   config=SystemConfig().with_interconnect("dual"))
    assert dual.gptpu.wall_seconds >= quad.gptpu.wall_seconds * 0.99
