"""Tests for the PCIe link and topology models (paper §3.1)."""

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.interconnect import Link, build_prototype_topology


class TestLink:
    def test_occupancy_combines_latency_and_serialization(self):
        link = Link("l", bytes_per_sec=100.0, latency_seconds=0.5)
        assert link.occupancy_seconds(200) == pytest.approx(2.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Link("l", bytes_per_sec=0.0)
        with pytest.raises(ValueError):
            Link("l", bytes_per_sec=1.0, latency_seconds=-1.0)
        with pytest.raises(ValueError):
            Link("l", bytes_per_sec=1.0).occupancy_seconds(-1)


class TestPrototypeTopology:
    def test_eight_tpus_on_two_quad_cards(self):
        topo = build_prototype_topology(DEFAULT_CONFIG)
        assert topo.num_tpus == 8
        # 2 upstream card links + 8 leaf links.
        assert len(topo.links) == 10

    def test_every_tpu_is_one_switch_hop_from_host(self):
        # §3.1: "each Edge TPU connects to the processor with just one
        # hop (i.e., the PCIe switch) in the middle" — host segment +
        # leaf segment.
        topo = build_prototype_topology(DEFAULT_CONFIG)
        for tpu in range(topo.num_tpus):
            assert len(topo.paths[tpu]) == 2

    def test_card_upstream_links_are_shared(self):
        topo = build_prototype_topology(DEFAULT_CONFIG)
        assert set(topo.shared_link_names()) == {"host-card0", "host-card1"}

    def test_tpus_grouped_four_per_card(self):
        topo = build_prototype_topology(DEFAULT_CONFIG)
        card_of = [topo.paths[i][0] for i in range(8)]
        assert card_of[:4] == ["host-card0"] * 4
        assert card_of[4:] == ["host-card1"] * 4

    def test_path_occupancy_matches_measured_6ms_per_mb(self):
        # §3.2's 6 ms/MB is end to end: upstream + leaf occupancies.
        topo = build_prototype_topology(DEFAULT_CONFIG)
        total = sum(l.occupancy_seconds(1024 * 1024) for l in topo.path_links(0))
        assert total == pytest.approx(6e-3, rel=0.05)

    def test_upstream_faster_than_four_leaves_combined(self):
        # The quad-card's upstream carries 4 lanes, so four concurrent
        # transfers are not bottlenecked upstream.
        topo = build_prototype_topology(DEFAULT_CONFIG)
        upstream = topo.links["host-card0"]
        leaf = topo.links["card0-tpu0"]
        assert upstream.bytes_per_sec > 4 * leaf.bytes_per_sec

    def test_partial_card_topology(self):
        topo = build_prototype_topology(SystemConfig().with_tpus(6))
        assert topo.num_tpus == 6
        assert set(topo.shared_link_names()) == {"host-card0", "host-card1"}

    def test_single_tpu_topology(self):
        topo = build_prototype_topology(SystemConfig().with_tpus(1))
        assert topo.num_tpus == 1
        assert topo.shared_link_names() == ()

    def test_unknown_tpu_index_raises(self):
        topo = build_prototype_topology(DEFAULT_CONFIG)
        with pytest.raises(IndexError):
            topo.path_links(99)

    def test_with_tpus_validates(self):
        with pytest.raises(ValueError):
            SystemConfig().with_tpus(0)


class TestDualModuleTopology:
    def test_two_tpus_per_module(self):
        from repro.interconnect.topology import build_dual_module_topology

        topo = build_dual_module_topology(DEFAULT_CONFIG)
        assert topo.num_tpus == 8
        # 1 host switch + 4 dual modules.
        assert len(topo.links) == 5
        shared = set(topo.shared_link_names())
        assert "host-switch" in shared
        assert {f"module{i}" for i in range(4)} <= shared

    def test_module_mates_share_a_segment(self):
        from repro.interconnect.topology import build_dual_module_topology

        topo = build_dual_module_topology(DEFAULT_CONFIG)
        assert topo.paths[0][-1] == topo.paths[1][-1]
        assert topo.paths[0][-1] != topo.paths[2][-1]

    def test_single_transfer_rate_matches_prototype(self):
        from repro.interconnect.topology import build_dual_module_topology

        topo = build_dual_module_topology(DEFAULT_CONFIG)
        total = sum(l.occupancy_seconds(1024 * 1024) for l in topo.path_links(0))
        assert total == pytest.approx(6e-3, rel=0.05)

    def test_module_mates_contend(self):
        from repro.interconnect.topology import build_dual_module_topology
        from repro.conformance.des import DMAEngine
        from repro.conformance.des_kernel import Engine
        from repro.sim.trace import Tracer

        eng = Engine()
        dma = DMAEngine(eng, build_dual_module_topology(DEFAULT_CONFIG), Tracer(), {})

        def both(first, second):
            p1 = eng.process(dma.transfer(first, 1024 * 1024))
            p2 = eng.process(dma.transfer(second, 1024 * 1024))
            yield p1
            yield p2
            return eng.now

        # Mates (0, 1) serialize on their module's lane...
        mates = eng.run_process(both(0, 1))
        eng2 = Engine()
        dma2 = DMAEngine(eng2, build_dual_module_topology(DEFAULT_CONFIG), Tracer(), {})

        def strangers():
            p1 = eng2.process(dma2.transfer(0, 1024 * 1024))
            p2 = eng2.process(dma2.transfer(2, 1024 * 1024))
            yield p1
            yield p2
            return eng2.now

        apart = eng2.run_process(strangers())
        # ...while TPUs on different modules run (nearly) in parallel.
        assert mates > apart * 1.5
