"""Hypothesis properties for the interconnect transfer model.

The sharding cost model leans on two facts about ``repro.interconnect``:
transfer cost is monotone (and additive-superlinear never) in bytes, and
transfers that share a lane serialize while disjoint lanes overlap.
These properties pin both for arbitrary sizes, not just the calibrated
1 MB examples in ``test_transfer.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.conformance.des import DMAEngine
from repro.conformance.des_kernel import Engine
from repro.interconnect import build_prototype_topology
from repro.sim.trace import Tracer

MB = 1024 * 1024

nbytes_st = st.integers(min_value=1, max_value=8 * MB)


def make_dma():
    eng = Engine()
    topo = build_prototype_topology(DEFAULT_CONFIG)
    return eng, DMAEngine(eng, topo, Tracer(), {})


def transfer_time(tpu, nbytes):
    eng, dma = make_dma()
    return eng.run_process(dma.transfer(tpu, nbytes))


def concurrent_time(plan):
    """Finish time of transfers launched together: [(tpu, nbytes), ...]."""
    eng, dma = make_dma()

    def run():
        procs = [eng.process(dma.transfer(tpu, n)) for tpu, n in plan]
        for proc in procs:
            yield proc
        return eng.now

    return eng.run_process(run())


class TestTransferCostMonotonicity:
    @given(nbytes_st, nbytes_st)
    @settings(max_examples=40, deadline=None)
    def test_cost_is_monotone_in_bytes(self, a, b):
        small, large = sorted((a, b))
        t_small = transfer_time(0, small)
        t_large = transfer_time(0, large)
        assert t_small <= t_large
        if large > small:
            assert t_large > 0.0

    @given(nbytes_st)
    @settings(max_examples=25, deadline=None)
    def test_link_occupancy_is_monotone_and_positive(self, nbytes):
        topo = build_prototype_topology(DEFAULT_CONFIG)
        for link in topo.links.values():
            occ = link.occupancy_seconds(nbytes)
            assert occ > 0.0
            assert link.occupancy_seconds(2 * nbytes) > occ

    @given(nbytes_st)
    @settings(max_examples=25, deadline=None)
    def test_every_device_path_is_priced_identically_per_card(self, nbytes):
        # The prototype's cards are symmetric: the solo transfer price
        # must not depend on which device the bytes target.
        times = {transfer_time(t, nbytes) for t in (0, 3, 4, 7)}
        assert max(times) - min(times) <= 1e-12


class TestSharedLaneSerialization:
    @given(st.integers(min_value=MB // 4, max_value=2 * MB))
    @settings(max_examples=15, deadline=None)
    def test_same_device_transfers_serialize(self, nbytes):
        solo = transfer_time(0, nbytes)
        pair = concurrent_time([(0, nbytes), (0, nbytes)])
        # The leaf lane is exclusive: two transfers can never beat ~2x
        # one, minus only the store-and-forward upstream overlap.
        assert pair > 1.5 * solo

    @given(st.integers(min_value=MB // 4, max_value=2 * MB))
    @settings(max_examples=15, deadline=None)
    def test_cross_card_transfers_fully_overlap(self, nbytes):
        solo = transfer_time(0, nbytes)
        pair = concurrent_time([(0, nbytes), (4, nbytes)])
        assert pair == pytest.approx(solo, rel=0.05)

    @given(st.integers(min_value=MB // 4, max_value=2 * MB))
    @settings(max_examples=15, deadline=None)
    def test_shared_lane_never_beats_disjoint_lanes(self, nbytes):
        same_card = concurrent_time([(0, nbytes), (1, nbytes)])
        cross_card = concurrent_time([(0, nbytes), (4, nbytes)])
        # Sharing the upstream lane can only add queueing, never help —
        # the inequality the planner's card-interleaving relies on.
        assert same_card >= cross_card

    def test_contention_grows_with_lane_population(self):
        # Saturating one card's shared upstream with all four leaves is
        # slower than spreading the same eight transfers over two cards.
        one_card = concurrent_time([(i % 4, MB) for i in range(8)])
        two_cards = concurrent_time([(i % 8, MB) for i in range(8)])
        assert one_card > two_cards
