"""Property tests: shed ordering and exactly-once delivery under load.

Seeded hypothesis sweeps over (a) arbitrary overload-governor histories
and (b) whole sustained open-loop runs, checking the invariants the ISSUE
pins: sheds are strictly lowest-tier-first, gold is never shed while
bronze queues, and preemption never double-delivers a request.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen import SustainedSpec, run_sustained
from repro.serve.slo import OverloadController, SloPolicy

_OBSERVATION = st.tuples(
    st.integers(min_value=0, max_value=120),  # queue depth (capacity 100)
    st.integers(min_value=0, max_value=16),   # deadline misses this turn
    st.integers(min_value=0, max_value=16),   # requests drained this turn
)


class TestShedOrderingProperties:
    @given(history=st.lists(_OBSERVATION, min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_shedding_is_monotone_worst_tier_first(self, history):
        """At every point in any load history: if a tier is shed, every
        strictly worse tier is shed too, and gold is never shed."""
        policy = SloPolicy()
        ctl = OverloadController(policy, capacity=100)
        for depth, misses, drained in history:
            ctl.observe(depth=depth, misses=misses, drained=drained)
            assert not ctl.should_shed(0, False)  # gold: never
            if ctl.should_shed(1, True):          # silver shed =>
                assert ctl.should_shed(2, True)   # bronze shed first
            floor = ctl.shed_floor()
            if floor is not None:
                # The floor only ever names a sheddable tier.
                assert floor in policy.sheddable_priorities()

    @given(history=st.lists(_OBSERVATION, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_level_moves_one_step_down_at_most(self, history):
        """Escalation may jump; release decays one level per calm turn —
        the hysteresis that stops shed/admit flapping."""
        ctl = OverloadController(SloPolicy(), capacity=100)
        previous = 0
        for depth, misses, drained in history:
            level = ctl.observe(depth=depth, misses=misses, drained=drained)
            assert level >= previous - 1
            previous = level


class TestSustainedRunProperties:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None)
    def test_overloaded_run_never_double_delivers(self, seed):
        """3x overload with preemption armed: the delivery event log shows
        each request delivered at most once, nothing is lost, and any shed
        happened at or below the governor's floor at shed time."""
        result = run_sustained(
            SustainedSpec(
                requests=180, rate=240.0, seed=seed, burst=16, ticks=1
            )
        )
        # run_sustained audits the observer event log for duplicate
        # delivers, lost requests, unresolved futures and out-of-order
        # sheds; any breach lands in .violations.
        assert result.violations == []

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=4, deadline=None)
    def test_gold_never_shed_while_bronze_queued(self, seed):
        result = run_sustained(
            SustainedSpec(
                requests=220, rate=300.0, seed=seed, burst=24, ticks=1
            )
        )
        assert result.tier_table["gold"]["shed"] == 0
        if result.tier_table["silver"]["shed"]:
            assert result.tier_table["bronze"]["shed"] > 0
