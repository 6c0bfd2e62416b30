"""Property tests: fault injection never breaks causal consistency.

Whatever the fault plan does — drop, duplicate, delay, sever, crash,
restart — the recorded computation must remain a *valid distributed
computation*: a Fidge–Mattern relabeling computed naively from the raw
process sequences and message edges must agree with the clocks the
:class:`~repro.computation.Computation` assigns, and every trace must
survive a JSON round trip bit for bit.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.computation import ComputationBuilder, some_linearization
from repro.events import VectorClock
from repro.simulation import CrashSpec, DelaySpike, FaultPlan
from repro.simulation.protocols import build_lock_scenario, build_token_ring
from repro.trace import (
    computation_from_dict,
    computation_to_dict,
    random_computation,
)


def naive_clocks(comp):
    """Recompute Fidge–Mattern clocks from first principles.

    Processes events along a linearization, carrying one running clock per
    process (started at all-ones so non-initial events dominate every
    initial event) and merging in the sender's clock at each receive —
    independent of the Kahn pass inside :class:`Computation`.
    """
    n = comp.num_processes
    running = [VectorClock((1,) * n) for _ in range(n)]
    clocks = {}
    for p in range(n):
        clocks[(p, 0)] = VectorClock(1 if j == p else 0 for j in range(n))
    sources = {}
    for send, recv in comp.messages:
        sources.setdefault(recv, []).append(send)
    for eid in some_linearization(comp):
        p = eid[0]
        clk = running[p]
        for src in sources.get(eid, ()):
            clk = clk.merge(clocks[src])
        clk = clk.tick(p)
        clocks[eid] = clk
        running[p] = clk
    return clocks


def assert_causally_consistent(comp):
    clocks = naive_clocks(comp)
    for event in comp.all_events(include_initial=True):
        assert comp.clock(event.event_id) == clocks[event.event_id]
        if event.index > 0:
            # Own component counts own events including the initial one.
            assert comp.clock(event.event_id)[event.process] == event.index + 1
    for send, recv in comp.messages:
        assert comp.happened_before(send, recv)


def assert_roundtrips(comp):
    payload = computation_to_dict(comp)
    blob = json.dumps(payload, sort_keys=True)
    restored = computation_from_dict(json.loads(blob))
    assert json.dumps(computation_to_dict(restored), sort_keys=True) == blob


@st.composite
def multi_receive_computations(draw):
    """Builder-made computations whose receive and send-receive events
    consume any subset of the messages pending for their process."""
    n = draw(st.integers(2, 4))
    builder = ComputationBuilder(n)
    pending = [[] for _ in range(n)]  # send ids addressed to each process
    for _ in range(draw(st.integers(0, 16))):
        p = draw(st.integers(0, n - 1))
        sends = draw(st.booleans())
        taken = [src for src in pending[p] if draw(st.booleans())]
        if taken and sends:
            eid = builder.send_receive(p)
        elif taken:
            eid = builder.receive(p)
        elif sends:
            eid = builder.send(p)
        else:
            eid = builder.internal(p)
        for src in taken:
            builder.message(src, eid)
            pending[p].remove(src)
        if sends:
            q = draw(st.integers(0, n - 2))
            pending[q + (q >= p)].append(eid)
    return builder.build()


plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**20),
    message_loss=st.floats(0.0, 0.9),
    message_duplication=st.floats(0.0, 0.9),
    delay_spike=st.one_of(
        st.none(),
        st.builds(
            DelaySpike,
            probability=st.floats(0.0, 1.0),
            extra_min=st.floats(0.0, 2.0),
            extra_max=st.floats(2.0, 30.0),
        ),
    ),
)


class TestClockPassMatchesReference:
    """The clock pass against the naive relabeling on non-simulator shapes."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(0, 6),
        st.floats(0.0, 0.9),
        st.integers(0, 100_000),
    )
    def test_random_computations(self, n, events, density, seed):
        assert_causally_consistent(
            random_computation(n, events, density, seed=seed)
        )

    @settings(max_examples=60, deadline=None)
    @given(multi_receive_computations())
    def test_multi_receive_builder_computations(self, comp):
        assert_causally_consistent(comp)


class TestLossDuplicationConsistency:
    @settings(max_examples=30, deadline=None)
    @given(plans, st.integers(0, 1000))
    def test_token_ring_stays_causally_consistent(self, plan, seed):
        comp = build_token_ring(4, hops=8, seed=seed, faults=plan)
        assert_causally_consistent(comp)
        assert_roundtrips(comp)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000), st.floats(0.0, 0.8))
    def test_lock_scenario_with_crashes(self, seed, loss):
        plan = FaultPlan(
            seed=seed,
            message_loss=loss,
            crashes=(
                CrashSpec(process=2, at=3.0),
                CrashSpec(process=0, at=4.0, restart_at=7.0),
            ),
        )
        comp = build_lock_scenario(
            consistent_order=True, seed=seed, faults=plan
        )
        assert_causally_consistent(comp)
        assert_roundtrips(comp)
        # Whatever happened, the plan itself is preserved verbatim.
        assert comp.meta["faults"]["plan"] == plan.to_dict()
