"""Unit and property tests for Fidge–Mattern vector clocks."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.events import VectorClock

clock_components = st.lists(st.integers(0, 20), min_size=1, max_size=6)


def clocks_same_dim(dim: int):
    return st.lists(st.integers(0, 20), min_size=dim, max_size=dim).map(
        VectorClock
    )


class TestConstruction:
    def test_zero(self):
        clock = VectorClock.zero(3)
        assert clock.components == (0, 0, 0)

    def test_zero_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            VectorClock.zero(0)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            VectorClock([1, -1])

    def test_components_coerced_to_int(self):
        assert VectorClock([1.0, 2.0]).components == (1, 2)

    def test_len_and_getitem(self):
        clock = VectorClock([3, 1, 4])
        assert len(clock) == 3
        assert clock[2] == 4

    def test_iteration(self):
        assert list(VectorClock([1, 2])) == [1, 2]


class TestOrder:
    def test_le_pointwise(self):
        assert VectorClock([1, 2]) <= VectorClock([1, 3])
        assert not VectorClock([2, 2]) <= VectorClock([1, 3])

    def test_lt_strict(self):
        assert VectorClock([1, 2]) < VectorClock([1, 3])
        assert not VectorClock([1, 2]) < VectorClock([1, 2])

    def test_concurrent(self):
        a, b = VectorClock([2, 0]), VectorClock([0, 2])
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)

    def test_not_concurrent_when_ordered(self):
        a, b = VectorClock([1, 1]), VectorClock([2, 2])
        assert not a.concurrent_with(b)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            VectorClock([1]) <= VectorClock([1, 2])

    def test_equality_and_hash(self):
        assert VectorClock([1, 2]) == VectorClock([1, 2])
        assert hash(VectorClock([1, 2])) == hash(VectorClock([1, 2]))
        assert VectorClock([1, 2]) != VectorClock([2, 1])

    def test_gt_ge(self):
        assert VectorClock([2, 3]) > VectorClock([1, 3])
        assert VectorClock([2, 3]) >= VectorClock([2, 3])


class TestDerivation:
    def test_merge_is_componentwise_max(self):
        merged = VectorClock([1, 5]).merge(VectorClock([3, 2]))
        assert merged.components == (3, 5)

    def test_tick_increments_only_own(self):
        ticked = VectorClock([1, 1]).tick(0)
        assert ticked.components == (2, 1)

    def test_tick_out_of_range(self):
        with pytest.raises(ValueError):
            VectorClock([1, 1]).tick(2)

    def test_join(self):
        joined = VectorClock.join(
            [VectorClock([1, 0]), VectorClock([0, 2]), VectorClock([1, 1])]
        )
        assert joined.components == (1, 2)

    def test_join_empty_raises(self):
        with pytest.raises(ValueError):
            VectorClock.join([])


class TestProperties:
    @given(clock_components)
    def test_le_reflexive(self, comps):
        clock = VectorClock(comps)
        assert clock <= clock
        assert not clock < clock

    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(clocks_same_dim(d), clocks_same_dim(d))))
    def test_antisymmetry(self, pair):
        a, b = pair
        if a <= b and b <= a:
            assert a == b

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                clocks_same_dim(d), clocks_same_dim(d), clocks_same_dim(d)
            )
        )
    )
    def test_transitivity(self, triple):
        a, b, c = triple
        if a <= b and b <= c:
            assert a <= c

    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(clocks_same_dim(d), clocks_same_dim(d))))
    def test_merge_is_least_upper_bound(self, pair):
        a, b = pair
        m = a.merge(b)
        assert a <= m and b <= m
        # No strictly smaller upper bound: decreasing any strictly positive
        # component of m below max(a,b) would violate one of the bounds.
        assert m == VectorClock(
            max(x, y) for x, y in zip(a.components, b.components)
        )

    @given(clock_components, st.data())
    def test_tick_strictly_increases(self, comps, data):
        clock = VectorClock(comps)
        p = data.draw(st.integers(0, len(comps) - 1))
        assert clock < clock.tick(p)

    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(clocks_same_dim(d), clocks_same_dim(d))))
    def test_exactly_one_relation(self, pair):
        a, b = pair
        relations = [a == b, a < b, b < a, a.concurrent_with(b)]
        assert sum(relations) == 1
