"""Tests for synthetic address streams."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.address_streams import (
    HotColdStream,
    RandomStream,
    StackStream,
    StridedStream,
)


def drain(stream, n, seed=0):
    rng = random.Random(seed)
    return [stream.next_address(rng) for _ in range(n)]


class TestStrided:
    def test_walks_by_stride(self):
        s = StridedStream(base=0x1000, stride=8, length=64)
        assert drain(s, 4) == [0x1000, 0x1008, 0x1010, 0x1018]

    def test_wraps_at_length(self):
        s = StridedStream(base=0x1000, stride=16, length=32)
        addrs = drain(s, 4)
        assert addrs == [0x1000, 0x1010, 0x1000, 0x1010]

    def test_reset(self):
        s = StridedStream(base=0, stride=8, length=1024)
        first = drain(s, 5)
        s.reset()
        assert drain(s, 5) == first

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError):
            StridedStream(0, stride=0)

    def test_alignment(self):
        s = StridedStream(base=0x1001, stride=4, length=64)
        assert all(a % 8 == 0 for a in drain(s, 10))


class TestRandom:
    def test_stays_in_region(self):
        s = RandomStream(base=0x2000, size=0x100)
        for a in drain(s, 200):
            assert 0x2000 <= a < 0x2100

    def test_deterministic_with_seed(self):
        s = RandomStream(0, 1 << 20)
        assert drain(s, 10, seed=3) == drain(s, 10, seed=3)


class TestHotCold:
    def test_hot_fraction_respected(self):
        s = HotColdStream(base=0, hot_size=4096, cold_size=1 << 20, hot_fraction=0.9)
        addrs = drain(s, 5000, seed=1)
        hot = sum(1 for a in addrs if a < 4096)
        assert 0.85 < hot / len(addrs) < 0.95

    def test_cold_region_disjoint_from_hot(self):
        s = HotColdStream(base=0, hot_size=4096, cold_size=1 << 16, hot_fraction=0.0)
        assert all(a >= 4096 for a in drain(s, 100))


class TestFixedAndStack:
    def test_stack_within_frame(self):
        s = StackStream(base=0x7000, frame_size=256)
        for a in drain(s, 100):
            assert 0x7000 <= a < 0x7100


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 1 << 30),
    st.integers(1, 512),
    st.integers(1, 1 << 16),
)
def test_property_strided_stays_in_bounds(base, stride, length):
    s = StridedStream(base=base, stride=stride, length=length)
    rng = random.Random(0)
    for _ in range(50):
        a = s.next_address(rng)
        assert (base & ~0x7) <= a < base + length
        assert a % 8 == 0
