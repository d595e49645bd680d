"""Tests for operand/result transfer buffers."""

import pytest

from repro.uarch.buffers import TransferBuffer


class TestAllocation:
    def test_capacity_respected(self):
        buf = TransferBuffer(2, "t")
        buf.allocate(1, 0)
        buf.allocate(2, 0)
        assert buf.is_full
        with pytest.raises(RuntimeError):
            buf.allocate(3, 0)

    def test_occupancy_and_peak(self):
        buf = TransferBuffer(4, "t")
        buf.allocate(1, 0)
        buf.allocate(2, 0)
        assert buf.occupancy == 2
        assert buf.stats.peak_occupancy == 2
        buf.free_at(1, 0)
        buf.tick(0)
        assert buf.occupancy == 1
        assert buf.stats.peak_occupancy == 2

    def test_allocations_counted(self):
        buf = TransferBuffer(4, "t")
        buf.allocate(1, 0)
        buf.allocate(2, 0)
        assert buf.stats.allocations == 2


class TestScheduledFree:
    def test_free_at_releases_on_tick(self):
        buf = TransferBuffer(1, "t")
        buf.allocate(5, 0)
        buf.free_at(5, 3)
        buf.tick(2)
        assert buf.is_full
        buf.tick(3)
        assert not buf.is_full

    def test_tick_catches_up_after_skip(self):
        """Cycle-skipping simulators may tick with a jump."""
        buf = TransferBuffer(2, "t")
        buf.allocate(1, 0)
        buf.allocate(2, 0)
        buf.free_at(1, 3)
        buf.free_at(2, 5)
        buf.tick(10)
        assert buf.occupancy == 0


class TestSquash:
    def test_squash_younger_drops_entries(self):
        buf = TransferBuffer(4, "t")
        for seq in (1, 5, 9):
            buf.allocate(seq, 0)
        buf.squash_younger(5)
        assert set(buf.entries) == {1, 5}

    def test_squash_cancels_pending_frees_of_young(self):
        buf = TransferBuffer(4, "t")
        buf.allocate(1, 0)
        buf.allocate(9, 0)
        buf.free_at(9, 7)
        buf.squash_younger(5)
        buf.allocate(9, 8)  # re-dispatched after replay
        buf.tick(7)
        assert 9 in buf.entries  # the stale free must not fire
