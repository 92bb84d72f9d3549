"""Tests for inbound / outbound bandwidth allocation (Section IV-B1)."""

import pytest

from reference_oracles import priority_monotonic
from repro.core.bandwidth import (
    allocate_inbound,
    allocate_outbound,
    allocate_outbound_equal_split,
    allocate_outbound_priority_only,
)


def full_supply(view, value=1000.0):
    return {stream_id: value for stream_id in view.stream_ids}


class TestInboundAllocation:
    def test_all_streams_accepted_with_ample_resources(self, default_view):
        result = allocate_inbound(default_view, 12.0, full_supply(default_view))
        assert result.request_accepted
        assert len(result.accepted) == 6
        assert result.rejected == ()
        assert result.allocated_inbound_mbps == pytest.approx(12.0)

    def test_priority_prefix_when_inbound_is_short(self, default_view):
        result = allocate_inbound(default_view, 8.0, full_supply(default_view))
        assert result.request_accepted
        assert len(result.accepted) == 4
        assert len(result.rejected) == 2
        # The accepted set is exactly the highest-priority prefix.
        assert result.accepted_stream_ids == default_view.stream_ids[:4]

    def test_supply_shortage_cuts_lower_priority_streams(self, default_view):
        supply = full_supply(default_view)
        third = default_view.stream_ids[2]
        supply[third] = 0.0
        result = allocate_inbound(default_view, 12.0, supply)
        assert result.request_accepted
        # The cut is a prefix: everything from the first unsupplied stream on
        # is removed even if later streams have supply.
        assert len(result.accepted) == 2
        assert third not in result.accepted_stream_ids

    def test_rejected_when_top_priority_stream_unsupplied(self, default_view):
        supply = full_supply(default_view)
        supply[default_view.stream_ids[0]] = 0.0
        result = allocate_inbound(default_view, 12.0, supply)
        assert not result.request_accepted
        assert result.accepted == ()

    def test_rejected_when_second_site_top_stream_unsupplied(self, default_view):
        supply = full_supply(default_view)
        supply[default_view.stream_ids[1]] = 0.0
        result = allocate_inbound(default_view, 12.0, supply)
        assert not result.request_accepted

    def test_rejected_when_inbound_below_one_stream_per_site(self, default_view):
        result = allocate_inbound(default_view, 2.0, full_supply(default_view))
        assert not result.request_accepted
        assert len(result.accepted) == 1

    def test_missing_supply_entries_treated_as_zero(self, default_view):
        result = allocate_inbound(default_view, 12.0, {})
        assert not result.request_accepted

    def test_negative_inbound_rejected(self, default_view):
        with pytest.raises(ValueError):
            allocate_inbound(default_view, -1.0, full_supply(default_view))

    def test_accepted_bound_by_site_count(self, default_view):
        result = allocate_inbound(default_view, 4.0, full_supply(default_view))
        # With 4 Mbps the viewer can take exactly one stream per site.
        assert result.request_accepted
        assert len(result.accepted) == default_view.site_count


class TestOutboundAllocation:
    def test_round_robin_spreads_in_priority_order(self, default_view):
        accepted = default_view.prioritized_streams
        allocation = allocate_outbound(accepted, 10.0)
        degrees = [allocation.out_degree[e.stream_id] for e in accepted]
        assert degrees == [1, 1, 1, 1, 1, 0]
        assert sum(allocation.per_stream_mbps.values()) == pytest.approx(10.0)
        assert allocation.leftover_mbps == pytest.approx(0.0)

    def test_second_round_gives_extra_to_top_priority(self, default_view):
        accepted = default_view.prioritized_streams
        allocation = allocate_outbound(accepted, 14.0)
        degrees = [allocation.out_degree[e.stream_id] for e in accepted]
        assert degrees == [2, 1, 1, 1, 1, 1]

    def test_zero_capacity_allocates_nothing(self, default_view):
        allocation = allocate_outbound(default_view.prioritized_streams, 0.0)
        assert allocation.total_out_degree == 0
        assert sum(allocation.per_stream_mbps.values()) == 0.0

    def test_leftover_below_one_bin(self, default_view):
        allocation = allocate_outbound(default_view.prioritized_streams, 3.0)
        assert allocation.total_out_degree == 1
        assert allocation.leftover_mbps == pytest.approx(1.0)

    def test_empty_accepted_list(self):
        allocation = allocate_outbound([], 10.0)
        assert allocation.total_out_degree == 0
        assert allocation.leftover_mbps == 10.0

    def test_priority_monotonicity_invariant(self, default_view):
        accepted = default_view.prioritized_streams
        for capacity in (0.0, 2.0, 5.0, 7.0, 9.0, 13.0, 25.0):
            allocation = allocate_outbound(accepted, capacity)
            assert priority_monotonic(accepted, allocation)

    def test_negative_capacity_rejected(self, default_view):
        with pytest.raises(ValueError):
            allocate_outbound(default_view.prioritized_streams, -2.0)


class TestAblationPolicies:
    def test_priority_only_concentrates_on_top_stream(self, default_view):
        accepted = default_view.prioritized_streams
        allocation = allocate_outbound_priority_only(accepted, 10.0)
        assert allocation.out_degree[accepted[0].stream_id] == 5
        assert sum(allocation.out_degree.values()) == 5

    def test_equal_split_gives_same_share_to_all(self, default_view):
        accepted = default_view.prioritized_streams
        allocation = allocate_outbound_equal_split(accepted, 24.0)
        assert set(allocation.out_degree.values()) == {2}

    def test_equal_split_wastes_sub_bin_shares(self, default_view):
        accepted = default_view.prioritized_streams
        allocation = allocate_outbound_equal_split(accepted, 10.0)
        # 10/6 Mbps per stream is below one 2 Mbps bin, so nothing is usable.
        assert allocation.total_out_degree == 0

    def test_round_robin_dominates_equal_split_in_usable_slots(self, default_view):
        accepted = default_view.prioritized_streams
        for capacity in (4.0, 8.0, 10.0, 14.0):
            rr = allocate_outbound(accepted, capacity)
            eq = allocate_outbound_equal_split(accepted, capacity)
            assert rr.total_out_degree >= eq.total_out_degree
