"""The replay order of the failed LSC's host at an ``lsc_fail`` barrier.

:func:`repro.parallel.worker.failover_replay_order` splits the events
before the barrier into the failed LSC's own and the rest; the host
replays the first part, evicts and acks, then replays the second.  The
properties below are what make that legal: nothing is lost or invented,
every LSC sees its own events in schedule order, and nothing of another
LSC runs before the eviction.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import event_sort_key
from repro.parallel.worker import failover_replay_order
from repro.traces.workload import ViewerEvent

KINDS = ("join", "view_change", "depart", "fail")


@st.composite
def segments(draw):
    """A schedule segment in replay order, each viewer owned by one LSC."""
    num_lscs = draw(st.integers(min_value=1, max_value=5))
    num_viewers = draw(st.integers(min_value=1, max_value=12))
    owner = {
        f"viewer-{index:05d}": draw(st.integers(min_value=0, max_value=num_lscs - 1))
        for index in range(num_viewers)
    }
    events = draw(
        st.lists(
            st.builds(
                ViewerEvent,
                time=st.integers(min_value=0, max_value=20).map(float),
                kind=st.sampled_from(KINDS),
                viewer_id=st.sampled_from(sorted(owner)),
                view_index=st.integers(min_value=0, max_value=3),
            ),
            max_size=60,
        )
    )
    events.sort(key=event_sort_key)
    failed = draw(st.integers(min_value=0, max_value=num_lscs - 1))
    return events, owner, failed


@settings(max_examples=300, deadline=None)
@given(segments())
def test_the_failed_lsc_replays_first_and_every_lsc_keeps_its_order(case):
    events, owner, failed = case

    def lsc_of(event):
        return owner[event.viewer_id]

    barrier = ViewerEvent(time=20.0, kind="lsc_fail", viewer_id=f"LSC-{failed}")
    failed_first, others = failover_replay_order(events, failed, lsc_of)
    order = [*failed_first, barrier, *others]
    # A permutation of the input: the same event objects, each once.
    assert sorted(map(id, order)) == sorted(map(id, [*events, barrier]))
    # Every LSC's own subsequence is the schedule's.
    for lsc in sorted(set(owner.values())):
        assert [e for e in order if e is not barrier and lsc_of(e) == lsc] == [
            e for e in events if lsc_of(e) == lsc
        ]
    # The failed LSC's events, then its lsc_fail, then everyone else's.
    cut = order.index(barrier)
    assert all(lsc_of(e) == failed for e in order[:cut])
    assert all(lsc_of(e) != failed for e in order[cut + 1 :])


def test_a_worker_without_the_failed_lsc_keeps_the_segment_whole():
    events = [
        ViewerEvent(time=1.0, kind="join", viewer_id="viewer-00001"),
        ViewerEvent(time=2.0, kind="join", viewer_id="viewer-00000"),
    ]
    failed_first, others = failover_replay_order(events, 3, lambda event: 0)
    assert failed_first == []
    assert others == events
