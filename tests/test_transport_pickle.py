"""Pickle/queue round-trip coverage for every transport message type.

The shard-parallel engine moves :class:`~repro.sim.transport.ControlMessage`
records across real process boundaries (multiprocessing queues pickle on
``put`` and unpickle on ``get``), so every message type must survive the
round trip byte-identically -- equal fields, same type, and a re-pickle
of the reconstructed object must reproduce the original bytes.  The
enumeration is programmatic over the ``ControlMessage`` subclass tree,
so adding a message type without a sample here fails the suite instead
of failing inside a worker process.

The second half pins the tuple-backed control-plane ids (``StreamId``,
``MatchField``) and the slotted ``TreeNode``, which cross the same
boundaries inside shard results and service snapshots.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.dataplane import DeliveryRecord
from repro.core.routing_table import MatchField
from repro.core.topology import StreamTree
from repro.model.stream import Stream, StreamId
from repro.net.latency import DelayModel, LatencyMatrix
from repro.sim import transport
from repro.sim.transport import (
    ControlMessage,
    DepartNotice,
    FailureNotice,
    Heartbeat,
    JoinAck,
    JoinRequest,
    RepairNotify,
    ShardBarrierAck,
    ShardError,
    ShardReady,
    ShardResult,
    ShardResume,
    ViewChange,
    ViewChangeAck,
)

_COMMON = {"src": "node-a", "dst": "node-b", "sent_at": 12.5}

#: One representative instance per concrete message type, exercising the
#: non-default fields (tuples populated, bytes non-empty).
SAMPLES = [
    JoinRequest(**_COMMON, viewer_id="viewer-00001", view_index=3),
    JoinAck(**_COMMON, viewer_id="viewer-00001", accepted=True),
    ViewChange(**_COMMON, viewer_id="viewer-00002", view_index=1),
    ViewChangeAck(**_COMMON, viewer_id="viewer-00002", accepted=False),
    Heartbeat(**_COMMON, viewer_id="viewer-00003"),
    DepartNotice(**_COMMON, viewer_id="viewer-00004"),
    FailureNotice(**_COMMON, viewer_id="viewer-00005"),
    RepairNotify(**_COMMON, viewer_id="viewer-00006"),
    ShardReady(**_COMMON, shard_index=1, lsc_ids=("LSC-1", "LSC-3")),
    ShardBarrierAck(
        **_COMMON,
        shard_index=0,
        failed_lsc_id="LSC-1",
        target_lsc_id="LSC-0",
        sessions=(("viewer-00001", "view-0", 0.5), ("viewer-00002", "view-1", 1.0)),
    ),
    ShardResume(
        **_COMMON,
        sessions=(("viewer-00001", "view-0", 0.5),),
    ),
    ShardResult(
        **_COMMON,
        shard_index=1,
        final_clock=300.0,
        payload=b"\x00\x01frame",
        stats=(("busy_s", 1.25), ("events", 40)),
    ),
    ShardError(**_COMMON, shard_index=2, error="Traceback: boom"),
]


def _concrete_control_message_types():
    """Every concrete ControlMessage subclass defined in the module."""
    found = set()
    stack = [ControlMessage]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub.__module__ == transport.__name__:
                found.add(sub)
            stack.append(sub)
    return found


def test_samples_cover_every_message_type():
    sampled = {type(message) for message in SAMPLES}
    missing = _concrete_control_message_types() - sampled
    assert not missing, f"message types without a pickle sample: {missing}"


@pytest.mark.parametrize(
    "message", SAMPLES, ids=[type(message).__name__ for message in SAMPLES]
)
def test_pickle_round_trip_is_byte_identical(message):
    blob = pickle.dumps(message)
    clone = pickle.loads(blob)
    assert type(clone) is type(message)
    assert clone == message
    assert pickle.dumps(clone) == blob


# -- tuple-backed control-plane ids -------------------------------------------
#
# StreamId and MatchField key every hot dict of the control plane and
# cross process boundaries inside snapshots and shard results.  They are
# named tuples: hash, equality and order are those of the plain field
# tuple, and nothing process-local (a memoized string hash) is pickled.
# DeliveryRecord (one per delivered frame) is tuple-backed the same way.

ID_SAMPLES = [
    StreamId("site-A", 3),
    MatchField("viewer-00007", StreamId("site-B", 0)),
    DeliveryRecord("viewer-00007", StreamId("site-B", 0), 17, 1.0, 1.25),
]
ID_SAMPLE_NAMES = ["StreamId", "MatchField", "DeliveryRecord"]


def test_ids_hash_like_their_field_tuples():
    assert hash(StreamId("site-A", 3)) == hash(("site-A", 3))
    sid = StreamId("site-B", 0)
    assert hash(MatchField("viewer-00007", sid)) == hash(("viewer-00007", sid))
    # Nothing is memoized on the instance, so nothing stale can be pickled.
    assert not hasattr(sid, "__dict__")


def test_ids_compare_equal_to_plain_tuples():
    sid = StreamId("site-A", 3)
    assert sid == ("site-A", 3)
    assert {sid: "entry"}[("site-A", 3)] == "entry"
    assert MatchField("CDN", sid) == ("CDN", ("site-A", 3))


def test_stream_id_order_is_field_order():
    ids = [StreamId(site, cam) for site in ("b", "a", "c") for cam in (2, 0, 1)]
    assert sorted(ids) == sorted(ids, key=lambda i: (i.site_id, i.camera_index))
    assert StreamId("a", 9) < StreamId("b", 0)
    assert StreamId("a", 1) < StreamId("a", 2)


def test_id_text_forms_are_unchanged():
    sid = StreamId("site-A", 3)
    assert str(sid) == "S3@site-A"
    assert f"{sid}" == "S3@site-A"
    assert repr(sid) == "StreamId(site_id='site-A', camera_index=3)"
    match = MatchField("viewer-00007", sid)
    assert str(match) == "viewer-00007:S3@site-A"
    assert repr(match) == (
        "MatchField(parent_id='viewer-00007', "
        "stream_id=StreamId(site_id='site-A', camera_index=3))"
    )


def test_delivery_record_keeps_field_order_and_delay():
    assert DeliveryRecord._fields == (
        "viewer_id",
        "stream_id",
        "frame_number",
        "capture_time",
        "delivery_time",
    )
    record = ID_SAMPLES[2]
    assert record == DeliveryRecord(
        viewer_id="viewer-00007",
        stream_id=StreamId("site-B", 0),
        frame_number=17,
        capture_time=1.0,
        delivery_time=1.25,
    )
    assert record.end_to_end_delay == 0.25


@pytest.mark.parametrize("value", ID_SAMPLES, ids=ID_SAMPLE_NAMES)
def test_ids_are_immutable(value):
    field_name = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field_name, "other")
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", ID_SAMPLES, ids=ID_SAMPLE_NAMES)
def test_ids_round_trip_through_pickle_and_queues(value):
    blob = pickle.dumps(value)
    clone = pickle.loads(blob)
    assert type(clone) is type(value)
    assert clone == value and hash(clone) == hash(value)
    assert pickle.dumps(clone) == blob
    # A multiprocessing queue pickles on put and unpickles on get.
    channel = multiprocessing.SimpleQueue()
    channel.put({value: "payload"})
    assert channel.get() == {value: "payload"}


def _run_python(code: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_ids_pickled_under_one_hash_seed_key_dicts_under_another():
    """Regression: a memoized ``_hash`` used to travel inside the pickle.

    String hashes are per-process, so an id whose hash was computed under
    ``PYTHONHASHSEED=1`` and restored under ``PYTHONHASHSEED=2`` no longer
    matched a freshly built equal id -- a restored snapshot or a
    spawn-started shard worker could not find its own routing entries.
    """
    dump = (
        "import pickle, sys\n"
        "from repro.model.stream import StreamId\n"
        "from repro.core.routing_table import MatchField\n"
        "sid = StreamId('site-A', 3)\n"
        "match = MatchField('viewer-00007', sid)\n"
        "table = {sid: 'stream', match: 'entry'}\n"
        "assert table[sid] == 'stream' and table[match] == 'entry'\n"
        "sys.stdout.buffer.write(pickle.dumps(table))\n"
    )
    load = (
        "import pickle, sys\n"
        "from repro.model.stream import StreamId\n"
        "from repro.core.routing_table import MatchField\n"
        "table = pickle.loads(sys.stdin.buffer.read())\n"
        "sid = StreamId('site-A', 3)\n"
        "match = MatchField('viewer-00007', sid)\n"
        "assert all(hash(k) == hash(type(k)(*k)) for k in table), 'stale hash'\n"
        "assert table.get(sid) == 'stream', 'fresh StreamId misses'\n"
        "assert table.get(match) == 'entry', 'fresh MatchField misses'\n"
        "assert {pickle.loads(pickle.dumps(sid)): 1}.get(sid) == 1\n"
        "print('ok')\n"
    )
    blob = _run_python(dump, "1")
    assert _run_python(load, "2", stdin=blob).strip() == b"ok"


def test_slotted_tree_nodes_round_trip_with_their_tree():
    """``TreeNode`` is a slotted dataclass; trees travel inside snapshots."""
    stream = Stream(StreamId("site-A", 0), (1.0, 0.0))
    tree = StreamTree(stream, DelayModel(LatencyMatrix()), d_max=65.0)
    for index, degree in enumerate((2, 0, 3, 1)):
        assert tree.insert(f"viewer-{index}", degree, float(degree)).accepted
    assert not hasattr(tree.node("viewer-0"), "__dict__")
    clone = pickle.loads(pickle.dumps(tree, protocol=4))
    clone.validate()
    for node_id in tree.members():
        assert clone.node(node_id) == tree.node(node_id)
    assert clone.cdn_children() == tree.cdn_children()
    # The restored root position index keeps serving displacements.
    assert clone.insert("viewer-9", 4, 9.0) == tree.insert("viewer-9", 4, 9.0)
    clone.validate()
