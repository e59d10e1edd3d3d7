"""Tests for trace recording and replay."""

import json

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload
from repro.workloads.traces import (
    TRACE_SCHEMA_VERSION,
    TraceEntry,
    TraceFormatError,
    TraceRecorder,
    TraceReplayer,
)


def record_run(duration=seconds(2), num_clients=6):
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", interval=ms(50))
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=num_clients,
                       think_time=ms(8), burst_length=1)
    wl.start()
    app.run(duration)
    recorder = TraceRecorder()
    recorder.record_stats(app.dispatcher.stats)
    return recorder


def test_recording_captures_all_completed():
    recorder = record_run()
    assert len(recorder.entries) > 100
    entry = recorder.entries[0]
    assert entry.workload == "rubis"
    assert entry.web_cpu > 0


def test_serialisation_roundtrip(tmp_path):
    recorder = record_run()
    path = tmp_path / "trace.json"
    recorder.dump(path)
    loaded = TraceRecorder.load(path)
    assert len(loaded) == len(recorder.entries)
    original = sorted(recorder.entries, key=lambda e: e.offset_ns)
    assert loaded == original


def test_replay_reproduces_the_stream():
    recorder = record_run()
    trace = sorted(recorder.entries, key=lambda e: e.offset_ns)

    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", interval=ms(50))
           .build())
    replayer = TraceReplayer(app.sim, app.dispatcher, trace)
    replayer.start()
    horizon = trace[-1].offset_ns + seconds(2)
    app.run(horizon)
    assert replayer.issued == len(trace)
    # Nearly everything completes; mix is preserved.
    stats = app.dispatcher.stats
    assert stats.count() > 0.9 * len(trace)
    replay_queries = {q for q in stats.by_query()}
    original_queries = {e.query for e in trace}
    assert replay_queries <= original_queries


def test_replay_time_scale_compresses():
    recorder = record_run()
    trace = sorted(recorder.entries, key=lambda e: e.offset_ns)
    spans = {}
    for scale in (1.0, 0.5):
        app = (ClusterBuilder(SimConfig(num_backends=2))
               .scheme("rdma-sync")
               .build())
        replayer = TraceReplayer(app.sim, app.dispatcher, trace, time_scale=scale)
        replayer.start()
        app.run(trace[-1].offset_ns + seconds(2))
        times = [r.created_at for r in app.dispatcher.stats.completed]
        spans[scale] = max(times) - min(times)
    assert spans[0.5] < spans[1.0] * 0.7


def test_replay_validation():
    app = ClusterBuilder(SimConfig(num_backends=1)).scheme("rdma-sync").build()
    with pytest.raises(ValueError):
        TraceReplayer(app.sim, app.dispatcher, [])
    entry = TraceEntry(0, "rubis", "Home", 1000, 0, None, 512, 0)
    with pytest.raises(ValueError):
        TraceReplayer(app.sim, app.dispatcher, [entry], time_scale=0)
    with pytest.raises(ValueError):
        TraceReplayer(app.sim, app.dispatcher, [entry], injectors=0)
    with pytest.raises(ValueError):
        TraceReplayer(app.sim, app.dispatcher, [entry], load_scale=0)
    with pytest.raises(ValueError):
        TraceReplayer(app.sim, app.dispatcher, [entry], drain_timeout=0)


# ----------------------------------------------------------------------
# the versioned schema
# ----------------------------------------------------------------------
def _small_trace():
    return [
        TraceEntry(250_000, "rubis", "Browse", 2_000_000, 500_000, None, 4096, 0),
        TraceEntry(0, "rubis", "Home", 1_000_000, 0, None, 512, 0),
        TraceEntry(250_000, "rubis", "Browse", 1_500_000, 400_000, 7, 4096, 0),
    ]


def test_dump_load_dump_is_byte_identical():
    recorder = TraceRecorder()
    recorder.entries = _small_trace()
    first = recorder.dumps()

    reloaded = TraceRecorder()
    reloaded.entries = TraceRecorder.loads(first)
    assert reloaded.dumps() == first
    # ... and unsorted input canonicalises to the same bytes.
    shuffled = TraceRecorder()
    shuffled.entries = list(reversed(_small_trace()))
    assert shuffled.dumps() == first


def test_header_carries_schema_version():
    recorder = TraceRecorder()
    recorder.entries = _small_trace()
    header = json.loads(recorder.dumps().splitlines()[0])
    assert header["schema_version"] == TRACE_SCHEMA_VERSION
    assert header["entries"] == 3


def test_unsupported_version_rejected_with_line_number():
    text = '{"kind":"repro-request-trace","schema_version":99,"entries":0}\n'
    with pytest.raises(TraceFormatError) as exc:
        TraceRecorder.loads(text)
    assert exc.value.line == 1
    assert "99" in str(exc.value)


def test_pre_versioned_bare_list_rejected():
    text = json.dumps([e.to_dict() for e in _small_trace()])
    with pytest.raises(TraceFormatError) as exc:
        TraceRecorder.loads(text)
    assert exc.value.line == 1
    assert "pre-versioned" in str(exc.value)


def test_entry_errors_carry_their_line_number():
    recorder = TraceRecorder()
    recorder.entries = _small_trace()
    lines = recorder.dumps().splitlines()

    # Malformed JSON on entry line 3.
    broken = "\n".join(lines[:2] + ["{not json"] + lines[3:])
    with pytest.raises(TraceFormatError) as exc:
        TraceRecorder.loads(broken)
    assert exc.value.line == 3

    # Unknown key on entry line 2.
    bad = json.loads(lines[1])
    bad["surprise"] = 1
    with pytest.raises(TraceFormatError) as exc:
        TraceRecorder.loads("\n".join([lines[0], json.dumps(bad)] + lines[2:]))
    assert exc.value.line == 2
    assert "surprise" in str(exc.value)

    # Missing key on entry line 2.
    short = json.loads(lines[1])
    del short["query"]
    with pytest.raises(TraceFormatError) as exc:
        TraceRecorder.loads("\n".join([lines[0], json.dumps(short)] + lines[2:]))
    assert exc.value.line == 2

    # Declared count no longer matches.
    with pytest.raises(TraceFormatError) as exc:
        TraceRecorder.loads("\n".join(lines[:2]))
    assert exc.value.line == 1
    assert "declares" in str(exc.value)


def test_recorded_trace_replays_byte_identically(tmp_path):
    """record -> dump -> load -> replay: the loaded trace is the trace."""
    recorder = record_run(duration=seconds(1))
    path = tmp_path / "trace.jsonl"
    recorder.dump(path)
    loaded = TraceRecorder.load(path)

    runs = []
    for trace in (recorder.entries, loaded):
        app = (ClusterBuilder(SimConfig(num_backends=2))
               .scheme("rdma-sync")
               .build())
        replayer = TraceReplayer(app.sim, app.dispatcher, list(trace))
        replayer.start()
        app.run(max(e.offset_ns for e in trace) + seconds(1))
        stats = app.dispatcher.stats
        runs.append((replayer.issued,
                     tuple(sorted((r.query, r.created_at, r.completed_at)
                                  for r in stats.completed)),
                     app.sim.env.processed_events))
    assert runs[0] == runs[1]


def test_attach_records_live_arrivals():
    app = ClusterBuilder(SimConfig(num_backends=2)).scheme("rdma-sync").build()
    recorder = TraceRecorder().attach(app.dispatcher)
    # A second recorder subscribes alongside the first, never replacing it.
    recorder2 = TraceRecorder().attach(app.dispatcher)
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=4, think_time=ms(8))
    wl.start()
    app.run(seconds(1))
    stats = app.dispatcher.stats
    total = stats.count() + stats.rejected_count + stats.timeout_count
    assert len(recorder.entries) == total > 0
    assert recorder2.entries == recorder.entries


def test_load_scale_amplifies_deterministically():
    recorder = record_run(duration=seconds(1))
    trace = sorted(recorder.entries, key=lambda e: e.offset_ns)

    counts = {}
    for scale in (1.0, 2.0):
        issued = []
        for _ in range(2):
            app = (ClusterBuilder(SimConfig(num_backends=2))
                   .scheme("rdma-sync")
                   .build())
            replayer = TraceReplayer(app.sim, app.dispatcher, trace,
                                     load_scale=scale)
            replayer.start()
            app.run(trace[-1].offset_ns + seconds(1))
            issued.append(replayer.issued)
        assert issued[0] == issued[1]  # same seed -> same amplification
        counts[scale] = issued[0]
    assert counts[1.0] == len(trace)
    assert counts[2.0] == 2 * len(trace)

    # Fractional scales resolve on the dedicated stream: 1.5x lands
    # strictly between 1x and 2x.
    app = ClusterBuilder(SimConfig(num_backends=2)).scheme("rdma-sync").build()
    replayer = TraceReplayer(app.sim, app.dispatcher, trace, load_scale=1.5)
    replayer.start()
    app.run(trace[-1].offset_ns + seconds(1))
    assert counts[1.0] < replayer.issued < counts[2.0]
