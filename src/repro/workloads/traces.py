"""Request-trace recording and replay.

Capacity studies and regression comparisons want *identical* request
streams across runs. A :class:`TraceRecorder` snapshots the request
stream of any run — either after the fact from the dispatcher's
statistics, or live via :meth:`TraceRecorder.attach` (which appends to
the :class:`~repro.server.request.RequestStats` ``observers`` list, so
rejected and timed-out arrivals are captured too). Traces persist in a
**versioned JSON-Lines format**: line 1 is a schema header, every
further line one entry, both serialised deterministically so that
record → dump → load → dump is byte-identical (tested).

:class:`TraceReplayer` fires a recorded trace open-loop at the original
timing, optionally **time-scaled** (``time_scale`` < 1 compresses the
clock — stress) and **load-scaled** (``load_scale`` = 2 doubles every
arrival; fractional parts are resolved on the dedicated
``replay:load-scale`` RNG stream, so no other component's draws are
perturbed). Two schemes can thus be compared on byte-identical input,
or on a deterministic ×k amplification of a production trace.

Synthetic non-stationary traces (diurnal cycles, flash crowds) come
from :mod:`repro.workloads.synth`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.server.request import Request
from repro.sim.resources import Store
from repro.sim.units import MILLISECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.server.dispatcher import Dispatcher

#: the trace-file schema this build writes and the versions it reads
TRACE_SCHEMA_VERSION = 1
SUPPORTED_SCHEMA_VERSIONS = (1,)

#: header `kind` tag — guards against feeding arbitrary JSONL to loads()
_TRACE_KIND = "repro-request-trace"


class TraceFormatError(ValueError):
    """A trace file/string that violates the schema, with its line number."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        super().__init__(
            f"trace line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class TraceEntry:
    """One recorded request."""

    offset_ns: int
    workload: str
    query: str
    web_cpu: int
    db_cpu: int
    doc_id: Optional[int]
    response_bytes: int
    deadline: int

    def to_dict(self) -> dict:
        return {
            "offset_ns": self.offset_ns, "workload": self.workload,
            "query": self.query, "web_cpu": self.web_cpu,
            "db_cpu": self.db_cpu, "doc_id": self.doc_id,
            "response_bytes": self.response_bytes, "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEntry":
        fields = cls.__dataclass_fields__
        unknown = set(d) - set(fields)
        if unknown:
            raise TraceFormatError(
                f"unknown entry key(s): {', '.join(sorted(unknown))}")
        missing = set(fields) - set(d)
        if missing:
            raise TraceFormatError(
                f"missing entry key(s): {', '.join(sorted(missing))}")
        return cls(**d)


def _sort_key(entry: TraceEntry) -> tuple:
    """Deterministic total order — arrival time first, then content."""
    return (entry.offset_ns, entry.workload, entry.query, entry.web_cpu,
            entry.db_cpu, entry.doc_id if entry.doc_id is not None else -1,
            entry.response_bytes, entry.deadline)


class TraceRecorder:
    """Builds a trace from completed/observed requests."""

    def __init__(self, start_time: int = 0) -> None:
        self.start_time = start_time
        self.entries: List[TraceEntry] = []

    def record(self, request: Request) -> None:
        """Capture one request (call from a dispatcher/stats hook)."""
        self.entries.append(TraceEntry(
            offset_ns=max(0, request.created_at - self.start_time),
            workload=request.workload,
            query=request.query,
            web_cpu=request.web_cpu,
            db_cpu=request.db_cpu,
            doc_id=request.doc_id,
            response_bytes=request.response_bytes,
            deadline=request.deadline,
        ))

    def record_stats(self, stats) -> None:
        """Capture every completed request from a RequestStats."""
        for request in stats.completed:
            self.record(request)

    def attach(self, dispatcher: "Dispatcher") -> "TraceRecorder":
        """Record live from the dispatcher's statistics hook.

        Appends to ``dispatcher.stats.observers``, so every arrival —
        completed, rejected, or timed-out — is captured the moment the
        dispatcher accounts for it. Unlike :meth:`record_stats`, this
        sees the *full* arrival stream, not just within-deadline
        completions.
        """
        dispatcher.stats.observers.append(self.record)
        return self

    # -- persistence ---------------------------------------------------------
    def dumps(self) -> str:
        """Serialise to the versioned JSONL format, deterministically.

        Entries are emitted in their canonical sort order with sorted
        keys and canonical separators, so the same logical trace always
        produces the same bytes (record → dump → load → dump is
        byte-identical; tested).
        """
        ordered = sorted(self.entries, key=_sort_key)
        header = {"kind": _TRACE_KIND,
                  "schema_version": TRACE_SCHEMA_VERSION,
                  "entries": len(ordered)}
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        lines += [json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
                  for e in ordered]
        return "\n".join(lines) + "\n"

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @staticmethod
    def loads(text: str) -> List[TraceEntry]:
        """Parse a versioned trace; schema violations carry line numbers."""
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise TraceFormatError("empty trace (missing schema header)", line=1)
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"malformed header JSON: {exc}", line=1)
        if isinstance(header, list):
            raise TraceFormatError(
                "bare JSON list (the pre-versioned format); re-record the "
                "trace or wrap it with a schema_version header", line=1)
        if not isinstance(header, dict) or header.get("kind") != _TRACE_KIND:
            raise TraceFormatError(
                f"not a {_TRACE_KIND} header: {lines[0][:80]!r}", line=1)
        version = header.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise TraceFormatError(
                f"unsupported schema_version {version!r} (supported: "
                f"{', '.join(map(str, SUPPORTED_SCHEMA_VERSIONS))})", line=1)
        entries: List[TraceEntry] = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"malformed entry JSON: {exc}",
                                       line=lineno)
            if not isinstance(d, dict):
                raise TraceFormatError(
                    f"entry must be a JSON object, got {type(d).__name__}",
                    line=lineno)
            try:
                entries.append(TraceEntry.from_dict(d))
            except TraceFormatError as exc:
                raise TraceFormatError(str(exc), line=lineno)
        declared = header.get("entries")
        if declared is not None and declared != len(entries):
            raise TraceFormatError(
                f"header declares {declared} entries, found {len(entries)}",
                line=1)
        return entries

    @staticmethod
    def load(path) -> List[TraceEntry]:
        with open(path) as fh:
            return TraceRecorder.loads(fh.read())


class TraceReplayer:
    """Replays a trace open-loop with the original inter-arrival times."""

    def __init__(
        self,
        sim: "ClusterSim",
        dispatcher: "Dispatcher",
        trace: List[TraceEntry],
        time_scale: float = 1.0,
        load_scale: float = 1.0,
        injectors: int = 16,
        drain_timeout: int = 200 * MILLISECOND,
    ) -> None:
        """``time_scale`` < 1 replays faster (stress), > 1 slower.

        ``load_scale`` amplifies the arrival stream: every entry is
        replayed ``floor(load_scale)`` times, plus once more with the
        fractional probability, duplicates jittered by up to 50 µs —
        all decided on the dedicated ``replay:load-scale`` RNG stream
        at :meth:`start`, so replays stay deterministic and no other
        stream is perturbed. ``load_scale`` < 1 thins the trace.

        The trace is round-robined across ``injectors`` client tasks;
        each waits up to ``drain_timeout`` ns for straggler responses.
        """
        if not trace:
            raise ValueError("cannot replay an empty trace")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if load_scale <= 0:
            raise ValueError("load_scale must be positive")
        if injectors < 1:
            raise ValueError("need at least one injector")
        if drain_timeout <= 0:
            raise ValueError("drain_timeout must be positive")
        self.sim = sim
        self.dispatcher = dispatcher
        self.trace = sorted(trace, key=_sort_key)
        self.time_scale = time_scale
        self.load_scale = load_scale
        self.injectors = injectors
        self.drain_timeout = drain_timeout
        self.issued = 0
        self.completed_inline = 0
        self._next_rid = [5_000_000]

    # ------------------------------------------------------------------
    def _scaled_trace(self) -> List[TraceEntry]:
        """The load-scaled arrival stream (identity at load_scale=1)."""
        if self.load_scale == 1.0:
            return self.trace
        import dataclasses

        rng = self.sim.rng.stream("replay:load-scale")
        whole = int(self.load_scale)
        frac = self.load_scale - whole
        out: List[TraceEntry] = []
        for entry in self.trace:
            copies = whole + (1 if frac > 0 and rng.random() < frac else 0)
            for c in range(copies):
                if c == 0:
                    out.append(entry)
                else:
                    jitter = int(rng.integers(1, 50_000))
                    out.append(dataclasses.replace(
                        entry, offset_ns=entry.offset_ns + jitter))
        out.sort(key=_sort_key)
        return out

    def start(self) -> None:
        assert self.sim.clients is not None
        # Round-robin the (load-scaled) trace across injector tasks;
        # each fires its share at the scheduled offsets.
        stream = self._scaled_trace()
        shards: List[List[TraceEntry]] = [[] for _ in range(self.injectors)]
        for i, entry in enumerate(stream):
            shards[i % self.injectors].append(entry)
        for i, shard in enumerate(shards):
            if shard:
                self.sim.clients.spawn(f"replay:{i}", self._injector_body(i, shard))

    def _injector_body(self, index: int, shard: List[TraceEntry]):
        clients = self.sim.clients
        assert clients is not None
        frontend = self.dispatcher.frontend
        inbox = self.dispatcher.inbox
        reply_store = Store(clients.env, name=f"replay-replies:{index}")
        base = clients.env.now

        def body(k):
            from repro.sim.events import AnyOf

            got = 0
            for entry in shard:
                due = base + int(entry.offset_ns * self.time_scale)
                if due > k.now:
                    yield k.sleep(due - k.now)
                self._next_rid[0] += 1
                request = Request(
                    rid=self._next_rid[0],
                    workload=entry.workload,
                    query=entry.query,
                    web_cpu=entry.web_cpu,
                    db_cpu=entry.db_cpu,
                    doc_id=entry.doc_id,
                    response_bytes=entry.response_bytes,
                    deadline=entry.deadline,
                    reply_node=clients,
                    reply_store=reply_store,
                )
                request.created_at = k.now
                self.issued += 1
                yield from clients.netstack.send(
                    k, frontend, inbox, request, self.dispatcher.request_bytes
                )
                # Collect any responses that have landed (non-blocking).
                while True:
                    ok, item = reply_store.try_get()
                    if not ok:
                        break
                    self.dispatcher.on_response(item[0])
                    got += 1
                    self.completed_inline += 1
            # Shard exhausted: drain the stragglers (bounded patience).
            while got < len(shard):
                get_ev = reply_store.get()
                deadline = k.env.timeout(self.drain_timeout)
                fired = yield k.wait(AnyOf(k.env, [get_ev, deadline]))
                if get_ev not in fired:
                    get_ev.cancel()
                    break
                self.dispatcher.on_response(get_ev.value[0])
                got += 1
                self.completed_inline += 1

        return body
