"""Write-attribution profiler: counter deltas per hierarchical phase.

The paper's central argument is that the *sources* of NVM writes
(zeroing, GC copying, mutator stores, collector metadata) are visible
to the runtime.  This module makes them visible in the reproduction:
a :class:`Profiler` snapshots machine/kernel counters at every span
boundary (via :attr:`Tracer.boundary`) and attributes the delta to the
span path that was active during the interval — *exclusive* (self)
intervals, so the per-path deltas sum to the global counter deltas
bit-identically, by construction.  That conservation property is
enforced at run end by the ``attribution_conservation`` SANITIZE law.

Layering: this module sits in the observability layer and must not
import the machine/kernel it profiles.  The platform hands
:meth:`Profiler.begin_run` a *snapshot callable* returning a flat
``{counter_name: int}`` dict; the profiler only diffs dicts.

Artifacts are plain JSON-serialisable dicts (schema
``repro.profile/v1``) so they survive the sweep checkpoint round-trip,
and three exporters turn them into standard tool formats:

* :func:`to_chrome_trace` — Chrome trace-event JSON (``chrome://tracing``
  / Perfetto complete events, ``ph="X"``);
* :func:`to_folded` / :func:`parse_folded` — folded-stacks flamegraph
  lines (``run;gc.full;gc.mark 1234``);
* :func:`attribution_table` — an aligned ASCII table for
  ``run_report`` and the ``repro profile`` CLI verb.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.observability.trace import TRACER, Tracer
from repro.probe import PROBES, ProbeBus

#: Bump when the profile artifact layout changes incompatibly.
PROFILE_SCHEMA = "repro.profile/v1"

#: Attribution bucket for counter movement outside any span (between
#: ``begin_run`` and the root push, or after the root pop).  Nonzero
#: values here are legitimate — conservation counts them too.
OUTSIDE = "(outside)"

#: Headline counters shown by the default attribution table.
HEADLINE_COUNTERS = ("pcm.writes", "dram.writes", "pcm.reads",
                     "dram.reads", "page_faults")

SnapshotFn = Callable[[], Dict[str, int]]


class Profiler:
    """Attributes counter deltas to the active span path.

    The profiler is **off by default**; while off, instrumented span
    sites pay nothing beyond the tracer's own disabled-path cost.
    A run is profiled by bracketing it::

        PROFILER.begin_run(snapshot_fn)   # hooks TRACER.boundary
        ... spans push/pop; deltas accumulate per path ...
        profile = PROFILER.end_run(meta)  # unhooks, returns the artifact

    ``snapshot_fn`` returns a flat ``{name: int}`` of monotonic
    counters; the profiler never interprets the names.  While enabled,
    the process-wide profiler does this bracketing itself from the
    platform's ``platform.barrier`` / ``platform.profile`` /
    ``platform.abort`` probe sites.
    """

    def __init__(self, tracer: Tracer = TRACER,
                 bus: Optional[ProbeBus] = None) -> None:
        self._enabled = False
        self._bus = bus
        self._tracer = tracer
        self._snapshot: Optional[SnapshotFn] = None
        self._last: Dict[str, int] = {}
        self._self: Dict[str, Dict[str, int]] = {}

    @property
    def active(self) -> bool:
        """True between :meth:`begin_run` and :meth:`end_run`."""
        return self._snapshot is not None

    @property
    def enabled(self) -> bool:
        """Whether platform runs are profiled (subscribed to the bus)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        if self._bus is not None:
            if self._enabled:
                self._bus.subscribe(self.probe)
            else:
                self._bus.unsubscribe(self.probe)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def probe(self, site: str, ctx: Dict) -> Optional[Dict]:
        """Bus subscriber: bracket each platform run."""
        if site == "platform.barrier":
            self.begin_run(ctx["snapshot"])
        elif site == "platform.profile" and self.active:
            return self.end_run(**ctx)
        elif site == "platform.abort" and self.active:
            self.abort_run()
        return None

    # ------------------------------------------------------------------
    # Run bracketing
    # ------------------------------------------------------------------
    def begin_run(self, snapshot: SnapshotFn) -> None:
        """Baseline the counters and hook the tracer's span boundaries."""
        self._snapshot = snapshot
        self._last = dict(snapshot())
        self._self = {}
        self._tracer.boundary = self._on_boundary

    def _on_boundary(self, path: str, _ts: float) -> None:
        """Attribute the delta since the last boundary to ``path``."""
        snapshot = self._snapshot
        if snapshot is None:  # pragma: no cover - defensive unhook race
            return
        now = snapshot()
        last = self._last
        bucket = self._self.setdefault(path or OUTSIDE, {})
        for name, value in now.items():
            delta = value - last.get(name, 0)
            if delta:
                bucket[name] = bucket.get(name, 0) + delta
        self._last = dict(now)

    def end_run(self, **meta) -> Dict:
        """Final-flush, unhook the tracer, and return the artifact.

        The artifact carries the per-path *self* counters, the span
        records buffered by the tracer (for the Chrome exporter), and
        arbitrary ``meta`` (benchmark, collector, ...).
        """
        if self._snapshot is None:
            raise RuntimeError("Profiler.end_run without begin_run")
        # Whatever moved since the last boundary lands on the path that
        # is still active (normally "" -> OUTSIDE after the root pop).
        self._on_boundary(self._tracer.current_path(), 0.0)
        self._tracer.boundary = None
        self._snapshot = None
        profile = {
            "schema": PROFILE_SCHEMA,
            "meta": dict(meta),
            "self": {path: dict(counters)
                     for path, counters in sorted(self._self.items())},
            "spans": [dict(record) for record in self._tracer.spans()],
        }
        self._self = {}
        self._last = {}
        return profile

    def abort_run(self) -> None:
        """Unhook without producing an artifact (exception paths)."""
        self._tracer.boundary = None
        self._snapshot = None
        self._self = {}
        self._last = {}


#: The process-wide profiler (off by default, like TRACER).
PROFILER = Profiler(bus=PROBES)


# ----------------------------------------------------------------------
# Artifact queries
# ----------------------------------------------------------------------
def attributed_total(profile: Dict, counter: str) -> int:
    """Sum of ``counter`` across every attributed path (incl. OUTSIDE)."""
    return sum(bucket.get(counter, 0)
               for bucket in profile.get("self", {}).values())


def counter_names(profile: Dict) -> List[str]:
    """Every counter name appearing in any bucket, sorted."""
    names = set()
    for bucket in profile.get("self", {}).values():
        names.update(bucket)
    return sorted(names)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def to_chrome_trace(profile: Dict, pid: int = 1, tid: int = 1) -> Dict:
    """Chrome trace-event JSON object format (Perfetto-loadable).

    Span records become *complete* events (``ph="X"``) with ``ts`` and
    ``dur`` in microseconds; the per-path self counters ride along as
    ``args`` on synthetic metadata-free counter rows is overkill, so
    they are attached to a final summary event instead.
    """
    events: List[Dict] = []
    for span in profile.get("spans", []):
        event = {
            "ph": "X",
            "name": span["name"],
            "ts": span["ts"] * 1e6,
            "dur": span.get("dur", 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": dict(span.get("attrs", {})),
        }
        if "id" in span:
            event["args"]["span_id"] = span["id"]
        if "parent" in span:
            event["args"]["parent"] = span["parent"]
        events.append(event)
    # One instant event carrying the attribution map, so the whole
    # artifact survives a trip through the Chrome JSON alone.
    events.append({
        "ph": "X", "name": "attribution", "ts": 0.0, "dur": 0.0,
        "pid": pid, "tid": 0,
        "args": {"self": profile.get("self", {}),
                 "meta": profile.get("meta", {})},
    })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"schema": profile.get("schema", PROFILE_SCHEMA)}}


def to_folded(profile: Dict, counter: str = "pcm.writes") -> str:
    """Folded-stacks flamegraph lines: ``a;b;c <count>`` per path.

    Span paths use ``/`` internally; the folded format's separator is
    ``;``.  Zero-valued paths are omitted (flamegraph collapse drops
    them anyway).  Lines are sorted for determinism.
    """
    lines = []
    for path, bucket in sorted(profile.get("self", {}).items()):
        value = bucket.get(counter, 0)
        if not value:
            continue
        stack = path.replace("/", ";") if path != OUTSIDE else OUTSIDE
        lines.append(f"{stack} {value}")
    return "\n".join(lines)


def parse_folded(text: str) -> Dict[str, int]:
    """Parse folded-stacks lines back into ``{stack: count}``.

    The standard flamegraph-collapse grammar: one stack per line,
    frames joined by ``;``, a single space, an integer count.  Raises
    ``ValueError`` on malformed lines so tests can round-trip strictly.
    """
    stacks: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack, sep, count = line.rpartition(" ")
        if not sep or not stack:
            raise ValueError(f"folded line {lineno}: missing count: {line!r}")
        stacks[stack] = stacks.get(stack, 0) + int(count)
    return stacks


# ----------------------------------------------------------------------
# Aggregation + table rendering
# ----------------------------------------------------------------------
def _render_rows(headers: Tuple[str, ...], rows: List[Tuple[str, ...]],
                 title: str = "") -> str:
    if not rows:
        return (title + "\n" if title else "") + "(no attribution data)"
    widths = [max(len(headers[col]), *(len(r[col]) for r in rows))
              for col in range(len(headers))]
    lines = [title] if title else []
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def aggregate(profile: Dict, by: str = "phase") -> List[Dict]:
    """Aggregate the self counters for an attribution view.

    ``by="phase"`` — one row per span path with the headline counters.
    ``by="space"`` — rows are (path, heap tag) with per-tag writes
    (counters named ``pcm.writes.tag.<tag>`` / ``dram.writes.tag.<tag>``).
    ``by="socket"`` — rows are (path, socket) with per-socket LLC and
    memory counters (``socket<N>.<metric>``).
    """
    rows: List[Dict] = []
    if by == "phase":
        for path, bucket in sorted(profile.get("self", {}).items()):
            row = {"path": path}
            row.update({name: bucket.get(name, 0)
                        for name in HEADLINE_COUNTERS})
            rows.append(row)
    elif by == "space":
        for path, bucket in sorted(profile.get("self", {}).items()):
            tags: Dict[str, Dict[str, int]] = {}
            for name, value in bucket.items():
                for kind in ("pcm.writes", "dram.writes"):
                    marker = kind + ".tag."
                    if name.startswith(marker):
                        tag = name[len(marker):]
                        tags.setdefault(tag, {})[kind] = value
            for tag, values in sorted(tags.items()):
                rows.append({"path": path, "tag": tag,
                             "pcm.writes": values.get("pcm.writes", 0),
                             "dram.writes": values.get("dram.writes", 0)})
    elif by == "socket":
        for path, bucket in sorted(profile.get("self", {}).items()):
            sockets: Dict[str, Dict[str, int]] = {}
            for name, value in bucket.items():
                if not name.startswith("socket"):
                    continue
                socket, _, metric = name.partition(".")
                sockets.setdefault(socket, {})[metric] = value
            for socket, values in sorted(sockets.items()):
                row = {"path": path, "socket": socket}
                row.update(values)
                rows.append(row)
    else:
        raise ValueError(f"unknown attribution view {by!r} "
                         "(expected phase, space, or socket)")
    return rows


def attribution_table(profile: Dict, by: str = "phase",
                      title: str = "") -> str:
    """Render an :func:`aggregate` view as an aligned ASCII table."""
    rows = aggregate(profile, by)
    if not rows:
        return _render_rows((), [], title)
    headers = tuple(rows[0].keys())
    rendered = [tuple(str(row.get(h, 0)) for h in headers) for row in rows]
    return _render_rows(headers, rendered, title)
