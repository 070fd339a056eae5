"""In-memory spans around calls into the gaitpair layers, for the traced run.

Probes wrap module attributes from outside the program.  ``from .x import f``
copies ``f`` into every importing module, so a probe replaces the function at
every name in the package that is bound to it.  A probe whose target no longer
exists installs nothing and its layer reports zero calls.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from pathlib import Path


class Span:
    """One traced call: name, interval, parent span, op id and thread."""

    __slots__ = ("name", "start", "end", "parent", "op", "thread", "note")

    def __init__(self, name, start, parent, op, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while an op is open; calls outside an op pass through.

    Stacks are thread-local.  A span opened on a thread with an empty stack
    (a pool thread of ``run_pair_in_memory``) takes the open op's root span as
    parent; this is sound because ops run one at a time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._local = threading.local()
        self._root: Span | None = None

    def begin_op(self, op_id: int) -> None:
        self._root = Span("op", time.perf_counter(), None, op_id,
                          threading.get_ident())
        self.roots.append(self._root)

    def end_op(self) -> None:
        self._root.end = time.perf_counter()
        self._root = None

    def enter(self, name: str) -> Span | None:
        root = self._root
        if root is None:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else root
        span = Span(name, time.perf_counter(), parent, root.op,
                    threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write_jsonl(self, path: Path) -> None:
        """Write every span, roots first, as one JSON object per line."""
        everything = self.roots + self.spans
        ids = {id(s): i for i, s in enumerate(everything)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(everything):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "op": s.op,
                    "thread": s.thread}) + "\n")


# -- probes -----------------------------------------------------------------------

def _traced(fn, name: str, tracer: Tracer, note=None, prepare=None):
    """Wrap ``fn`` in a span.  ``prepare(kwargs)`` runs first; it may adjust
    arguments, and what it returns is passed on as ``before``.
    ``note(args, kwargs, result, error, before)`` stores a value on the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(name)
        if span is None:
            return fn(*args, **kwargs)
        before = prepare(kwargs) if prepare is not None else None
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            tracer.exit(span)
            if note is not None:
                span.note = note(args, kwargs, result, error, before)

    return wrapper


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _bytes_read_so_far(kwargs=None) -> int | None:
    """Bytes this process has read through system calls (Linux ``rchar``),
    or None where the kernel does not report it."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _bytes_read(args, kwargs, result, error, before) -> int:
    """Bytes read during the call.  Ops run one at a time and ``load_csv``
    runs on the op's own thread, so the count is the call's own."""
    after = _bytes_read_so_far()
    return after - before if None not in (before, after) else 0


def _capture_frames(kwargs) -> None:
    if kwargs.get("capture") is None:
        kwargs["capture"] = []


def _frames(args, kwargs, result, error, before) -> tuple[int, int]:
    frames = kwargs["capture"]
    return len(frames), sum(len(f) for f in frames)


# (span name, module, attribute path, note, prepare)
PROBES = (
    ("signals.fuse_orientation", "signals", "fuse_orientation",
     lambda a, k, r, e, b: _arg(a, k, 0, "rec").n_samples, None),
    ("signals.extract_vertical", "signals", "extract_vertical", None, None),
    ("signals.bandpass", "signals", "bandpass", None, None),
    ("signals.preprocess_record", "signals", "preprocess_record", None, None),
    ("gait.detect_cycles", "gait", "detect_cycles", None, None),
    # keeps (signal, bounds) alive so ids stay unique until the spans are read
    ("gait.cycles_from_bounds", "gait", "cycles_from_bounds",
     lambda a, k, r, e, b: (_arg(a, k, 0, "z"), _arg(a, k, 1, "bounds")), None),
    ("dataset_io.sliding_windows", "dataset_io", "sliding_windows", None, None),
    ("dataset_io.load_csv", "dataset_io", "load_csv", _bytes_read, _bytes_read_so_far),
    ("fingerprint.quantize", "fingerprint", "quantize",
     lambda a, k, r, e, b: _arg(a, k, 0, "seq"), None),
    ("fingerprint.average_cycle", "fingerprint", "average_cycle", None, None),
    ("fingerprint.reliability_order", "fingerprint", "reliability_order", None, None),
    ("fingerprint.reduce", "fingerprint", "reduce", None, None),
    ("fingerprint.similarity", "fingerprint", "similarity", None, None),
    ("fuzzy_ecc.decode", "fuzzy_ecc", "decode",
     lambda a, k, r, e, b: e is None, None),
    ("protocol.run_pair_in_memory", "protocol", "run_pair_in_memory",
     _frames, _capture_frames),
    ("protocol.run_session", "protocol", "run_session", None, None),
    ("protocol.recv_frame", "protocol", "InMemoryChannel.recv_frame", None, None),
    ("protocol.pake", "protocol", "SimulatedPake.run", None, None),
    ("eval_harness.discriminability", "eval_harness", "discriminability", None, None),
    ("eval_harness.reliability_sweep", "eval_harness", "reliability_sweep", None, None),
    ("cli.main", "cli", "main", None, None),
)


def install(tracer: Tracer, package: str = "gaitpair", probes=PROBES) -> list:
    """Wrap every probe target at every module attribute bound to it.

    Returns the undo list for ``uninstall``.  Targets that do not exist are
    skipped, so their layers report zero calls.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    undo = []
    for name, mod_name, attr, note, prepare in probes:
        owner = sys.modules.get(f"{package}.{mod_name}")
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            continue
        wrapper = _traced(original, name, tracer, note, prepare)
        holders = [owner] if outer else [
            m for m in modules if getattr(m, leaf, None) is original]
        for holder in holders:
            undo.append((holder, leaf, original))
            setattr(holder, leaf, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for holder, leaf, original in reversed(undo):
        setattr(holder, leaf, original)


# -- arithmetic ---------------------------------------------------------------------

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span (keyed by ``id``): its duration minus the union
    of its children's intervals, so overlapping children count once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): s.duration - union_length(children.get(id(s), ()), s.start, s.end)
            for s in spans}


# -- per-layer metrics ----------------------------------------------------------------

FINGERPRINT_SPANS = ("fingerprint.quantize", "fingerprint.average_cycle",
                     "fingerprint.reliability_order", "fingerprint.reduce",
                     "fingerprint.similarity")
ANALYSIS_SPANS = ("eval_harness.discriminability", "eval_harness.reliability_sweep")


def _ancestor(span: Span, names) -> Span | None:
    node = span.parent
    while node is not None and node.name not in names:
        node = node.parent
    return node


def _scope(span: Span) -> Span:
    """The CLI call a span ran under, else its op root: the unit within which
    repeated work on the same cycle or window counts as waste."""
    node = span.parent
    while node.parent is not None and node.name != "cli.main":
        node = node.parent
    return node


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the spans.  ``self_ms``, ``calls`` and counts
    are per op; a layer that was never called reads 0."""
    n_ops = max(1, len(tracer.roots))
    selfs = self_times(tracer.roots + tracer.spans)
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def self_ms(*names):
        return 1e3 * sum(selfs[id(s)] for n in names for s in spans(n)) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    fuse = spans("signals.fuse_orientation")
    m["signals.fuse_orientation.us_per_sample"] = ratio(
        1e6 * sum(selfs[id(s)] for s in fuse), sum(s.note for s in fuse))
    for name in ("signals.fuse_orientation", "signals.bandpass",
                 "signals.extract_vertical", "signals.preprocess_record",
                 "gait.detect_cycles"):
        m[f"{name}.self_ms"] = self_ms(name)

    resampled = 0
    distinct: dict[int, set] = {}
    for s in spans("gait.cycles_from_bounds"):
        z, bounds = s.note
        q = (len(bounds) - 1) // 2
        resampled += q
        distinct.setdefault(id(_scope(s)), set()).update(
            (id(z), int(bounds[2 * i]), int(bounds[2 * i + 2])) for i in range(q))
    m["gait.cycles_from_bounds.self_ms"] = self_ms("gait.cycles_from_bounds")
    m["gait.cycles_resampled"] = resampled / n_ops
    m["gait.resample_useful_ratio"] = ratio(
        sum(len(v) for v in distinct.values()), resampled)

    m["dataset_io.sliding_windows.self_ms"] = self_ms("dataset_io.sliding_windows")
    m["dataset_io.sliding_windows.calls"] = len(spans("dataset_io.sliding_windows")) / n_ops
    m["dataset_io.load_csv.self_ms"] = self_ms("dataset_io.load_csv")
    m["dataset_io.load_csv.mb_read"] = sum(
        s.note for s in spans("dataset_io.load_csv")) / 1e6 / n_ops

    quantize = spans("fingerprint.quantize")
    windows: dict[int, set] = {}
    for s in quantize:
        windows.setdefault(id(_scope(s)), set()).add(id(s.note))
    m["fingerprint.quantize.calls"] = len(quantize) / n_ops
    m["fingerprint.quantize_per_window"] = ratio(
        len(quantize), sum(len(v) for v in windows.values()))
    m["fingerprint.self_ms"] = self_ms(*FINGERPRINT_SPANS)

    decode = spans("fuzzy_ecc.decode")
    ok = [1e6 * s.duration for s in decode if s.note]
    bad = [1e6 * s.duration for s in decode if not s.note]
    m["fuzzy_ecc.decode.calls"] = len(decode) / n_ops
    m["fuzzy_ecc.decode.ok_us_p50"] = statistics.median(ok) if ok else 0.0
    m["fuzzy_ecc.decode.fail_us_p50"] = statistics.median(bad) if bad else 0.0
    m["fuzzy_ecc.decode.success_ratio"] = ratio(len(ok), len(decode))

    m["protocol.run_session.self_ms"] = self_ms("protocol.run_session")
    m["protocol.recv_wait_ms"] = 1e3 * sum(
        s.duration for s in spans("protocol.recv_frame")) / n_ops
    longest: dict[int, float] = {}
    for s in spans("protocol.run_session"):
        longest[s.op] = max(longest.get(s.op, 0.0), s.duration)
    pairs = spans("protocol.run_pair_in_memory")
    m["protocol.thread_overhead_ms"] = 1e3 * sum(
        s.duration - longest.get(s.op, 0.0) for s in pairs) / n_ops
    m["protocol.pake.self_ms"] = self_ms("protocol.pake")
    m["protocol.frames_per_session"] = ratio(sum(s.note[0] for s in pairs), len(pairs))
    m["protocol.bytes_per_session"] = ratio(sum(s.note[1] for s in pairs), len(pairs))

    for name in ANALYSIS_SPANS:
        m[f"{name}.self_ms"] = self_ms(name)
    preprocessing = sum(
        s.duration for n in ("signals.preprocess_record", "gait.detect_cycles")
        for s in spans(n) if _ancestor(s, ANALYSIS_SPANS) is not None)
    m["eval_harness.preprocess_share"] = ratio(
        preprocessing, sum(s.duration for n in ANALYSIS_SPANS for s in spans(n)))
    m["cli.main.self_ms"] = self_ms("cli.main")
    return m


def call_table(tracer: Tracer) -> list[tuple[str, float, float, float]]:
    """(name, calls per op, inclusive ms per call, self ms per call) for
    every span name that was called."""
    n_ops = max(1, len(tracer.roots))
    selfs = self_times(tracer.roots + tracer.spans)
    rows: dict[str, list[float]] = {}
    for s in tracer.spans:
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[id(s)]
    return [(name, n / n_ops, 1e3 * incl / n, 1e3 * own / n)
            for name, (n, incl, own) in sorted(rows.items())]
