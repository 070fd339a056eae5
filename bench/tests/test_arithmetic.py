"""The benchmark's own arithmetic: self time, the tail-percentile rule,
expected session outcomes, probes whose targets are gone, bytes read.

    python3 -m pytest -q bench/tests
"""

import json
import sys
import threading
import time
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans
import workloads


def _span(name, start, end, parent=None, thread=0):
    s = spans.Span(name, start, parent, 0, thread)
    s.end = end
    return s


# -- self time ------------------------------------------------------------------------

def test_union_merges_overlaps_and_clips():
    assert spans.union_length([(1, 6), (4, 9)], 0, 10) == 8
    assert spans.union_length([(1, 2), (3, 4)], 0, 10) == 2
    assert spans.union_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert spans.union_length([], 0, 10) == 0


def test_self_time_subtracts_union_of_overlapping_children_on_two_threads():
    root = _span("op", 0.0, 10.0)
    a = _span("protocol.run_session", 1.0, 6.0, root, thread=1)
    b = _span("protocol.run_session", 4.0, 9.0, root, thread=2)
    grandchild = _span("fuzzy_ecc.decode", 2.0, 3.0, a, thread=1)
    selfs = spans.self_times([root, a, b, grandchild])
    assert selfs[id(root)] == pytest.approx(2.0)  # not 10 - 5 - 5
    assert selfs[id(a)] == pytest.approx(4.0)
    assert selfs[id(b)] == pytest.approx(5.0)
    assert selfs[id(grandchild)] == pytest.approx(1.0)


def test_spans_on_pool_threads_take_the_op_root_as_parent():
    tracer = spans.Tracer()
    tracer.begin_op(3)
    outer = tracer.enter("protocol.run_pair_in_memory")
    seen = []

    def pool_thread():
        inner = tracer.enter("protocol.run_session")
        tracer.exit(inner)
        seen.append(inner)

    worker = threading.Thread(target=pool_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.exit(outer)
    tracer.end_op()
    (inner,) = seen
    assert inner.parent is tracer.roots[0] and inner.op == 3
    assert inner.thread != outer.thread
    assert outer.parent is tracer.roots[0]


def test_spans_are_written_once_with_parent_ids(tmp_path):
    tracer = spans.Tracer()
    tracer.begin_op(0)
    outer = tracer.enter("cli.main")
    tracer.exit(tracer.enter("dataset_io.load_csv"))
    tracer.exit(outer)
    tracer.end_op()
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["op", "cli.main", "dataset_io.load_csv"]
    assert [r["parent"] for r in rows] == [None, 0, 1]
    assert all(r["op"] == 0 and r["end"] >= r["start"] for r in rows)


def test_calls_outside_an_op_record_nothing():
    tracer = spans.Tracer()
    assert tracer.enter("signals.bandpass") is None
    assert tracer.spans == []


def test_thread_overhead_is_pair_span_minus_longest_session():
    tracer = spans.Tracer()
    root = _span("op", 0.0, 10.0)
    pair = _span("protocol.run_pair_in_memory", 0.5, 9.5, root)
    pair.note = (5, 460)
    tracer.roots = [root]
    tracer.spans = [pair, _span("protocol.run_session", 1.0, 6.0, root, 1),
                    _span("protocol.run_session", 1.5, 8.5, root, 2)]
    m = spans.layer_metrics(tracer)
    assert m["protocol.thread_overhead_ms"] == pytest.approx(1e3 * (9.0 - 7.0))
    assert m["protocol.frames_per_session"] == 5
    assert m["protocol.run_session.self_ms"] == pytest.approx(1e3 * 12.0)


# -- percentile rules -----------------------------------------------------------------------

def test_latencies_are_scaled_by_the_calibrations_either_side():
    phase = run.Phase()
    phase.latencies = [0.010, 0.020, 0.030]
    phase.calibrated_before = [0, 0, 1]
    # the machine slows down between the second and third op; the third op
    # also holds two calibrations of its own, one at each speed
    ref = run.CAL_REFERENCE_S
    phase.calibrations = [ref, 2 * ref, 2 * ref]
    phase.within = [[], [], [ref, 2 * ref]]
    assert phase.scaled_latencies() == pytest.approx([0.010 / 1.5, 0.020 / 1.5, 0.030 / 1.75])


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(99))) is None
    values = list(range(100))
    p90 = run.tail_percentile(values)
    assert p90 == 89
    assert sum(v > p90 for v in values) == 10
    assert run.tail_percentile([]) is None
    assert run.tail_percentile(list(range(1000))) == 899


# -- expected outcomes ------------------------------------------------------------------

def _result(established, failure=None, secret=None):
    return SimpleNamespace(established=established, failure=failure, secret=secret,
                           key=None)


def test_decode_failure_and_abort_on_both_ends_are_not_failures():
    decode_fail = _result(False, "decode failure: fingerprint too far from the codespace")
    peer_abort = _result(False, "peer abort: decode failure")
    assert workloads.session_problems(decode_fail, peer_abort) == []


def test_split_outcomes_and_unequal_secrets_are_failures():
    assert workloads.session_problems(_result(True, secret=b"x"), _result(False, "x"))
    assert workloads.session_problems(_result(True, secret=b"x"),
                                      _result(True, secret=b"y"))


class _FakeWorkload:
    min_ops = 4

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def prepare(self, i):
        outcome = self.outcomes[i]
        if isinstance(outcome, Exception):
            def boom():
                raise outcome
            return boom
        return lambda: outcome

    def check(self, i, result):
        return workloads.session_problems(*result)


def test_measure_counts_only_broken_checks_and_escaping_exceptions():
    rejected = (_result(False, "decode failure"), _result(False, "peer abort"))
    split = (_result(True, secret=b"k"), _result(False, "timeout"))
    phase = run.measure(_FakeWorkload([rejected, rejected, split, ValueError("x")]),
                        0, seconds=0.0)
    assert len(phase.latencies) == 4
    assert phase.failed == 2
    assert any("ValueError" in p for p in phase.problems)


class _SpinWorkload:
    """One op that spins for ``seconds`` of wall time."""
    min_ops = 1

    def __init__(self, seconds):
        self.seconds = seconds

    def prepare(self, i):
        def spin():
            end = time.perf_counter() + self.seconds
            while time.perf_counter() < end:
                pass
        return spin

    def check(self, i, result):
        return []


def test_a_long_op_is_calibrated_during_it_and_the_calibrations_pause_its_clock():
    phase = run.measure(_SpinWorkload(3 * run.CAL_EVERY_S + 0.05), 0, seconds=0.0)
    (latency,), (within,) = phase.latencies, phase.within
    assert len(within) == 3
    # the op spins to a deadline, so its clock reads the spin minus the pauses
    assert latency < 3 * run.CAL_EVERY_S + 0.05
    assert len(phase.calibrations) == 2


# -- probes -----------------------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    core.work = work
    user.work = work  # what ``from .core import work`` leaves behind
    pkg.work = work
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, core, user, work


def test_probe_wraps_every_alias_and_uninstall_restores(fake_package):
    pkg, core, user, work = fake_package
    tracer = spans.Tracer()
    undo = spans.install(tracer, "fakepkg",
                         [("core.work", "core", "work", None, None)])
    assert core.work is not work and user.work is core.work and pkg.work is core.work
    tracer.begin_op(0)
    assert user.work(1) == 2 and core.work(2) == 3
    tracer.end_op()
    assert [s.name for s in tracer.spans] == ["core.work", "core.work"]
    spans.uninstall(undo)
    assert core.work is work and user.work is work and pkg.work is work


def test_probe_with_missing_target_is_a_no_op(fake_package):
    tracer = spans.Tracer()
    undo = spans.install(tracer, "fakepkg", [
        ("core.gone", "core", "gone", None, None),
        ("nomodule.f", "nomodule", "f", None, None),
        ("core.Cls.method", "core", "Cls.method", None, None)])
    assert undo == []
    tracer.begin_op(0)
    tracer.end_op()
    m = spans.layer_metrics(tracer)  # every layer reads zero calls, no crash
    assert m["fuzzy_ecc.decode.calls"] == 0
    assert m["signals.fuse_orientation.us_per_sample"] == 0


@pytest.mark.skipif(spans._bytes_read_so_far() is None,
                    reason="the kernel does not report bytes read")
def test_load_csv_probe_counts_the_bytes_the_call_reads(fake_package, tmp_path):
    _, core, _, _ = fake_package
    corpus = tmp_path / "rec.csv"
    corpus.write_bytes(b"x" * 2_000_000)
    (tmp_path / "unread.csv").write_bytes(b"y" * 3_000_000)
    core.load_csv = lambda path: len(Path(path).read_bytes())
    tracer = spans.Tracer()
    undo = spans.install(tracer, "fakepkg", [
        ("dataset_io.load_csv", "core", "load_csv", spans._bytes_read,
         spans._bytes_read_so_far)])
    tracer.begin_op(0)
    core.load_csv(corpus)
    core.load_csv(corpus)  # a second read counts again
    tracer.end_op()
    spans.uninstall(undo)
    assert spans.layer_metrics(tracer)["dataset_io.load_csv.mb_read"] == \
        pytest.approx(4.0, abs=0.01)


# -- pair counts ------------------------------------------------------------------------

def test_implied_pair_counts_at_the_baseline_size():
    cycles = {(f"s{i:02d}", p): 299 for i in range(4)
              for p in ("chest", "forearm", "waist")}
    assert workloads.implied_pairs(cycles, 192) == (132, 198)
    assert workloads.implied_pairs(cycles, 128) == (204, 306)
    # one subject's records detected at the step rate: more windows, and
    # only pairs where both sides have them
    cycles.update({("s02", p): 449 for p in ("chest", "forearm", "waist")})
    assert workloads.implied_pairs(cycles, 192) == (150, 198)
