import hashlib
import io
import json
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from gaitpair import cli, dataset_io
from gaitpair.config import Config
from gaitpair.dataset_io import (
    CACHE_DIR,
    CSV_COLUMNS,
    Corpus,
    PositionSpec,
    SyntheticGaitSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    sliding_windows,
    synthetic_vertical_signal,
)
from gaitpair.errors import (
    MissingColumns,
    NonMonotoneTimestamps,
    SchemaMismatch,
    SignalTooShort,
)
from gaitpair.fingerprint import average_cycle, quantize, reduce, reliability_order, similarity
from gaitpair.gait import cycles_from_bounds, detect_cycles
from gaitpair.signals import preprocess_record


# -- synthetic generation -----------------------------------------------------------

def test_same_seed_gives_identical_corpora():
    spec = SyntheticGaitSpec(n_cycles=20, rng_seed=5)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.subject_id == rb.subject_id and ra.position == rb.position
        assert np.array_equal(ra.t, rb.t)
        assert np.array_equal(ra.acc, rb.acc)
        assert np.array_equal(ra.gyro, rb.gyro)


def test_noiseless_zero_jitter_positions_are_identical():
    spec = SyntheticGaitSpec(
        n_cycles=20,
        per_position=(
            ("chest", PositionSpec(phase_jitter=0.0, noise_snr_db=np.inf)),
            ("waist", PositionSpec(phase_jitter=0.0, noise_snr_db=np.inf)),
        ),
        rng_seed=1,
        n_subjects=1,
    )
    corpus = generate_synthetic(spec)
    sig_a = preprocess_record(corpus.records[0])
    sig_b = preprocess_record(corpus.records[1])
    assert np.allclose(sig_a.z, sig_b.z, atol=1e-9)


def test_two_second_cycles_detected_near_100_samples():
    spec = SyntheticGaitSpec(n_cycles=30, base_period=2.0, rng_seed=2,
                             n_subjects=1)
    corpus = generate_synthetic(spec)
    sig = preprocess_record(corpus.records[0])
    det = detect_cycles(sig)
    full = 2.0 * float(np.mean(np.diff(det.minima_indices)))
    assert abs(full - 100.0) < 10.0


def test_subjects_have_independent_walks():
    spec = SyntheticGaitSpec(n_cycles=20, rng_seed=3)
    corpus = generate_synthetic(spec)
    a = next(r for r in corpus.records if r.subject_id == "s00")
    b = next(r for r in corpus.records if r.subject_id == "s01")
    assert not np.allclose(a.acc, b.acc, atol=0.5)


# -- CSV round trip --------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    spec = SyntheticGaitSpec(n_cycles=5, rng_seed=4, n_subjects=1)
    corpus = generate_synthetic(spec)
    manifest = save_csv(corpus, tmp_path)
    loaded = load_csv(manifest)
    assert len(loaded.records) == len(corpus.records)
    for orig, back in zip(corpus.records, loaded.records):
        assert (orig.subject_id, orig.position, orig.recording_id) == \
            (back.subject_id, back.position, back.recording_id)
        assert back.sample_rate == orig.sample_rate
        assert np.array_equal(orig.t, back.t)
        assert np.array_equal(orig.acc, back.acc)
        assert np.array_equal(orig.gyro, back.gyro)


def test_save_csv_format_is_pinned(tmp_path):
    # digest of the per-sample repr writer's output; the format must not drift
    spec = SyntheticGaitSpec(n_cycles=5, rng_seed=4, n_subjects=1)
    save_csv(generate_synthetic(spec), tmp_path)
    assert hashlib.sha256((tmp_path / "rec_0000.csv").read_bytes()).hexdigest() == \
        "d89af1fda361195541b861107480e19afc606b802d2040b414d1952700581363"


def test_load_accepts_directory_path(tmp_path):
    corpus = generate_synthetic(SyntheticGaitSpec(n_cycles=5, rng_seed=4,
                                                  n_subjects=1))
    save_csv(corpus, tmp_path)
    loaded = load_csv(tmp_path)
    assert len(loaded.records) == len(corpus.records)


def test_empty_manifest_gives_empty_corpus(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"schema_version": 1, "recordings": []}))
    corpus = load_csv(tmp_path)
    assert corpus.records == []


def test_missing_columns_named(tmp_path):
    cols = [c for c in CSV_COLUMNS if c != "gz"]
    (tmp_path / "rec.csv").write_text(",".join(cols) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1,
        "recordings": [{"file": "rec.csv", "subject_id": "s", "position": "waist",
                        "recording_id": "0", "sample_rate_hz": 50.0}]}))
    with pytest.raises(MissingColumns, match="gz"):
        load_csv(tmp_path)


def test_non_monotone_timestamps(tmp_path):
    rows = ["0,0,0,9.81,0,0,0", "20,0,0,9.81,0,0,0", "10,0,0,9.81,0,0,0"]
    (tmp_path / "rec.csv").write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1,
        "recordings": [{"file": "rec.csv", "subject_id": "s", "position": "waist",
                        "recording_id": "0", "sample_rate_hz": 50.0}]}))
    with pytest.raises(NonMonotoneTimestamps):
        load_csv(tmp_path)


def test_bad_manifest_json(tmp_path):
    (tmp_path / "manifest.json").write_text("{nope")
    with pytest.raises(SchemaMismatch):
        load_csv(tmp_path)


def test_manifest_entry_missing_field(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1,
        "recordings": [{"file": "rec.csv", "subject_id": "s"}]}))
    with pytest.raises(SchemaMismatch):
        load_csv(tmp_path)


def test_duplicate_record_keys_rejected():
    corpus = generate_synthetic(SyntheticGaitSpec(n_cycles=5, rng_seed=4,
                                                  n_subjects=1))
    with pytest.raises(SchemaMismatch):
        Corpus(records=corpus.records + [corpus.records[0]])


def test_osaka_family_warnings(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1, "dataset_family": "osaka", "recordings": []}))
    corpus = load_csv(tmp_path)
    assert any("harness" in w for w in corpus.warnings)
    assert any("6-8" in w for w in corpus.warnings)


# -- parse cache ---------------------------------------------------------------------

MANIFEST_ENTRY = {"file": "rec.csv", "subject_id": "s", "position": "waist",
                  "recording_id": "0", "sample_rate_hz": 50.0}


@pytest.fixture
def saved_corpus(tmp_path):
    save_csv(generate_synthetic(SyntheticGaitSpec(n_cycles=5, rng_seed=4,
                                                  n_subjects=1)), tmp_path)
    return tmp_path


@pytest.fixture
def loadtxt_calls(monkeypatch):
    calls = []
    real = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


def assert_same_records(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        for name in ("t", "acc", "gyro"):
            x, y = getattr(ra, name), getattr(rb, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)


def cache_entries(corpus_dir):
    return sorted(p.name for p in (corpus_dir / CACHE_DIR).iterdir())


def write_entry(entry, digest, rows):
    """A cache entry as the loader lays it out: the CSV's SHA-256, then the
    (7, n) rows in the .npy format."""
    with open(entry, "wb") as fh:
        fh.write(digest)
        np.lib.format.write_array(fh, np.ascontiguousarray(rows))


def read_entry(entry):
    raw = entry.read_bytes()
    return raw[:32], np.lib.format.read_array(io.BytesIO(raw[32:]))


def test_warm_load_equals_cold_load(saved_corpus):
    cold = load_csv(saved_corpus)
    assert cache_entries(saved_corpus) == [f"rec_{i:04d}.csv.rows" for i in range(3)]
    assert_same_records(load_csv(saved_corpus), cold)


def test_entry_is_the_digest_then_the_component_rows(saved_corpus):
    rec = load_csv(saved_corpus).records[1]
    digest, rows = read_entry(saved_corpus / CACHE_DIR / "rec_0001.csv.rows")
    assert digest == hashlib.sha256((saved_corpus / "rec_0001.csv").read_bytes()).digest()
    assert rows.dtype == np.float64 and rows.shape == (7, rec.n_samples)
    assert rows.flags.c_contiguous
    assert np.array_equal(rows[0] / 1000.0, rec.t)
    assert np.array_equal(rows[1:4], rec.acc.T) and np.array_equal(rows[4:7], rec.gyro.T)


def test_warm_load_does_not_parse(saved_corpus, loadtxt_calls):
    load_csv(saved_corpus)
    assert len(loadtxt_calls) == 3
    load_csv(saved_corpus)
    assert len(loadtxt_calls) == 3


def test_edit_with_size_and_mtime_restored_is_reparsed(saved_corpus, loadtxt_calls):
    csv = saved_corpus / "rec_0000.csv"
    before = load_csv(saved_corpus).records[0]
    stat = csv.stat()
    lines = csv.read_text().split("\n")
    cells = lines[1].split(",")
    cells[1] = cells[1][:-1] + str((int(cells[1][-1]) + 1) % 10)  # ax, same length
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines))
    os.utime(csv, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert csv.stat().st_size == stat.st_size
    assert csv.stat().st_mtime_ns == stat.st_mtime_ns

    calls = len(loadtxt_calls)
    after = load_csv(saved_corpus).records[0]
    assert len(loadtxt_calls) == calls + 1
    assert after.acc[0, 0] == float(cells[1]) != before.acc[0, 0]
    assert cache_entries(saved_corpus) == [f"rec_{i:04d}.csv.rows" for i in range(3)]
    assert load_csv(saved_corpus).records[0].acc[0, 0] == after.acc[0, 0]
    assert len(loadtxt_calls) == calls + 1


@pytest.mark.parametrize("damage", ["truncate", "garbage", "wrong-digest"])
def test_damaged_entry_falls_back_and_is_rewritten(saved_corpus, loadtxt_calls, damage):
    cold = load_csv(saved_corpus)
    entry = saved_corpus / CACHE_DIR / "rec_0001.csv.rows"
    if damage == "truncate":
        entry.write_bytes(entry.read_bytes()[:1000])
    elif damage == "garbage":
        entry.write_bytes(b"not a cache entry")
    else:
        _, rows = read_entry(entry)
        write_entry(entry, bytes(32), rows + 1.0)

    calls = len(loadtxt_calls)
    assert_same_records(load_csv(saved_corpus), cold)
    assert len(loadtxt_calls) == calls + 1
    assert_same_records(load_csv(saved_corpus), cold)
    assert len(loadtxt_calls) == calls + 1


def test_failed_cache_write_still_loads(saved_corpus, monkeypatch):
    cold = load_csv(saved_corpus)
    for entry in (saved_corpus / CACHE_DIR).iterdir():
        entry.unlink()

    def refuse(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(dataset_io.os, "replace", refuse)
    assert_same_records(load_csv(saved_corpus), cold)
    assert cache_entries(saved_corpus) == []


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
def test_cache_entry_mode_follows_umask(saved_corpus, umask):
    old = os.umask(umask)
    try:
        load_csv(saved_corpus)
    finally:
        os.umask(old)
    for entry in (saved_corpus / CACHE_DIR).iterdir():
        assert entry.stat().st_mode & 0o777 == 0o666 & ~umask, entry.name


def test_unusable_cache_directory_still_loads(saved_corpus):
    cold = load_csv(saved_corpus)
    for entry in (saved_corpus / CACHE_DIR).iterdir():
        entry.unlink()
    (saved_corpus / CACHE_DIR).rmdir()
    (saved_corpus / CACHE_DIR).write_text("a file where the cache directory goes")
    assert_same_records(load_csv(saved_corpus), cold)


def write_one_recording(corpus_dir, text):
    (corpus_dir / "rec.csv").write_text(text)
    (corpus_dir / "manifest.json").write_text(json.dumps({
        "schema_version": 1, "recordings": [MANIFEST_ENTRY]}))


GOOD_ROWS = ["0,0,0,9.81,0,0,0", "20,0,0,9.81,0,0,0", "40,0,0,9.81,0,0,0"]


@pytest.mark.parametrize("text, error", [
    ("timestamp_ms,ax,ay,az,gx,gy\n" + "\n".join(r[:-2] for r in GOOD_ROWS),
     MissingColumns),
    ("ax,timestamp_ms,ay,az,gx,gy,gz\n" + "\n".join(GOOD_ROWS), SchemaMismatch),
    (",".join(CSV_COLUMNS) + ",extra\n" + "\n".join(r + ",0" for r in GOOD_ROWS),
     SchemaMismatch),
    (",".join(CSV_COLUMNS) + "\n" + "\n".join(r[:-2] for r in GOOD_ROWS),
     SchemaMismatch),
    (",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS[::-1]), NonMonotoneTimestamps),
    (",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS + ["a,b,c,d,e,f,g"]),
     SchemaMismatch),
    (",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS[:2] + [GOOD_ROWS[2] + ",0"]),
     SchemaMismatch),
])
def test_invalid_file_raises_and_is_not_cached(tmp_path, text, error):
    write_one_recording(tmp_path, text)
    for _ in range(2):
        with pytest.raises(error):
            load_csv(tmp_path)
    assert not (tmp_path / CACHE_DIR).exists()


@pytest.mark.parametrize("manifest", [
    None,
    {"recordings": [{**MANIFEST_ENTRY, "sample_rate_hz": float("nan")}]},
    {"recordings": [{**MANIFEST_ENTRY, "sample_rate_hz": float("inf")}]},
    {"recordings": [], "warnings": 5},
    {"recordings": [], "schema_version": "one"},
], ids=["missing", "rate-nan", "rate-inf", "warnings-not-a-list", "version-not-an-int"])
def test_malformed_manifest_is_a_schema_error_naming_it(tmp_path, manifest):
    write_one_recording(tmp_path, ",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS))
    if manifest is None:
        (tmp_path / "manifest.json").unlink()
    else:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SchemaMismatch, match="manifest.json"):
        load_csv(tmp_path)


def test_cache_hit_still_checks_timestamps(tmp_path, loadtxt_calls):
    write_one_recording(tmp_path, ",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS))
    load_csv(tmp_path)
    rows = GOOD_ROWS[::-1]
    text = ",".join(CSV_COLUMNS) + "\n" + "\n".join(rows)
    write_one_recording(tmp_path, text)
    # an entry for exactly these bytes, as if the check had once been skipped
    write_entry(tmp_path / CACHE_DIR / "rec.csv.rows", hashlib.sha256(text.encode()).digest(),
                np.array([[float(v) for v in r.split(",")] for r in rows]).T)
    with pytest.raises(NonMonotoneTimestamps):
        load_csv(tmp_path)
    assert len(loadtxt_calls) == 1  # the entry was a hit: the reversed rows were never parsed


def test_stale_npz_entry_beside_a_fresh_corpus_is_not_read(saved_corpus, loadtxt_calls,
                                                           monkeypatch):
    # entries in the earlier .npz layout, keyed by the right digests but
    # holding other samples: the load parses, and removes them unread
    (saved_corpus / CACHE_DIR).mkdir()
    for i in range(3):
        csv = saved_corpus / f"rec_{i:04d}.csv"
        np.savez(saved_corpus / CACHE_DIR / f"{csv.name}.npz",
                 sha256=np.frombuffer(hashlib.sha256(csv.read_bytes()).digest(),
                                      dtype=np.uint8),
                 data=np.zeros((5, len(CSV_COLUMNS))))

    def refuse(*args, **kwargs):
        raise AssertionError("a .npz entry was opened")

    monkeypatch.setattr(np, "load", refuse)
    loaded = load_csv(saved_corpus)
    assert len(loadtxt_calls) == 3
    assert cache_entries(saved_corpus) == [f"rec_{i:04d}.csv.rows" for i in range(3)]
    for entry in (saved_corpus / CACHE_DIR).iterdir():
        entry.unlink()
    assert_same_records(loaded, load_csv(saved_corpus))
    assert len(loadtxt_calls) == 6


def test_npz_entry_beside_a_current_entry_is_removed_on_a_hit(saved_corpus, loadtxt_calls):
    # a corpus cached by an earlier loader, then loaded by this one: its
    # .rows entries are current, and a .npz entry still lies beside each
    load_csv(saved_corpus)
    for i in range(3):
        (saved_corpus / CACHE_DIR / f"rec_{i:04d}.csv.npz").write_bytes(b"stale")
    calls = len(loadtxt_calls)
    load_csv(saved_corpus)
    assert len(loadtxt_calls) == calls
    assert cache_entries(saved_corpus) == [f"rec_{i:04d}.csv.rows" for i in range(3)]


def test_concurrent_cold_loads_of_one_corpus_agree(saved_corpus, monkeypatch):
    # more threads than CPUs, each loading with a pool wider than the CPUs,
    # and a short switch interval: every load must see a whole entry or none
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    reference = load_csv(saved_corpus)
    results, errors = [], []

    def load():
        try:
            results.append(load_csv(saved_corpus))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shutil.rmtree(saved_corpus / CACHE_DIR)
            threads = [threading.Thread(target=load) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(results) == 18
    for corpus in results:
        assert_same_records(corpus, reference)
    assert cache_entries(saved_corpus) == [f"rec_{i:04d}.csv.rows" for i in range(3)]
    for i in range(3):
        digest, rows = read_entry(saved_corpus / CACHE_DIR / f"rec_{i:04d}.csv.rows")
        assert digest == hashlib.sha256((saved_corpus / f"rec_{i:04d}.csv").read_bytes()).digest()
        assert np.array_equal(rows[0] / 1000.0, reference.records[i].t)


def write_recordings(corpus_dir, entries):
    """good.csv, badheader.csv and a manifest of ``entries``: each is
    MANIFEST_ENTRY updated by it, and a key it sets to None is left out."""
    texts = {"good.csv": ",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS),
             "badheader.csv": "a,b,c\n" + "\n".join(GOOD_ROWS)}
    for name, text in texts.items():
        (corpus_dir / name).write_text(text)
    recordings = [{key: value for key, value in
                   {**MANIFEST_ENTRY, "recording_id": str(i), **entry}.items()
                   if value is not None}
                  for i, entry in enumerate(entries)]
    (corpus_dir / "manifest.json").write_text(json.dumps({"recordings": recordings}))


@pytest.mark.parametrize("entries, error, match", [
    ([{"file": "good.csv"}, {"file": "good.csv", "subject_id": None},
      {"file": "good.csv"}, {"file": "missing.csv"}, {"file": "good.csv"}],
     SchemaMismatch, "entry missing 'subject_id'.*'recording_id': '1'"),
    ([{"file": "missing.csv"}, {"file": "good.csv"}, {"file": "badheader.csv"}],
     SchemaMismatch, "missing.csv: .*No such file"),
], ids=["missing-key-before-missing-file", "missing-file-before-bad-header"])
def test_first_bad_entry_in_manifest_order_is_named(tmp_path, entries, error, match):
    write_recordings(tmp_path, entries)
    for cpus in ({0}, set(range(8))):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            with pytest.raises(error, match=match) as info:
                load_csv(tmp_path)
        assert type(info.value) is error


def test_loaded_records_keep_manifest_order(tmp_path):
    corpus = generate_synthetic(SyntheticGaitSpec(n_cycles=5, rng_seed=4, n_subjects=3))
    save_csv(corpus, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["recordings"].reverse()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    loaded = load_csv(tmp_path)
    assert_same_records(loaded, Corpus(records=corpus.records[::-1]))
    assert [(r.subject_id, r.position) for r in loaded.records] == \
        [(r.subject_id, r.position) for r in corpus.records[::-1]]


def test_cold_and_warm_eval_reports_are_byte_identical(tmp_path, capsys, loadtxt_calls):
    corpus_dir = tmp_path / "corpus"
    save_csv(generate_synthetic(SyntheticGaitSpec(n_cycles=100, n_subjects=2,
                                                  rng_seed=21)), corpus_dir)
    for run in ("cold", "warm"):
        assert cli.main(["eval", str(corpus_dir), "--analysis", "discriminability",
                         "--out", str(tmp_path / run)]) == 0
        assert len(loadtxt_calls) == 6  # the warm run parses nothing
    names = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "warm").iterdir())
    for name in names:
        assert (tmp_path / "cold" / name).read_bytes() == \
            (tmp_path / "warm" / name).read_bytes()


# -- sliding windows --------------------------------------------------------------------

def processed_signal(seed=0, n_cycles=30):
    from gaitpair.signals import bandpass
    raw = synthetic_vertical_signal(seed=seed, n_cycles=n_cycles, lead_s=2.0)
    return bandpass(raw)


def test_exactly_one_window():
    sig = processed_signal(seed=1, n_cycles=20)
    det = detect_cycles(sig)
    total = (det.minima_indices.shape[0] - 1) // 2
    windows = sliding_windows(sig, total, overlap=0.5, detection=det)
    assert len(windows) == 1
    assert windows[0].start_cycle == 0


def test_zero_overlap_tiles_signal():
    sig = processed_signal(seed=2, n_cycles=40)
    det = detect_cycles(sig)
    total = (det.minima_indices.shape[0] - 1) // 2
    w = 8
    windows = sliding_windows(sig, w, overlap=0.0, detection=det)
    assert len(windows) == total // w
    # each window starts at the boundary where the previous one ends
    assert [win.start_cycle for win in windows] == list(range(0, len(windows) * w, w))
    tiled = np.concatenate([win.sequence.cycles for win in windows])
    covered = det.minima_indices[: 2 * (total // w) * w + 1]
    assert np.array_equal(tiled, cycles_from_bounds(sig.z, covered, 40))


def test_half_overlap_advances_half_window():
    sig = processed_signal(seed=3, n_cycles=60)
    det = detect_cycles(sig)
    windows = sliding_windows(sig, 24, overlap=0.5, detection=det)
    starts = [w.start_cycle for w in windows]
    assert starts == list(range(0, starts[-1] + 1, 12))


def test_windows_cover_whole_half_cycles():
    sig = processed_signal(seed=4, n_cycles=30)
    det = detect_cycles(sig)
    windows = sliding_windows(sig, 6, overlap=0.5, detection=det)
    for w in windows:
        bounds = det.minima_indices[2 * w.start_cycle:2 * w.start_cycle + 2 * 6 + 1]
        assert len(bounds) == 2 * 6 + 1
        assert w.sequence.q == 6
        assert np.array_equal(w.sequence.cycles, cycles_from_bounds(sig.z, bounds, 40))


@pytest.mark.parametrize("overlap", [0.0, 0.5])
@pytest.mark.parametrize("window_cycles", [32, 36, 40, 44, 48, 64])
def test_windows_equal_per_window_resampling(window_cycles, overlap):
    # reference: resample each window's own cycles from its half-cycle bounds
    sig = processed_signal(seed=8, n_cycles=150)
    det = detect_cycles(sig)
    windows = sliding_windows(sig, window_cycles, overlap=overlap, rho=40,
                              detection=det)
    assert windows
    for w in windows:
        lo = 2 * w.start_cycle
        bounds = det.minima_indices[lo:lo + 2 * window_cycles + 1]
        assert len(bounds) == 2 * window_cycles + 1
        assert np.array_equal(w.sequence.cycles,
                              cycles_from_bounds(sig.z, bounds, 40))


def test_window_cycles_are_read_only():
    sig = processed_signal(seed=8, n_cycles=40)
    windows = sliding_windows(sig, 8, overlap=0.5)
    with pytest.raises(ValueError):
        windows[0].sequence.cycles[-1, 0] = 0.0


def test_window_too_short():
    sig = processed_signal(seed=5, n_cycles=10)
    with pytest.raises(SignalTooShort):
        sliding_windows(sig, 48)


def test_invalid_overlap():
    sig = processed_signal(seed=6, n_cycles=12)
    with pytest.raises(ValueError):
        sliding_windows(sig, 4, overlap=1.0)


# -- separability ---------------------------------------------------------------------------

def test_synthetic_intra_beats_inter_by_20_points(tiny_corpus):
    cfg = Config()
    q = cfg.cycles_per_fingerprint
    fps = {}
    for rec in tiny_corpus.records:
        sig = preprocess_record(rec, band=cfg.band)
        det = detect_cycles(sig)
        wins = sliding_windows(sig, q, overlap=0.5, rho=cfg.rho, detection=det)
        fp = quantize(wins[0].sequence, average_cycle(wins[0].sequence),
                      cfg.bits_per_cycle)
        fps[(rec.subject_id, rec.position)] = fp

    def sim(key_a, key_b):
        order = reliability_order(fps[key_a])
        return similarity(reduce(fps[key_a], order, cfg.cutoff),
                          reduce(fps[key_b], order, cfg.cutoff))

    positions = sorted({p for _, p in fps})
    subjects = sorted({s for s, _ in fps})
    intra = [sim((s, a), (s, b)) for s in subjects
             for i, a in enumerate(positions) for b in positions[i + 1:]]
    inter = [sim((subjects[0], p), (subjects[1], p)) for p in positions]
    assert np.mean(intra) - np.mean(inter) >= 0.20
