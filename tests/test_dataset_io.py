import hashlib
import io
import json
import os
import shutil
import sys
import threading
import tracemalloc
from pathlib import Path

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
    corpus_cycles,
    generate_synthetic,
    load_csv,
    read_manifest,
    save_csv,
    sliding_windows,
    synthetic_vertical_signal,
)
from gaitpair.errors import (
    ConfigError,
    EmptyStream,
    MissingColumns,
    NonMonotoneTimestamps,
    SchemaMismatch,
    SignalTooShort,
)
from gaitpair.fingerprint import average_cycle, quantize, reduce, reliability_order, similarity
from gaitpair.gait import cycles_from_bounds, detect_cycles
from gaitpair.signals import preprocess_record


# -- synthetic generation -----------------------------------------------------------

@pytest.mark.parametrize("spec", [
    {"per_position": (("chest", PositionSpec(phase_jitter=-1.0)),)},
    {"per_position": (("chest", PositionSpec(phase_jitter=float("nan"))),)},
], ids=["jitter-negative", "jitter-nan"])
def test_synthetic_spec_rejects_a_negative_or_non_finite_offset(spec):
    with pytest.raises(ConfigError, match="phase_jitter"):
        SyntheticGaitSpec(n_cycles=1, **spec)


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
    assert np.allclose(sig_a, sig_b, atol=1e-9)


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



@pytest.mark.parametrize("header, row", [
    (",".join(CSV_COLUMNS[:6]), "0,0,0,9.81,0,0,0"),
    (",".join(CSV_COLUMNS), "0,0,0,9.81,0,0"),
], ids=["six-column-header", "six-column-rows"])
def test_a_csv_fault_names_the_manifest_file(tmp_path, header, row):
    # a/rec.csv and b/rec.csv share a base name; the fault names the one at fault
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "rec.csv").write_text(f"{header}\n{row}\n{row}\n")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1,
        "recordings": [{"file": "a/rec.csv", "subject_id": "s", "position": "waist",
                        "recording_id": "0", "sample_rate_hz": 50.0}]}))
    with pytest.raises(SchemaMismatch, match="^a/rec.csv: "):
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


def test_each_load_opens_each_csv_once(saved_corpus, monkeypatch):
    opened = []  # shared by the pool threads; list.append is atomic
    real_open = open

    def counting(file, *args, **kwargs):
        if str(file).endswith(".csv"):
            opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(dataset_io, "open", counting, raising=False)
    csvs = [f"rec_{i:04d}.csv" for i in range(3)]
    for run in ("cold", "warm"):
        opened.clear()
        load_csv(saved_corpus)
        assert sorted(opened) == csvs, run


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_endings_load_to_equal_samples(saved_corpus, tmp_path_factory, loadtxt_calls,
                                            newline):
    lf = load_csv(saved_corpus)
    other = tmp_path_factory.mktemp("newline") / "corpus"
    shutil.copytree(saved_corpus, other, ignore=shutil.ignore_patterns(CACHE_DIR))
    for csv in other.glob("*.csv"):
        csv.write_bytes(csv.read_bytes().replace(b"\n", newline.encode()))
    for run in ("cold", "warm"):
        assert_same_records(load_csv(other), lf)
        assert len(loadtxt_calls) == 6, run  # the LF copy's 3 parses, then the cold load's
    assert cache_entries(other) == [f"rec_{i:04d}.csv.rows" for i in range(3)]


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
    (",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS[:2] + ["40,nan,0,9.81,0,0,0"]),
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
    {"recordings": [{**MANIFEST_ENTRY, "sample_rate_hz": 0}]},
    {"recordings": [{**MANIFEST_ENTRY, "sample_rate_hz": -50.0}]},
    {"recordings": [], "warnings": 5},
    {"recordings": [], "schema_version": "one"},
    {"recordings": [MANIFEST_ENTRY], "warnings": "check"},
    {"recordings": [MANIFEST_ENTRY], "warnings": ["check", 5]},
    {"recordings": [MANIFEST_ENTRY], "schema_version": 99},
    {"recordings": [MANIFEST_ENTRY, MANIFEST_ENTRY]},
], ids=["missing", "rate-nan", "rate-inf", "rate-zero", "rate-negative",
        "warnings-not-a-list", "version-not-an-int", "warnings-a-string",
        "warnings-not-strings", "version-99", "duplicate-key"])
def test_malformed_manifest_is_a_schema_error_naming_it(tmp_path, manifest, loadtxt_calls):
    write_one_recording(tmp_path, ",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS))
    if manifest is None:
        (tmp_path / "manifest.json").unlink()
    else:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SchemaMismatch, match="manifest.json"):
        load_csv(tmp_path)
    assert loadtxt_calls == []  # every fault is found before the CSV is read


def test_duplicate_manifest_key_is_named_before_any_csv_is_read(tmp_path, monkeypatch):
    write_one_recording(tmp_path, ",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS))
    (tmp_path / "manifest.json").write_text(json.dumps({"recordings": [
        MANIFEST_ENTRY, {**MANIFEST_ENTRY, "recording_id": "1"}, MANIFEST_ENTRY]}))

    def refuse(*args, **kwargs):
        raise AssertionError("a CSV was read")

    monkeypatch.setattr(dataset_io, "_read_recording_csv", refuse)
    with pytest.raises(SchemaMismatch, match=r"manifest.json: duplicate .* key "
                                             r"\('s', 'waist', '0'\)"):
        load_csv(tmp_path)
    assert not (tmp_path / CACHE_DIR).exists()


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


def test_cache_hit_still_checks_finiteness(tmp_path, loadtxt_calls):
    text = ",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS)
    write_one_recording(tmp_path, text)
    # an entry for these bytes that holds a NaN, as if written by hand
    rows = np.array([[float(v) for v in r.split(",")] for r in GOOD_ROWS]).T
    rows[1, 1] = np.nan
    (tmp_path / CACHE_DIR).mkdir()
    write_entry(tmp_path / CACHE_DIR / "rec.csv.rows",
                hashlib.sha256(text.encode()).digest(), rows)
    with pytest.raises(SchemaMismatch, match="rec.csv: a sample is not finite"):
        load_csv(tmp_path)
    assert loadtxt_calls == []  # the entry was a hit


def test_stale_npz_entry_beside_a_fresh_corpus_is_not_read(saved_corpus, loadtxt_calls,
                                                           monkeypatch):
    # entries in the earlier .npz layout, keyed by the right digests but
    # holding other samples: the load parses, and leaves them unread
    (saved_corpus / CACHE_DIR).mkdir()
    for i in range(3):
        csv = saved_corpus / f"rec_{i:04d}.csv"
        np.savez(saved_corpus / CACHE_DIR / f"{csv.name}.npz",
                 sha256=np.frombuffer(hashlib.sha256(csv.read_bytes()).digest(),
                                      dtype=np.uint8),
                 data=np.zeros((5, len(CSV_COLUMNS))))
    both = sorted(f"rec_{i:04d}.csv.{ext}" for i in range(3) for ext in ("npz", "rows"))

    def refuse(*args, **kwargs):
        raise AssertionError("a .npz entry was opened")

    monkeypatch.setattr(np, "load", refuse)
    loaded = load_csv(saved_corpus)
    assert len(loadtxt_calls) == 3
    assert cache_entries(saved_corpus) == both
    for entry in (saved_corpus / CACHE_DIR).glob("*.rows"):
        entry.unlink()
    assert_same_records(loaded, load_csv(saved_corpus))
    assert len(loadtxt_calls) == 6
    assert_same_records(loaded, load_csv(saved_corpus))
    assert len(loadtxt_calls) == 6
    assert cache_entries(saved_corpus) == both


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


# -- cycles cache ------------------------------------------------------------------------

@pytest.fixture
def gait_corpus(tmp_path):
    """2 subjects x 3 positions of 60 cycles on disk, enough for one window."""
    corpus_dir = tmp_path / "corpus"
    save_csv(generate_synthetic(SyntheticGaitSpec(n_cycles=60, n_subjects=2,
                                                  rng_seed=21)), corpus_dir)
    return corpus_dir


@pytest.fixture
def front_ends(monkeypatch):
    """The (subject, position) of every record the front end runs on."""
    calls = []
    real = dataset_io.preprocess_record

    def counting(rec, band):
        calls.append((rec.subject_id, rec.position))
        return real(rec, band=band)

    monkeypatch.setattr(dataset_io, "preprocess_record", counting)
    return calls


def refuse_front_end(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the front end ran on a cache hit")

    monkeypatch.setattr(dataset_io, "preprocess_record", refuse)


def assert_same_sequences(a, b):
    assert a.keys() == b.keys()
    for key, seq in a.items():
        assert seq.rho == b[key].rho
        assert seq.cycles.dtype == b[key].cycles.dtype
        assert np.array_equal(seq.cycles, b[key].cycles)


def eval_reports(corpus_dir, out_dir, *flags):
    assert cli.main(["eval", str(corpus_dir), "--analysis", "discriminability",
                     "--out", str(out_dir), *flags]) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_cycles_entries_are_written_once_per_csv_and_hit(gait_corpus, front_ends,
                                                        monkeypatch):
    cold = corpus_cycles(load_csv(gait_corpus), Config())
    assert len(front_ends) == 6
    names = [f"rec_{i:04d}.csv" for i in range(6)]
    assert cache_entries(gait_corpus) == sorted(
        [f"{n}.cycles" for n in names] + [f"{n}.rows" for n in names])
    in_memory = corpus_cycles(
        Corpus(records=load_csv(gait_corpus).records), Config())
    assert len(front_ends) == 12  # a corpus without sources always computes
    assert_same_sequences(in_memory, cold)
    refuse_front_end(monkeypatch)
    assert_same_sequences(corpus_cycles(load_csv(gait_corpus), Config()), cold)


def test_cycles_entry_is_the_key_then_the_cycles(gait_corpus):
    cold = corpus_cycles(load_csv(gait_corpus), Config())
    key, cycles = read_entry(gait_corpus / CACHE_DIR / "rec_0001.csv.cycles")
    assert len(key) == 32
    assert key != hashlib.sha256((gait_corpus / "rec_0001.csv").read_bytes()).digest()
    seq = cold["s00", "forearm", "r0"]
    assert cycles.dtype == np.float64 and cycles.shape == (seq.q, 40)
    assert np.array_equal(cycles, seq.cycles)


def edit_first_sample(corpus_dir):
    csv = corpus_dir / "rec_0000.csv"
    lines = csv.read_text().split("\n")
    cells = lines[1].split(",")
    cells[1] = cells[1][:-1] + str((int(cells[1][-1]) + 1) % 10)  # ax, same length
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines))


def set_first_rate(corpus_dir):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    manifest["recordings"][0]["sample_rate_hz"] = 51.0
    (corpus_dir / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("change, cfg, recomputed", [
    ("csv-byte", Config(), 1),
    ("rate", Config(), 1),
    ("band", Config(band=(0.6, 12.0)), 6),
    ("rho", Config(rho=48), 6),
    ("code", Config(), 6),
], ids=["csv-byte", "rate", "band", "rho", "code"])
def test_each_key_part_forces_a_recompute(gait_corpus, front_ends, monkeypatch,
                                          change, cfg, recomputed):
    corpus_cycles(load_csv(gait_corpus), Config())
    if change == "csv-byte":
        edit_first_sample(gait_corpus)
    elif change == "rate":
        set_first_rate(gait_corpus)
    elif change == "code":  # any edit to the package's sources
        monkeypatch.setattr(dataset_io, "_code_digest", lambda: bytes(32))
    calls = len(front_ends)
    corpus = load_csv(gait_corpus)
    got = corpus_cycles(corpus, cfg)
    assert len(front_ends) == calls + recomputed
    assert_same_sequences(got, corpus_cycles(Corpus(records=corpus.records), cfg))
    calls = len(front_ends)
    assert_same_sequences(corpus_cycles(load_csv(gait_corpus), cfg), got)
    assert len(front_ends) == calls  # the entries were rewritten for the new key
    assert len(cache_entries(gait_corpus)) == 12


@pytest.mark.parametrize("source, old, new", [
    ("signals.py", "TRANSIENT_DISCARD_S = 2.0", "TRANSIENT_DISCARD_S = 2.5"),
    ("signals.py", "GRAVITY_CUTOFF_HZ = 0.3", "GRAVITY_CUTOFF_HZ = 0.2"),
    ("gait.py", "MIN_PROMINENCE = ", "MIN_PROMINENCE = 0.5 * "),
])
def test_code_digest_follows_every_source_edit(tmp_path, monkeypatch, source, old, new):
    package = tmp_path / "gaitpair"
    shutil.copytree(Path(dataset_io.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(dataset_io, "__file__", str(package / "dataset_io.py"))
    before = dataset_io._code_digest.__wrapped__()
    assert before == dataset_io._code_digest()
    text = (package / source).read_text()
    assert old in text
    (package / source).write_text(text.replace(old, new, 1))
    assert dataset_io._code_digest.__wrapped__() != before


@pytest.mark.parametrize("flags", [["--cutoff", "120"], ["--fingerprint-bits", "160"]])
def test_fingerprint_flags_still_hit(gait_corpus, tmp_path, monkeypatch, flags):
    cold = eval_reports(gait_corpus, tmp_path / "cold", *flags)
    shutil.rmtree(gait_corpus / CACHE_DIR)
    eval_reports(gait_corpus, tmp_path / "defaults")
    refuse_front_end(monkeypatch)
    assert eval_reports(gait_corpus, tmp_path / "warm", *flags) == cold


@pytest.mark.parametrize("damage", ["truncate", "wrong-key", "huge-shape"])
def test_damaged_cycles_entry_is_recomputed_and_rewritten(gait_corpus, front_ends, damage):
    cold = corpus_cycles(load_csv(gait_corpus), Config())
    entry = gait_corpus / CACHE_DIR / "rec_0001.csv.cycles"
    key, cycles = read_entry(entry)
    if damage == "truncate":
        entry.write_bytes(entry.read_bytes()[:-8])
    elif damage == "wrong-key":
        write_entry(entry, bytes(32), cycles + 1.0)
    else:  # a header that asks for 2^24 cycles, about 5 GB, over a short body
        with open(entry, "wb") as fh:
            fh.write(key)
            fh.write(np.lib.format.magic(1, 0))
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False, "shape": (1 << 24, 40)})
            fh.write(cycles.tobytes())
    corpus = load_csv(gait_corpus)
    calls = len(front_ends)
    tracemalloc.start()
    try:
        got = corpus_cycles(corpus, Config())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert front_ends[calls:] == [("s00", "forearm")]
    assert peak < 64 << 20
    assert_same_sequences(got, cold)
    assert read_entry(entry)[0] == key
    assert np.array_equal(read_entry(entry)[1], cycles)


def test_failing_record_leaves_no_cycles_entry(gait_corpus):
    manifest = json.loads((gait_corpus / "manifest.json").read_text())
    manifest["recordings"][2]["sample_rate_hz"] = 100.0  # its timestamps say 50 Hz
    (gait_corpus / "manifest.json").write_text(json.dumps(manifest))
    messages = []
    for _ in ("cold", "warm"):
        with pytest.raises(EmptyStream, match="inconsistent") as info:
            corpus_cycles(load_csv(gait_corpus), Config())
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert not (gait_corpus / CACHE_DIR / "rec_0002.csv.cycles").exists()


def test_a_record_without_a_full_cycle_is_left_out_of_every_report(tmp_path):
    # s00 chest cut to its first 320 samples: 2 half-cycle boundaries, no cycle
    cut = tmp_path / "cut"
    save_csv(generate_synthetic(SyntheticGaitSpec(n_cycles=100, n_subjects=2,
                                                  rng_seed=21)), cut)
    csv = cut / "rec_0000.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:321]))
    dropped = tmp_path / "dropped"
    shutil.copytree(cut, dropped)
    (dropped / "rec_0000.csv").unlink()
    manifest = json.loads((dropped / "manifest.json").read_text())
    manifest["recordings"] = manifest["recordings"][1:]
    (dropped / "manifest.json").write_text(json.dumps(manifest))

    corpus = load_csv(cut)
    assert detect_cycles(preprocess_record(corpus.records[0])).minima_indices.shape[0] == 2
    for cache in ("cold", "warm"):
        for analysis in ("discriminability", "reliability", "positions", "guesswork"):
            if cache == "cold":
                for corpus_dir in (cut, dropped):
                    shutil.rmtree(corpus_dir / CACHE_DIR, ignore_errors=True)
            reports = []
            for corpus_dir in (cut, dropped):
                out = tmp_path / f"{corpus_dir.name}-{analysis}-{cache}"
                assert cli.main(["eval", str(corpus_dir), "--analysis", analysis,
                                 "--out", str(out)]) == 0
                reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert reports[0] == reports[1], (analysis, cache)
        keys = list(corpus_cycles(load_csv(cut), Config()))
        assert keys == [(r.subject_id, r.position, r.recording_id)
                        for r in corpus.records[1:]], cache
    assert not (cut / CACHE_DIR / "rec_0000.csv.cycles").exists()


def test_read_only_cache_directory_gives_equal_reports(gait_corpus, tmp_path, monkeypatch):
    writable = tmp_path / "writable"
    shutil.copytree(gait_corpus, writable)
    want = eval_reports(writable, tmp_path / "want")
    load_csv(gait_corpus)  # the .rows entries, before the directory turns read-only
    cache = gait_corpus / CACHE_DIR
    before = cache_entries(gait_corpus)
    real_open = open

    def read_only(file, mode="r", *args, **kwargs):
        if "x" in mode or "w" in mode:  # as a read-only directory refuses, even to root
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(dataset_io, "open", read_only, raising=False)
    cache.chmod(0o555)
    try:
        for run in ("cold", "warm"):
            assert eval_reports(gait_corpus, tmp_path / run) == want
    finally:
        cache.chmod(0o755)
    assert cache_entries(gait_corpus) == before


def test_eval_opens_each_csv_once_and_a_warm_one_no_rows_entry(gait_corpus, tmp_path,
                                                              monkeypatch):
    opened = []  # shared by the pool threads; list.append is atomic
    real_open = open

    def counting(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(dataset_io, "open", counting, raising=False)
    csvs = [f"rec_{i:04d}.csv" for i in range(6)]
    reports = {}
    for run in ("cold", "warm"):
        opened.clear()
        reports[run] = eval_reports(gait_corpus, tmp_path / run)
        assert sorted(name for name in opened if name.endswith(".csv")) == csvs, run
    # every .cycles entry hits: no .rows entry is read and no entry is written
    assert sorted(opened) == sorted(csvs + [f"{name}.cycles" for name in csvs])
    assert reports["warm"] == reports["cold"]


def test_eval_checks_the_samples_of_a_cycles_miss(tmp_path, capsys, loadtxt_calls):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    text = ",".join(CSV_COLUMNS) + "\n" + "\n".join(GOOD_ROWS)
    write_one_recording(corpus, text)
    # a .rows entry for these bytes that holds a NaN, and no .cycles entry
    rows = np.array([[float(v) for v in r.split(",")] for r in GOOD_ROWS]).T
    rows[1, 1] = np.nan
    (corpus / CACHE_DIR).mkdir()
    write_entry(corpus / CACHE_DIR / "rec.csv.rows", hashlib.sha256(text.encode()).digest(),
                rows)
    rc = cli.main(["eval", str(corpus), "--analysis", "discriminability",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "rec.csv: a sample is not finite" in err, err
    assert loadtxt_calls == []  # the entry was read, not the text
    assert cache_entries(corpus) == ["rec.csv.rows"]


def test_a_schema_fault_wins_over_an_earlier_front_end_fault(gait_corpus, tmp_path, capsys):
    eval_reports(gait_corpus, tmp_path / "cached")  # every entry written
    manifest = json.loads((gait_corpus / "manifest.json").read_text())
    manifest["recordings"][0]["sample_rate_hz"] = 100.0  # its timestamps say 50 Hz
    (gait_corpus / "manifest.json").write_text(json.dumps(manifest))
    argv = ["eval", str(gait_corpus), "--analysis", "discriminability",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3, capsys.readouterr().err
    csv = gait_corpus / "rec_0004.csv"
    lines = csv.read_text().split("\n")
    lines[2] = ",".join(["nan", *lines[2].split(",")[1:]])
    csv.write_text("\n".join(lines))
    capsys.readouterr()
    for run in ("warm", "cold"):
        if run == "cold":
            shutil.rmtree(gait_corpus / CACHE_DIR)
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2, (run, err)
        assert err.startswith("schema error: SchemaMismatch: rec_0004.csv: line 3: "), err


def test_a_csv_changed_after_hashing_keys_its_cycles_by_the_parsed_bytes(
        gait_corpus, front_ends, monkeypatch):
    corpus_cycles(read_manifest(gait_corpus), Config())
    for suffix in (".cycles", ".rows"):  # so the CSV is parsed
        (gait_corpus / CACHE_DIR / f"rec_0000.csv{suffix}").unlink()
    csv = gait_corpus / "rec_0000.csv"
    real_read_entry = dataset_io._read_entry

    def edit_then_read(entry, key, shape):
        # asked after the CSV is hashed and before it is parsed: edit its
        # last sample, past the bytes already buffered
        if entry.name == "rec_0000.csv.cycles":
            text = csv.read_text()
            csv.write_text(text[:-2] + str((int(text[-2]) + 1) % 10) + text[-1])
        return real_read_entry(entry, key, shape)

    with monkeypatch.context() as patch:
        patch.setattr(dataset_io, "_read_entry", edit_then_read)
        got = corpus_cycles(read_manifest(gait_corpus), Config())
    digest, _ = read_entry(gait_corpus / CACHE_DIR / "rec_0000.csv.rows")
    assert digest == hashlib.sha256(csv.read_bytes()).digest()
    calls = len(front_ends)
    assert_same_sequences(corpus_cycles(read_manifest(gait_corpus), Config()), got)
    assert len(front_ends) == calls  # a hit: the entry is keyed by the edited bytes
    assert_same_sequences(got, corpus_cycles(Corpus(records=load_csv(gait_corpus).records),
                                             Config()))


# -- sliding windows--------------------------------------------------------------------

def processed_signal(seed=0, n_cycles=30):
    from gaitpair.signals import bandpass
    raw = synthetic_vertical_signal(seed=seed, n_cycles=n_cycles, lead_s=2.0)
    return bandpass(raw, 50.0)


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
    assert np.array_equal(tiled, cycles_from_bounds(sig, covered, 40))


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
        assert np.array_equal(w.sequence.cycles, cycles_from_bounds(sig, bounds, 40))


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
                              cycles_from_bounds(sig, bounds, 40))


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
