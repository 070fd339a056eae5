import json

import numpy as np
import pytest

from gaitpair.config import Config
from gaitpair.dataset_io import (
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
    assert windows[0].index == 0


def test_zero_overlap_tiles_signal():
    sig = processed_signal(seed=2, n_cycles=40)
    det = detect_cycles(sig)
    total = (det.minima_indices.shape[0] - 1) // 2
    w = 8
    windows = sliding_windows(sig, w, overlap=0.0, detection=det)
    assert len(windows) == total // w
    for a, b in zip(windows, windows[1:]):
        assert a.sequence.source_span[1] == b.sequence.source_span[0]
    covered = windows[-1].sequence.source_span[1] - windows[0].sequence.source_span[0]
    full_span = det.minima_indices[2 * (total // w) * w] - det.minima_indices[0]
    assert covered == full_span


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
    minima = set(det.minima_indices.tolist())
    for w in windows:
        bounds = w.sequence.half_cycle_bounds
        assert len(bounds) == 2 * 6 + 1
        assert set(bounds.tolist()) <= minima


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
        bounds = w.sequence.half_cycle_bounds
        assert np.array_equal(bounds,
                              det.minima_indices[lo:lo + 2 * window_cycles + 1])
        assert w.sequence.origin_half_cycle == lo
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
