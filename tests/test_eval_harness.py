import dataclasses
import itertools
import math
import os
import threading
import time

import numpy as np
import pytest
from scipy import signal as sps

from gaitpair.config import Config
from gaitpair.dataset_io import Corpus, PositionSpec, SyntheticGaitSpec, generate_synthetic
from gaitpair.errors import (ConfigError, InsufficientPairs, MissingPosition, MixedSampleRates,
                             TooFewKeys)
from gaitpair.fingerprint import average_cycle, quantize, reduce, reliability_order, similarity
from gaitpair.gait import GaitSequence, cycles_from_bounds, detect_cycles
from gaitpair.eval_harness import (
    CoherenceReport,
    coherence_analysis,
    discriminability,
    position_table,
    randomness_suite,
    reliability_sweep,
    security_arithmetic,
)
from gaitpair.signals import GRAVITY, ImuRecord, extract_vertical, preprocess_record

from helpers import mixed_rate_corpus


# -- coherence -------------------------------------------------------------------------

def _imu_from_vertical(motion, subject, position, fs=50.0, recording="r0"):
    n = motion.shape[0]
    acc = np.zeros((n, 3))
    acc[:, 2] = GRAVITY + motion
    return ImuRecord(sample_rate=fs, t=np.arange(n) / fs, acc=acc,
                     gyro=np.zeros((n, 3)), subject_id=subject,
                     position=position, recording_id=recording)


def test_identical_signals_have_unit_coherence():
    rng = np.random.default_rng(0)
    motion = rng.standard_normal(3000)
    other = rng.standard_normal(3000)
    corpus = Corpus(records=[
        _imu_from_vertical(motion, "s0", "chest"),
        _imu_from_vertical(motion, "s0", "waist"),
        _imu_from_vertical(other, "s1", "chest"),
        _imu_from_vertical(other, "s1", "waist"),
    ])
    rep = coherence_analysis(corpus)
    assert isinstance(rep, CoherenceReport)
    assert np.all(rep.mean_same_subject > 1.0 - 1e-9)
    assert np.all(rep.mean_same_subject <= 1.0 + 1e-12)


def test_white_noise_coherence_matches_estimator_bias():
    rng = np.random.default_rng(1)
    n = 3000
    corpus = Corpus(records=[
        _imu_from_vertical(rng.standard_normal(n), "s0", "chest"),
        _imu_from_vertical(rng.standard_normal(n), "s0", "waist"),
        _imu_from_vertical(rng.standard_normal(n), "s1", "chest"),
        _imu_from_vertical(rng.standard_normal(n), "s1", "waist"),
    ])
    rep = coherence_analysis(corpus)
    observed = float(np.mean(rep.mean_different_subject[1:-1]))

    # Monte-Carlo oracle: same Welch estimator on independent noise pairs
    nperseg = max(8, int(n / 4.5))
    mc = []
    for seed in range(40):
        r = np.random.default_rng(100 + seed)
        _, c = sps.coherence(r.standard_normal(n), r.standard_normal(n),
                             fs=50.0, window="hann", nperseg=nperseg,
                             noverlap=nperseg // 2)
        mc.append(float(np.mean(c[1:-1])))
    mc = np.asarray(mc)
    assert abs(observed - mc.mean()) < 6 * mc.std()
    # rough magnitude: ~1/segments_averaged
    segments = (n - nperseg) // (nperseg // 2) + 1
    assert observed < 3.0 / segments


def test_same_body_coherence_elevated_in_band(tiny_corpus):
    rep = coherence_analysis(tiny_corpus)
    band = (rep.freqs >= 0.5) & (rep.freqs <= 12.0)
    assert float(np.mean(rep.mean_same_subject[band])) > \
        float(np.mean(rep.mean_different_subject[band])) + 0.1


@pytest.mark.parametrize("band", [(0.5, 12.0), (1.0, 12.0), (1.0, 6.0)])
def test_coherence_low_band_follows_config(tiny_corpus, band):
    rep = coherence_analysis(tiny_corpus, Config(band=band))
    lo, hi = band
    low = rep.freqs < lo
    high = (rep.freqs >= lo) & (rep.freqs <= hi)
    assert rep.low_band_hz == lo
    assert rep.low_band_elevated == bool(
        rep.mean_different_subject[low].mean() > rep.mean_different_subject[high].mean())


def test_coherence_pairs_share_one_frequency_grid():
    # records of unequal length: every pair is estimated on the grid of the
    # shortest record, so a bin means the same frequency in every pair
    def cut(r):  # the first 70% of a record
        k = int(0.7 * r.t.shape[0])
        return dataclasses.replace(r, t=r.t[:k], acc=r.acc[:k], gyro=r.gyro[:k])

    corpus = generate_synthetic(SyntheticGaitSpec(n_cycles=60, rng_seed=3))
    records = [cut(r) if (r.subject_id, r.position) == ("s00", "forearm") else r
               for r in corpus.records]
    rep = coherence_analysis(Corpus(records=records))

    z = {(r.subject_id, r.position): extract_vertical(r).z for r in records}
    nperseg = int(min(v.shape[0] for v in z.values()) / 4.5)
    fs = records[0].sample_rate
    assert np.array_equal(rep.freqs, np.fft.rfftfreq(nperseg, 1 / fs))
    same = []
    for subject in ("s00", "s01"):
        for a, b in itertools.combinations(("chest", "forearm", "waist"), 2):
            za, zb = z[subject, a], z[subject, b]
            n = min(za.shape[0], zb.shape[0])
            same.append(sps.coherence(za[:n] - za[:n].mean(), zb[:n] - zb[:n].mean(),
                                      fs=fs, window="hann", nperseg=nperseg,
                                      noverlap=nperseg // 2)[1])
    assert rep.n_same_pairs == len(same) == 6
    assert np.allclose(rep.mean_same_subject, np.mean(same, axis=0), rtol=0, atol=1e-12)


def test_coherence_needs_simultaneous_pairs():
    rng = np.random.default_rng(2)
    corpus = Corpus(records=[
        _imu_from_vertical(rng.standard_normal(2000), "s0", "chest"),
        _imu_from_vertical(rng.standard_normal(2000), "s1", "chest"),
    ])
    with pytest.raises(InsufficientPairs):
        coherence_analysis(corpus)


def test_coherence_rejects_mixed_sample_rates():
    # pairs are compared sample by sample: a 50 Hz and a 100 Hz record share
    # no time base, and their bins would be added by index
    with pytest.raises(MixedSampleRates, match="50 Hz, 100 Hz"):
        coherence_analysis(mixed_rate_corpus())


# -- reference: windows resampled one by one ------------------------------------------

def _reference_fingerprints(corpus, cfg, window_cycles):
    """Each window's fingerprint, its cycles resampled from its own bounds."""
    out = {}
    step = max(1, int(round(window_cycles * 0.5)))
    for rec in corpus.records:
        sig = preprocess_record(rec, band=cfg.band)
        bounds = detect_cycles(sig).minima_indices
        total = (bounds.shape[0] - 1) // 2
        fps = []
        for start in range(0, total - window_cycles + 1, step):
            cycles = cycles_from_bounds(
                sig.z, bounds[2 * start:2 * (start + window_cycles) + 1], cfg.rho)
            seq = GaitSequence(cycles=cycles, rho=cfg.rho)
            fps.append(quantize(seq, average_cycle(seq), cfg.bits_per_cycle))
        out[rec.subject_id, rec.position, rec.recording_id] = fps
    return out


def _reference_intra(fps, N):
    values = {}
    for sa, pa, ra in fps:
        for sb, pb, rb in fps:
            if (sa, ra) != (sb, rb) or pa >= pb:
                continue
            for w, (fa, fb) in enumerate(zip(fps[sa, pa, ra], fps[sb, pb, rb])):
                order = reliability_order(fa)
                values[sa, pa, sb, pb, w] = similarity(reduce(fa, order, N),
                                                       reduce(fb, order, N))
    return values


def _reference_inter(fps, N):
    values = {}
    for ka in fps:
        for kb in fps:
            if ka[0] >= kb[0] or ka[1] != kb[1]:
                continue
            for w, (fa, fb) in enumerate(zip(fps[ka], fps[kb])):
                order = reliability_order(fa)
                values[ka[0], ka[1], kb[0], kb[1], w] = similarity(
                    reduce(fa, order, N), reduce(fb, order, N))
    return values


def _pair_values(pairs):
    return {(p.subject_a, p.position_a, p.subject_b, p.position_b, p.window): p.value
            for p in pairs}


def test_sweep_equals_per_window_resampling(small_corpus, cfg):
    rep = reliability_sweep(small_corpus, cfg=cfg)
    for entry in rep.entries:
        fps = _reference_fingerprints(small_corpus, cfg, entry.M // cfg.bits_per_cycle)
        assert _pair_values(entry.pairs) == _reference_intra(fps, 128), entry.M


def test_discriminability_equals_per_window_resampling(small_corpus, cfg):
    rep = discriminability(small_corpus, cfg=cfg)
    fps = _reference_fingerprints(small_corpus, cfg, cfg.cycles_per_fingerprint)
    assert _pair_values(rep.intra_pairs) == _reference_intra(fps, cfg.cutoff)
    assert _pair_values(rep.inter_pairs) == _reference_inter(fps, cfg.cutoff)


# -- reference: the batched pass against one window at a time ---------------------------

@pytest.fixture(scope="module")
def uneven_corpus():
    """2 subjects x 3 positions of 120 cycles, with s00's forearm cut to a
    fifth (shorter than the smallest sweep window) and s01's waist to
    three quarters (fewer windows than its partners)."""
    def cut(r, share):
        k = int(share * r.t.shape[0])
        return dataclasses.replace(r, t=r.t[:k], acc=r.acc[:k], gyro=r.gyro[:k])

    share = {("s00", "forearm"): 0.2, ("s01", "waist"): 0.75}
    corpus = generate_synthetic(SyntheticGaitSpec(n_cycles=120, rng_seed=5))
    return Corpus(records=[cut(r, share[r.subject_id, r.position])
                           if (r.subject_id, r.position) in share else r
                           for r in corpus.records])


def half_overlapping_windows(seq, w):
    """Reference cut: each window's cycles as a plain slice of the record's,
    starting every w // 2 cycles, built apart from ``GaitSequence.windows``."""
    return [GaitSequence(cycles=seq.cycles[s:s + w], rho=seq.rho)
            for s in range(0, seq.q - w + 1, w // 2)]


@pytest.mark.parametrize("window_cycles", [32, 36, 40, 44, 48, 64])
def test_batched_pass_equals_per_window_fingerprints(uneven_corpus, cfg, window_cycles):
    from gaitpair.eval_harness import _fingerprints, _inter_keys, _intra_keys, \
        _preprocess_corpus, _window_pairs
    from gaitpair.fingerprint import compute_fingerprint, window_fingerprints

    processed = _preprocess_corpus(uneven_corpus, cfg)
    per_window = {}
    counts = set()
    for key, seq in processed.items():
        bits, deltas, orders = window_fingerprints(seq, window_cycles, cfg.bits_per_cycle)
        wins = half_overlapping_windows(seq, window_cycles)
        assert bits.shape == deltas.shape == orders.shape \
            == (len(wins), window_cycles * cfg.bits_per_cycle)
        per_window[key] = [compute_fingerprint(w, cfg.bits_per_cycle) for w in wins]
        for row, (fp, order) in enumerate(per_window[key]):
            assert np.array_equal(bits[row], fp.bits), (key, row)
            assert np.array_equal(deltas[row], fp.deltas), (key, row)
            assert np.array_equal(orders[row], order), (key, row)
        counts.add(len(wins))
    assert 0 in counts and len(counts) >= 3  # a record without windows, and uneven pairs

    fingerprints = _fingerprints(processed, cfg, window_cycles)
    for keys in (_intra_keys(processed), _inter_keys(processed)):
        want = [(ka[0], ka[1], kb[0], kb[1], w,
                 similarity(reduce(fa, order, cfg.cutoff), reduce(fb, order, cfg.cutoff)))
                for ka, kb in keys
                for w, ((fa, order), (fb, _)) in enumerate(zip(per_window[ka],
                                                                per_window[kb]))]
        got = [(p.subject_a, p.position_a, p.subject_b, p.position_b, p.window, p.value)
               for p in _window_pairs(fingerprints, keys, cfg.cutoff)]
        assert got == want


def test_fingerprint_keys_equal_per_window_reduction(uneven_corpus, cfg):
    from gaitpair.eval_harness import _preprocess_corpus, fingerprint_keys
    from gaitpair.fingerprint import compute_fingerprint

    want = []
    for seq in _preprocess_corpus(uneven_corpus, cfg).values():
        for w in half_overlapping_windows(seq, cfg.cycles_per_fingerprint):
            fp, order = compute_fingerprint(w, cfg.bits_per_cycle)
            want.append(reduce(fp, order, cfg.cutoff).bits)
    got = fingerprint_keys(uneven_corpus, cfg)
    assert len(got) == len(want) > 0
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# -- the per-record pool ----------------------------------------------------------------

@pytest.mark.parametrize("cpus", [None, {0}], ids=["all-cpus", "one-cpu"])
def test_preprocessed_corpus_equals_a_serial_loop(uneven_corpus, cfg, monkeypatch, cpus):
    from gaitpair.eval_harness import _preprocess_corpus
    from gaitpair.gait import split_and_normalize

    want = {}
    for rec in uneven_corpus.records:
        sig = preprocess_record(rec, band=cfg.band)
        det = detect_cycles(sig)
        want[rec.subject_id, rec.position, rec.recording_id] = \
            split_and_normalize(sig, det, cfg.rho).cycles
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    got = _preprocess_corpus(uneven_corpus, cfg)
    assert list(got) == list(want)
    for key, cycles in want.items():
        assert got[key].rho == cfg.rho
        assert got[key].cycles.dtype == cycles.dtype
        assert np.array_equal(got[key].cycles, cycles), key


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, set(range(64))], ids=len)
def test_pool_takes_one_thread_per_usable_cpu_in_list_order(monkeypatch, cpus):
    from gaitpair.dataset_io import _map_in_order

    threads = set()

    def square(x):
        threads.add(threading.get_ident())
        return x * x

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert _map_in_order(square, range(12)) == [x * x for x in range(12)]
    assert threading.get_ident() not in threads
    assert 1 <= len(threads) <= min(12, len(cpus))
    assert _map_in_order(square, []) == []


def test_first_failure_in_list_order_propagates(monkeypatch):
    from gaitpair.dataset_io import _map_in_order

    def work(x):
        if x == 1:
            time.sleep(0.05)
            raise ValueError("item 1")
        if x == 4:
            raise KeyError("item 4")
        return x

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ValueError, match="item 1"):
        _map_in_order(work, range(6))


def test_first_failure_in_corpus_order_propagates(cfg):
    # the 2nd record is constant and fails only after the whole signal
    # chain; the 5th ends inside the warm-up and fails at once
    records = generate_synthetic(SyntheticGaitSpec(n_cycles=40, n_subjects=2,
                                                   rng_seed=3)).records
    still = records[1]
    acc = np.zeros_like(still.acc)
    acc[:, 2] = GRAVITY
    records[1] = dataclasses.replace(still, acc=acc, gyro=np.zeros_like(still.gyro))
    short = records[4]
    records[4] = dataclasses.replace(short, t=short.t[:60], acc=short.acc[:60],
                                     gyro=short.gyro[:60])
    corpus = Corpus(records=records)

    serial = []
    for rec in records:
        try:
            detect_cycles(preprocess_record(rec, band=cfg.band))
        except Exception as exc:
            serial.append(exc)
    assert [type(e).__name__ for e in serial] == ["ZeroVariance", "EmptyStream"]
    for analysis in (discriminability, reliability_sweep, position_table):
        with pytest.raises(type(serial[0])) as info:
            analysis(corpus, cfg=cfg)
        assert str(info.value) == str(serial[0])


# -- reliability sweep -------------------------------------------------------------------

def test_sweep_grid_and_direction(small_corpus, cfg):
    rep = reliability_sweep(small_corpus, cfg=cfg)
    assert [e.extra_bits for e in rep.entries] == [0, 16, 32, 48, 64, 128]
    assert [e.M for e in rep.entries] == [128, 144, 160, 176, 192, 256]
    means = rep.mean_by_extra()
    assert means[64] > means[0]
    for entry in rep.entries:
        assert entry.summary.count == len(entry.pairs) > 0
        assert 0.0 <= entry.summary.mean <= 1.0


def test_sweep_baseline_is_pure_truncation(small_corpus, cfg):
    # with M == N the reduction permutes all bits on both sides: similarity
    # equals the raw fingerprint agreement
    from gaitpair.eval_harness import _preprocess_corpus

    rep = reliability_sweep(small_corpus, extra_bits=(0,), cfg=cfg)
    processed = _preprocess_corpus(small_corpus, cfg)
    pair = rep.entries[0].pairs[0]

    def fingerprint(subject, position):
        seq = half_overlapping_windows(processed[subject, position, "r0"],
                                       128 // cfg.bits_per_cycle)[pair.window]
        return quantize(seq, average_cycle(seq), cfg.bits_per_cycle)

    fa = fingerprint(pair.subject_a, pair.position_a)
    fb = fingerprint(pair.subject_b, pair.position_b)
    raw_agreement = 1.0 - np.count_nonzero(fa.bits != fb.bits) / 128
    assert pair.value == pytest.approx(raw_agreement, abs=1e-12)


def test_sweep_reduces_to_config_cutoff(small_corpus):
    rep = reliability_sweep(small_corpus, cfg=Config(cutoff=64))
    assert rep.N == 64
    assert [e.M for e in rep.entries] == [64, 80, 96, 112, 128, 192]
    for entry in rep.entries:
        assert all((p.value * 64).is_integer() for p in entry.pairs), entry.M


# -- discriminability -----------------------------------------------------------------------

def test_discriminability_counts_match_combinatorics(small_corpus, cfg):
    rep = discriminability(small_corpus, cfg=cfg)
    subjects = len(small_corpus.subjects)
    positions = len(small_corpus.positions)
    windows_per_record = {}
    for p in rep.intra_pairs:
        windows_per_record.setdefault((p.subject_a, p.position_a), set()).add(p.window)
    n_windows = len(next(iter(windows_per_record.values())))
    expected_intra = subjects * math.comb(positions, 2) * n_windows
    assert rep.intra.count == expected_intra
    expected_inter = math.comb(subjects, 2) * positions * n_windows
    assert len(rep.inter_pairs) == expected_inter


def test_discriminability_separates_bodies(small_corpus, cfg):
    rep = discriminability(small_corpus, cfg=cfg)
    inter_mean = float(np.mean([p.value for p in rep.inter_pairs]))
    assert abs(inter_mean - 0.5) < 0.05
    assert rep.intra.mean > inter_mean + 0.2
    assert 0.0 <= rep.collision_rate_above_threshold <= 1.0
    manual = float(np.mean([p.value > cfg.threshold for p in rep.inter_pairs]))
    assert rep.collision_rate_above_threshold == pytest.approx(manual)


def test_discriminability_single_subject_raises():
    corpus = generate_synthetic(SyntheticGaitSpec(n_cycles=60, n_subjects=1,
                                                  rng_seed=5))
    with pytest.raises(InsufficientPairs):
        discriminability(corpus, cfg=Config())


# -- position table ---------------------------------------------------------------------------

def test_position_table_diagonal_and_symmetry(small_corpus, cfg):
    table = position_table(small_corpus, cfg=cfg)
    k = len(table.positions)
    assert table.matrix.shape == (k, k)
    assert np.allclose(np.diag(table.matrix), 1.0)
    assert np.allclose(table.matrix, table.matrix.T, atol=1e-12)
    off_diag = table.matrix[~np.eye(k, dtype=bool)]
    assert np.all((off_diag > 0.5) & (off_diag < 1.0))


def test_position_table_consistent_with_raw_pairs(small_corpus, cfg):
    table = position_table(small_corpus, cfg=cfg)
    rep = discriminability(small_corpus, cfg=cfg)
    pos = table.positions
    i, j = 0, 1
    vals = [p.value for p in rep.intra_pairs
            if {p.position_a, p.position_b} == {pos[i], pos[j]}]
    assert table.matrix[i, j] == pytest.approx(float(np.mean(vals)), abs=1e-12)


def test_position_table_missing_position(small_corpus, cfg):
    with pytest.raises(MissingPosition):
        position_table(small_corpus, cfg=cfg,
                       required_positions=("chest", "forearm", "head"))


# -- randomness suite ---------------------------------------------------------------------------

def _keys_from_bits(bits, key_len=128):
    n_keys = bits.size // key_len
    return [bits[i * key_len:(i + 1) * key_len] for i in range(n_keys)]


def test_good_rng_passes_suite():
    rng = np.random.default_rng(12345)
    bits = rng.integers(0, 2, size=200_000).astype(np.uint8)
    rep = randomness_suite(_keys_from_bits(bits))
    assert rep.passed, rep.p_values
    assert set(rep.p_values) == {
        "monobit_frequency", "block_frequency", "runs", "longest_run",
        "serial", "approximate_entropy"}


def test_all_zero_keys_fail_monobit():
    rep = randomness_suite(_keys_from_bits(np.zeros(100 * 128, dtype=np.uint8)))
    assert not rep.passed
    assert rep.p_values["monobit_frequency"] < 1e-6
    assert "monobit_frequency" in rep.failures


def test_alternating_stream_fails():
    bits = np.tile(np.array([0, 1], dtype=np.uint8), 100 * 64)
    rep = randomness_suite(_keys_from_bits(bits))
    assert not rep.passed


def test_repeated_pattern_fails():
    pattern = np.array([1, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8)
    bits = np.tile(pattern, 100 * 16)
    rep = randomness_suite(_keys_from_bits(bits))
    assert not rep.passed


def test_too_few_keys():
    with pytest.raises(TooFewKeys):
        randomness_suite(_keys_from_bits(np.zeros(99 * 128, dtype=np.uint8)))


def test_fingerprint_keys_monobit_within_3_sigma(small_corpus, cfg):
    from gaitpair.eval_harness import fingerprint_keys
    keys = fingerprint_keys(small_corpus, cfg)
    pooled = np.concatenate(keys)
    sigma = 0.5 / math.sqrt(pooled.size)
    assert abs(float(pooled.mean()) - 0.5) < 3 * sigma + 1e-12


# -- security arithmetic ---------------------------------------------------------------------------

def test_security_arithmetic_deployment_values():
    assert security_arithmetic(200.0, 0.8, 128) == {"tries_per_day": 432, "t": 25,
                                                  "code_t": 23}


def test_security_arithmetic_one_try_per_day():
    assert security_arithmetic(86400.0, 0.8, 128)["tries_per_day"] == 1


def test_security_arithmetic_data_floor():
    # 48 two-second cycles put a ~96 s floor under any session
    result = security_arithmetic(96.0 + 2 * 5.0, 0.8, 128)
    assert result["tries_per_day"] == 86400 // 106


def test_security_arithmetic_exact_fraction_edges():
    assert security_arithmetic(200.0, 0.8, 10)["t"] == 2
    with pytest.raises(ConfigError):
        security_arithmetic(0.0, 0.8, 128)
