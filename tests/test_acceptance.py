"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

All expected values are either fixed by the deployment arithmetic or computed
by independent oracles (exhaustive enumeration, the systematic encoder, or
direct statistics); tolerances are stated inline and are not tunable.
"""

import itertools
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gaitpair.config import Config
from gaitpair.dataset_io import (
    SyntheticGaitSpec,
    generate_synthetic,
    load_csv,
    sliding_windows,
    synthetic_vertical_signal,
)
from gaitpair.eval_harness import (
    discriminability,
    position_table,
    randomness_suite,
    reliability_sweep,
    security_arithmetic,
)
from gaitpair.fingerprint import (
    average_cycle,
    quantize,
    reduce,
    reliability_order,
    similarity,
)
from gaitpair.fuzzy_ecc import choose_params, decode, encode
from gaitpair.gait import detect_cycles
from gaitpair.protocol import run_pair_in_memory
from gaitpair.signals import VerticalSignal, bandpass

from helpers import craft_codeword_pair, random_delta_sequence

CFG = Config()


@contextmanager
def criterion(name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.monotonic() - start:.1f}s)")


# -- 1: exhaustive decode correctness at n=15 ---------------------------------------------

def test_ecc_oracle_equivalence():
    with criterion("ecc-oracle-equivalence"):
        t0 = time.monotonic()
        params = choose_params(15, 0.2)
        assert (params.n, params.k, params.t) == (15, 5, 3)
        patterns = [list(c) for w in (1, 2, 3)
                    for c in itertools.combinations(range(15), w)]
        assert len(patterns) == 575
        failures = 0
        for value in range(32):
            msg = np.array([(value >> (4 - i)) & 1 for i in range(5)],
                           dtype=np.uint8)
            cw = encode(msg, params)
            for pattern in patterns:
                received = cw.copy()
                received[pattern] ^= 1
                key = decode(received, params)
                if (not np.array_equal(key.key_bits, msg)
                        or key.corrected_errors != len(pattern)):
                    failures += 1
        assert failures == 0
        assert time.monotonic() - t0 < 10.0


# -- 2: randomized round trip at deployment size ------------------------------------------

def test_roundtrip_at_deployment_size():
    with criterion("roundtrip-deployment-size"):
        t0 = time.monotonic()
        params = choose_params(128, 0.2)
        assert params.n == 127
        rng = np.random.default_rng(2024)
        trials = 100_000
        for _ in range(trials):
            msg = rng.integers(0, 2, params.k).astype(np.uint8)
            cw = encode(msg, params)
            n_err = int(rng.integers(0, params.t + 1))
            pos = rng.choice(params.n, size=n_err, replace=False)
            received = cw.copy()
            received[pos] ^= 1
            key = decode(received, params)
            # any wrong message or wrong error count is a miscorrection
            assert np.array_equal(key.key_bits, msg)
            assert key.corrected_errors == n_err
        assert time.monotonic() - t0 < 60.0


# -- 3: gait segmentation on synthetic periodic signals -----------------------------------

def test_gait_segmentation_period_recovery():
    with criterion("gait-segmentation"):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        hits = 0
        trials = 100
        for _ in range(trials):
            period = int(rng.integers(20, 101))
            n = max(1600, 16 * period)
            t = np.arange(n)
            clean = np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
            # SNR exactly 10 dB relative to the sinusoid power
            noise_sd = math.sqrt(0.5 / 10.0)
            z = clean + rng.normal(0.0, noise_sd, n)
            try:
                det = detect_cycles(VerticalSignal(50.0, z))
            except Exception:
                continue
            full_cycle = 2.0 * float(np.mean(np.diff(det.minima_indices)))
            if 0.9 * 2 * period <= full_cycle <= 1.1 * 2 * period:
                hits += 1
        assert hits >= 95, f"only {hits}/100 within 10% of the true cycle"
        assert time.monotonic() - t0 < 30.0


# -- 4: quantizer balance over independent walks --------------------------------------------

def test_quantizer_balance():
    with criterion("quantizer-balance"):
        t0 = time.monotonic()
        n_pairs = 1000
        q = CFG.cycles_per_fingerprint
        fingerprints = []
        seed = 0
        while len(fingerprints) < 2 * n_pairs:
            sig = bandpass(synthetic_vertical_signal(
                seed=seed, n_cycles=q + 6, snr_db=20.0, lead_s=4.0))
            seed += 1
            try:
                det = detect_cycles(sig)
                wins = sliding_windows(sig, q, overlap=0.5, rho=CFG.rho,
                                       detection=det)
            except Exception:
                continue
            seq = wins[0].sequence
            fingerprints.append(
                quantize(seq, average_cycle(seq), CFG.bits_per_cycle))

        pooled = np.concatenate([fp.bits for fp in fingerprints])
        freq = float(pooled.mean())
        assert abs(freq - 0.5) <= 0.02, f"pooled bit frequency {freq:.4f}"

        sims = []
        for i in range(0, 2 * n_pairs, 2):
            fa, fb = fingerprints[i], fingerprints[i + 1]
            order = reliability_order(fa)
            sims.append(similarity(reduce(fa, order, CFG.cutoff),
                                   reduce(fb, order, CFG.cutoff)))
        mean_sim = float(np.mean(sims))
        assert abs(mean_sim - 0.5) <= 0.02, f"pairwise mean {mean_sim:.4f}"
        assert time.monotonic() - t0 < 60.0


# -- 5: discarding unreliable bits helps ------------------------------------------------------

def test_reliability_benefit_direction():
    with criterion("reliability-benefit"):
        t0 = time.monotonic()
        corpus = generate_synthetic(
            SyntheticGaitSpec(n_cycles=150, n_subjects=4, rng_seed=11))
        report = reliability_sweep(corpus, cfg=CFG)
        means = report.mean_by_extra()
        margin = means[64] - means[0]
        print(f"  reliability sweep means: "
              f"{({k: round(v, 4) for k, v in sorted(means.items())})}; "
              f"margin(N+64 vs N+0) = {margin:+.4f}")
        assert margin > 0.0
        assert time.monotonic() - t0 < 120.0


# -- 6: end-to-end protocol sessions ----------------------------------------------------------

def test_end_to_end_protocol():
    with criterion("end-to-end-protocol"):
        t0 = time.monotonic()
        params = choose_params(CFG.cutoff, 1.0 - CFG.threshold)
        capture: list[bytes] = []
        scan_targets: list[bytes] = []

        def remember_bits(seq):
            fp = quantize(seq, average_cycle(seq), CFG.bits_per_cycle)
            scan_targets.append(np.packbits(fp.bits).tobytes())
            scan_targets.append(np.packbits(1 - fp.bits).tobytes())

        # identical decodable inputs: 200/200 with equal secrets
        for i in range(200):
            seq, _, _ = craft_codeword_pair(1000 + i, 0, CFG, params)
            if i < 20:
                remember_bits(seq)
            res_a, res_b = run_pair_in_memory(seq, seq, CFG, seed=i,
                                              capture=capture)
            assert res_a.established and res_b.established
            assert res_a.secret == res_b.secret and res_a.secret is not None

        # independent inputs: 0/200
        ok = 0
        for i in range(200):
            sa = random_delta_sequence(2 * i, CFG)
            sb = random_delta_sequence(2 * i + 1, CFG)
            if i < 20:
                remember_bits(sa)
                remember_bits(sb)
            res_a, res_b = run_pair_in_memory(sa, sb, CFG, seed=5000 + i,
                                              capture=capture)
            if res_a.established or res_b.established:
                ok += 1
        assert ok == 0

        # constructed <= t errors: 200/200
        rng = np.random.default_rng(99)
        for i in range(200):
            flips = int(rng.integers(1, params.t + 1))
            seq_a, seq_b, msg = craft_codeword_pair(3000 + i, flips, CFG, params)
            if i < 20:
                remember_bits(seq_a)
                remember_bits(seq_b)
            res_a, res_b = run_pair_in_memory(seq_a, seq_b, CFG,
                                              seed=9000 + i, capture=capture)
            assert res_a.established and res_b.established
            assert res_a.secret == res_b.secret
            assert np.array_equal(res_a.key.key_bits, msg)

        # byte-scan: no fingerprint bit pattern ever crossed the wire
        blob = b"|".join(capture)
        assert len(capture) == 5 * 400 + 3 * 200
        for packed in scan_targets:
            assert packed not in blob
        assert time.monotonic() - t0 < 60.0


# -- 7: security arithmetic ---------------------------------------------------------------------

def test_security_arithmetic_exact():
    with criterion("security-arithmetic"):
        result = security_arithmetic(200.0, 0.8, 128)
        assert result == {"tries_per_day": 432, "t": 25, "code_t": 23}


# -- 8: randomness suite calibration ---------------------------------------------------------------

def _bits_to_keys(bits, key_len=128):
    n_keys = bits.size // key_len
    return [bits[i * key_len:(i + 1) * key_len] for i in range(n_keys)]


def test_randomness_suite_calibration():
    with criterion("randomness-calibration"):
        # One calibration stream fails some test with probability ~6*alpha
        # even for a perfect source; a single fresh redraw separates that
        # false-positive rate from systematic bias.
        for attempt in range(2):
            bits = np.unpackbits(np.frombuffer(os.urandom(125_000),
                                               dtype=np.uint8))
            report = randomness_suite(_bits_to_keys(bits, key_len=100))
            assert report.n_bits == 1_000_000
            if report.passed:
                break
        assert report.passed, report.p_values

        constant = randomness_suite(_bits_to_keys(
            np.zeros(200 * 128, dtype=np.uint8)))
        assert not constant.passed and constant.failures

        alternating = randomness_suite(_bits_to_keys(
            np.tile(np.array([0, 1], dtype=np.uint8), 100 * 128)))
        assert not alternating.passed and alternating.failures


# -- 9: recorded-dataset checks (skipped unless the dataset is supplied) -------------------------

MANNHEIM_ENV = "GAITPAIR_MANNHEIM_DIR"


def test_mannheim_dataset_conditional():
    corpus_dir = os.environ.get(MANNHEIM_ENV)
    if not corpus_dir:
        pytest.skip(f"recorded dataset not supplied; set {MANNHEIM_ENV} to a "
                    "converted corpus directory (see docs/datasets.md)")
    with criterion("mannheim-dataset"):
        corpus = load_csv(corpus_dir)
        report = discriminability(corpus, cfg=CFG)
        inter_mean = float(np.mean([p.value for p in report.inter_pairs]))
        assert 0.77 <= report.intra.mean <= 0.87, report.intra.mean
        assert 0.48 <= inter_mean <= 0.52, inter_mean
        table = position_table(corpus, cfg=CFG,
                               required_positions=("chest", "forearm", "head",
                                                   "shin", "thigh", "upperarm",
                                                   "waist"))
        fw = table.matrix[table.positions.index("forearm"),
                          table.positions.index("waist")]
        assert abs(fw - 0.89) <= 0.05, fw
