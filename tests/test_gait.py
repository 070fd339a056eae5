import math

import numpy as np
import pytest
from scipy import signal as sps

from gaitpair.dataset_io import synthetic_vertical_signal
from gaitpair.errors import (CycleTooShort, NoPeriodicity, SignalTooShort, TooFewMaxima,
                             ZeroVariance)
from gaitpair.gait import (
    MIN_PROMINENCE,
    CycleDetection,
    GaitSequence,
    autocorrelate,
    cycles_from_bounds,
    detect_cycles,
    split_and_normalize,
)
from gaitpair.signals import VerticalSignal, bandpass


def walking_signal(seed=0, n_cycles=30, period_s=2.0, fs=50.0, snr_db=np.inf):
    raw = synthetic_vertical_signal(seed=seed, n_cycles=n_cycles,
                                    base_period=period_s, sample_rate=fs,
                                    snr_db=snr_db, lead_s=2.0)
    return bandpass(raw)


# -- autocorrelation --------------------------------------------------------------

def test_lag_zero_is_one_for_mean_free():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(512)
    z -= z.mean()
    a = autocorrelate(VerticalSignal(50.0, z))
    assert abs(a[0] - 1.0) < 1e-9


def test_sinusoid_maxima_at_period_multiples():
    P = 25
    n = 10 * P
    z = np.sin(2 * np.pi * np.arange(n) / P)
    a = autocorrelate(VerticalSignal(50.0, z))
    # the analytic autocorrelation of a sinusoid is a cosine of the same
    # period: local maxima sit within one sample of P, 2P, 3P
    for k in (1, 2, 3):
        window = a[k * P - 3: k * P + 4]
        assert abs(int(np.argmax(window)) - 3) <= 1


def test_white_noise_stays_below_statistical_bound():
    n = 2048
    bound = 3.0 / np.sqrt(n)

    rng = np.random.default_rng(42)
    z = rng.standard_normal(n)
    z -= z.mean()
    a = autocorrelate(VerticalSignal(50.0, z))

    # The (n-k) normalization inflates the estimator variance at large lags,
    # so the 3/sqrt(n) bound holds cleanly only on the near field; check the
    # first quarter strictly and the full range against a Monte-Carlo oracle.
    quarter = a[1: n // 4]
    assert np.mean(np.abs(quarter) < bound) >= 0.99

    observed_full = np.mean(np.abs(a[1:]) < bound)
    mc = []
    for seed in range(30):
        w = np.random.default_rng(1000 + seed).standard_normal(n)
        w -= w.mean()
        aw = autocorrelate(VerticalSignal(50.0, w))
        mc.append(np.mean(np.abs(aw[1:]) < bound))
    mc = np.asarray(mc)
    assert abs(observed_full - mc.mean()) < 5 * mc.std() + 1e-3


def test_constant_signal_raises_zero_variance():
    with pytest.raises(ZeroVariance):
        autocorrelate(VerticalSignal(50.0, np.full(100, 9.81)))


def test_autocorrelate_needs_four_samples():
    with pytest.raises(SignalTooShort):
        autocorrelate(VerticalSignal(50.0, np.array([1.0, -1.0, 0.5])))


# -- cycle detection ---------------------------------------------------------------

def test_detect_sinusoid_period():
    P = 30
    n = 10 * P
    z = np.sin(2 * np.pi * np.arange(n) / P)
    det = detect_cycles(VerticalSignal(50.0, z))
    assert abs(det.delta_mean - P) <= 2
    spacing = np.diff(det.minima_indices)
    assert np.all(np.abs(spacing - P) <= 2)


def test_detect_propagates_zero_variance():
    with pytest.raises(ZeroVariance):
        detect_cycles(VerticalSignal(50.0, np.zeros(500) + 3.0))


def test_detect_white_noise_has_no_periodicity():
    rng = np.random.default_rng(9)
    z = rng.standard_normal(4096)
    with pytest.raises(NoPeriodicity):
        detect_cycles(VerticalSignal(50.0, z))


def test_detect_too_few_maxima():
    P = 40
    z = np.sin(2 * np.pi * np.arange(2 * P + 10) / P)
    with pytest.raises(TooFewMaxima):
        detect_cycles(VerticalSignal(50.0, z))


def test_walking_trace_half_cycle_near_fifty_samples():
    # ~2 s full cycles sampled at 50 Hz: one step is ~50 samples
    sig = walking_signal(seed=3, n_cycles=40)
    det = detect_cycles(sig)
    assert abs(det.delta_mean - 50) <= 5
    seq = split_and_normalize(sig, det, rho=40)
    spans = np.diff(det.minima_indices)[: 2 * seq.q]
    full = spans[0::2] + spans[1::2]
    assert abs(float(np.mean(full)) - 100.0) <= 10.0


def test_minima_lie_inside_search_windows():
    sig = walking_signal(seed=11, n_cycles=30)
    det = detect_cycles(sig)
    tau, delta = det.search_slack, det.delta_mean
    for mu in det.minima_indices:
        containing = [z for z in det.maxima_indices
                      if z - tau <= mu <= z + delta + tau]
        assert containing, f"minimum {mu} outside every search window"
    assert np.all(np.diff(det.minima_indices) > 0)


# -- detection against the sequential reference ---------------------------------------

def _reference_autocorrelate(z):
    """The direct-convolution autocorrelation, normalized as ``autocorrelate``."""
    n = z.shape[0]
    raw = sps.correlate(z, z, mode="full", method="fft")[n - 1:]
    return raw / ((n - np.arange(n)) * float(np.var(z)))


def _reference_detect(z):
    """Cycle detection with one argmin per search window, in signal order."""
    acorr = _reference_autocorrelate(z)
    n = z.shape[0]
    near = acorr[: max(4, n // 2)]
    first_peaks, _ = sps.find_peaks(near[1:], prominence=MIN_PROMINENCE)
    delta_rough = int(first_peaks[0]) + 1
    peaks, _ = sps.find_peaks(acorr[:max(2, n - delta_rough)], prominence=MIN_PROMINENCE,
                              distance=max(1, delta_rough // 2))
    peaks = peaks[peaks > 0]
    delta_mean = int(math.ceil(float(np.sum(np.diff(peaks))) / (peaks.size - 1)))
    tau = int(math.ceil(0.1 * delta_mean))
    minima = []
    min_gap = max(1, delta_mean // 2)
    for zeta in peaks[:-1]:
        lo = max(0, int(zeta) - tau)
        hi = min(n - 1, int(zeta) + delta_mean + tau)
        if minima:
            lo = max(lo, minima[-1] + min_gap)
        if lo > hi:
            continue
        idx = lo + int(np.argmin(z[lo:hi + 1]))
        if not minima or idx > minima[-1]:
            minima.append(idx)
    return CycleDetection(maxima_indices=peaks.astype(int), delta_mean=delta_mean,
                          minima_indices=np.asarray(minima, dtype=int),
                          search_slack=tau)


def _assert_detection_matches_reference(z):
    sig = VerticalSignal(50.0, z)
    assert np.max(np.abs(autocorrelate(sig) - _reference_autocorrelate(z))) <= 1e-9
    got, want = detect_cycles(sig), _reference_detect(z)
    assert np.array_equal(got.maxima_indices, want.maxima_indices)
    assert got.delta_mean == want.delta_mean
    assert np.array_equal(got.minima_indices, want.minima_indices)
    assert got.search_slack == want.search_slack


@pytest.mark.parametrize("step", [None, 0.05, 0.25, 0.5])
@pytest.mark.parametrize("snr_db,seed", [(np.inf, 0), (30.0, 1), (20.0, 2), (10.0, 8)])
def test_detection_equals_sequential_reference(snr_db, seed, step):
    # rounding to a coarse step makes exact ties among the window minima
    z = walking_signal(seed=seed, n_cycles=40, snr_db=snr_db).z
    if step is not None:
        z = np.round(z / step) * step
    _assert_detection_matches_reference(z)


@pytest.mark.parametrize("seed", [4, 7, 41])
def test_detection_with_windows_clipped_at_both_ends(seed):
    # a slow step plus a period-3 ripple that decorrelates within a few
    # samples: the first maximum sits at lag 3, inside the slack of a step
    # several times longer, and the far tail adds maxima near the end
    rng = np.random.default_rng(seed)
    n, period = int(rng.integers(300, 900)), int(rng.integers(40, 80))
    e = rng.standard_normal(n + 50)
    r, w = 0.6, 2 * np.pi / 3
    ripple = sps.lfilter([1.0], [1.0, -2 * r * np.cos(w), r * r], e)[50:]
    z = (np.sin(2 * np.pi * np.arange(n) / period)
         + float(rng.uniform(0.3, 2.0)) * ripple / ripple.std())
    det = detect_cycles(VerticalSignal(50.0, z))
    zeta, tau = det.maxima_indices, det.search_slack
    assert zeta[0] - tau < 0
    assert zeta[-2] + det.delta_mean + tau > n - 1
    _assert_detection_matches_reference(z)


# -- split & normalize ----------------------------------------------------------------

def _manual_detection(minima):
    return CycleDetection(maxima_indices=np.asarray(minima),
                          delta_mean=int(np.diff(minima).mean()),
                          minima_indices=np.asarray(minima), search_slack=2)


def test_cycle_of_exact_length_is_unchanged():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(200)
    det = _manual_detection([0, 20, 40, 60, 80])
    seq = split_and_normalize(VerticalSignal(50.0, z), det, rho=40)
    assert seq.q == 2
    assert np.allclose(seq.cycles[0], z[0:40], atol=1e-9)
    assert np.allclose(seq.cycles[1], z[40:80], atol=1e-9)


def _one_cycle(raw, rho):
    """Reference: one cycle resampled on its own, as is when already rho long."""
    return raw.copy() if raw.shape[0] == rho else sps.resample(raw, rho)


def test_sinusoid_fourier_resampling_is_exact():
    cycle = np.sin(2 * np.pi * np.arange(80) / 80)
    out = cycles_from_bounds(cycle, np.array([0, 40, 80]), 40)[0]
    expected = np.sin(2 * np.pi * np.arange(40) / 40)
    assert np.allclose(out, expected, atol=1e-6)


def test_resample_idempotent_on_target_length():
    rng = np.random.default_rng(2)
    cycle = rng.standard_normal(40)
    assert np.allclose(cycles_from_bounds(cycle, np.array([0, 20, 40]), 40)[0],
                       cycle, atol=1e-9)


def test_cycle_too_short():
    z = np.arange(30.0)
    det = _manual_detection([0, 1, 3, 5, 7])
    with pytest.raises(CycleTooShort):
        split_and_normalize(VerticalSignal(50.0, z), det, rho=40)


def test_ragged_cycles_equal_per_cycle_resampling():
    # full-cycle lengths 37, 40 (= rho), 43, 37, 52, 43, 40: five cycles share
    # a length with another, and one needs no resampling at all
    rng = np.random.default_rng(3)
    z = rng.standard_normal(400)
    edges = np.cumsum([5, 37, 40, 43, 37, 52, 43, 40])
    bounds = np.empty(2 * edges.shape[0] - 1, dtype=int)
    bounds[0::2] = edges
    bounds[1::2] = (edges[:-1] + edges[1:]) // 2
    out = cycles_from_bounds(z, bounds, 40)
    assert out.shape == (7, 40)
    for i in range(7):
        assert np.array_equal(out[i], _one_cycle(z[edges[i]:edges[i + 1]], 40))


@pytest.mark.parametrize("rho,lengths", [
    (37, [37, 40, 43, 36, 37, 52, 38, 41]),   # odd rho, two cycles already rho long
    (160, [37, 40, 43, 52, 99, 100, 150]),    # every cycle upsampled
    (100, [100, 99, 102, 100, 98, 101, 150]),  # both sides of rho, and rho itself
    (40, [43]),                                # a single cycle
    (37, [37]),                                # a single cycle already rho long
])
def test_resampling_equals_per_cycle_resample(rho, lengths):
    rng = np.random.default_rng(rho + len(lengths))
    edges = np.cumsum([5, *lengths])
    z = rng.standard_normal(int(edges[-1]) + 5)
    bounds = np.empty(2 * edges.shape[0] - 1, dtype=int)
    bounds[0::2] = edges
    bounds[1::2] = (edges[:-1] + edges[1:]) // 2
    out = cycles_from_bounds(z, bounds, rho)
    assert out.shape == (len(lengths), rho)
    for i in range(len(lengths)):
        assert np.array_equal(out[i], _one_cycle(z[edges[i]:edges[i + 1]], rho))


def test_short_cycle_in_the_middle_raises():
    z = np.arange(200.0)
    bounds = np.array([0, 20, 40, 41, 43, 60, 80])  # cycle 1 spans 3 samples
    with pytest.raises(CycleTooShort, match="raw cycle of 3 samples"):
        cycles_from_bounds(z, bounds, 40)


def test_deployment_shape_rho_40():
    sig = walking_signal(seed=5, n_cycles=30)
    seq = split_and_normalize(sig, detect_cycles(sig), rho=40)
    assert seq.cycles.shape == (seq.q, 40)
    assert seq.q >= 20


def test_reconstruction_ordering_contiguous():
    sig = walking_signal(seed=6, n_cycles=25)
    det = detect_cycles(sig)
    seq = split_and_normalize(sig, det, rho=40)
    bounds = det.minima_indices
    assert seq.q == (bounds.shape[0] - 1) // 2
    starts = bounds[0: 2 * seq.q: 2]
    ends = bounds[2: 2 * seq.q + 1: 2]
    # each cycle starts where the previous one ends, in signal order
    assert np.array_equal(starts[1:], ends[:-1])
    for i in range(seq.q):
        assert np.array_equal(seq.cycles[i], _one_cycle(sig.z[starts[i]:ends[i]], 40))


@pytest.mark.parametrize("period,seed", [(20, 0), (36, 1), (60, 2), (100, 3)])
def test_period_recovery_with_noise(period, seed):
    rng = np.random.default_rng(seed)
    n = max(1500, 15 * period)
    t = np.arange(n)
    z = np.sin(2 * np.pi * t / period)
    noise = rng.standard_normal(n) * np.sqrt(0.5 / 10 ** (10 / 10))  # 10 dB
    det = detect_cycles(VerticalSignal(50.0, z + noise))
    seq = split_and_normalize(VerticalSignal(50.0, z + noise), det, rho=40)
    full_est = 2.0 * float(np.mean(np.diff(det.minima_indices)))
    assert 0.9 * 2 * period <= full_est <= 1.1 * 2 * period
    assert seq.q >= 3


def test_energy_preserved_by_resampling():
    # band-limited cycles: RMS within 10% after normalization
    sig = walking_signal(seed=8, n_cycles=25)
    det = detect_cycles(sig)
    seq = split_and_normalize(sig, det, rho=40)
    bounds = det.minima_indices
    for i in range(seq.q):
        raw = sig.z[bounds[2 * i]: bounds[2 * i + 2]]
        rms_raw = np.sqrt(np.mean(raw ** 2))
        rms_new = np.sqrt(np.mean(seq.cycles[i] ** 2))
        assert abs(rms_new - rms_raw) <= 0.1 * rms_raw


# -- windows ----------------------------------------------------------------------

@pytest.mark.parametrize("window_cycles,overlap", [(0, 0.5), (-1, 0.5), (4, 1.0), (4, -0.1)])
def test_windows_reject_a_bad_shape(window_cycles, overlap):
    seq = GaitSequence(cycles=np.zeros((10, 8)), rho=8)
    with pytest.raises(ValueError):
        seq.windows(window_cycles, overlap)


def test_sequence_shorter_than_a_window_has_none():
    starts, view = GaitSequence(cycles=np.zeros((5, 8)), rho=8).windows(6)
    assert starts == range(0)
    assert view.shape == (0, 6, 8)


@pytest.mark.parametrize("overlap,step", [(0.0, 4), (0.5, 2), (0.9, 1)])
def test_windows_are_read_only_runs_of_the_cycles(overlap, step):
    cycles = np.arange(11 * 8, dtype=float).reshape(11, 8)
    starts, view = GaitSequence(cycles=cycles, rho=8).windows(4, overlap)
    assert starts == range(0, 8, step)
    assert view.shape == (len(starts), 4, 8)
    for start, window in zip(starts, view):
        assert np.array_equal(window, cycles[start:start + 4])
    assert not view.flags.writeable
