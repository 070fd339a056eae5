"""Segment a vertical acceleration signal into length-normalized gait cycles.

Walking is periodic at the step level: the autocorrelation of the bandpassed
vertical signal peaks once per step.  Those peak lags anchor a search for the
signal minima that separate steps (half cycles); two consecutive half cycles
form one full gait cycle, which is then resampled to a fixed length so cycles
are comparable across devices and walking speeds.

Each record costs a few whole-array calls: one real FFT pair for the
autocorrelation, one batched argmin over every minima search window, one
forward real FFT per distinct raw cycle length and one inverse real FFT for
all of the record's cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy import fft as sp_fft
from scipy import signal as sps

from .errors import (CycleTooShort, NoPeriodicity, SignalTooShort, TooFewMaxima,
                     ZeroVariance)
from .signals import VerticalSignal

#: Least prominence of an autocorrelation maximum that counts as a step.
MIN_PROMINENCE = 0.1


@dataclass
class CycleDetection:
    """Intermediate artifacts of cycle detection.

    maxima_indices  lags of the selected autocorrelation maxima (one per step)
    delta_mean      estimated half-cycle (step) length in samples
    minima_indices  indices into the signal separating half cycles
    search_slack    slack applied around each maximum when locating minima
    """

    maxima_indices: np.ndarray
    delta_mean: int
    minima_indices: np.ndarray
    search_slack: int


@dataclass
class GaitSequence:
    """q contiguous full gait cycles, each resampled to rho samples."""

    cycles: np.ndarray = field(repr=False)  # shape (q, rho)
    rho: int = 0

    @property
    def q(self) -> int:
        return int(self.cycles.shape[0])

    def windows(self, window_cycles: int, overlap: float = 0.5
                ) -> tuple[range, np.ndarray]:
        """Runs of ``window_cycles`` consecutive cycles, consecutive runs
        sharing ``overlap`` of their cycles.

        Returns the first cycle of each run and the runs as one read-only
        (W, window_cycles, rho) strided view of ``cycles``, so cycle i of the
        run starting at cycle s is cycle s + i.  A sequence shorter than one
        run gives W = 0.
        """
        if not 0.0 <= overlap < 1.0:
            raise ValueError(f"overlap must be in [0, 1), got {overlap}")
        if window_cycles < 1:
            raise ValueError("window_cycles must be >= 1")
        step = max(1, int(round(window_cycles * (1.0 - overlap))))
        starts = range(0, self.q - window_cycles + 1, step)
        stride_q, stride_rho = self.cycles.strides
        view = as_strided(self.cycles,
                          shape=(len(starts), window_cycles, self.cycles.shape[1]),
                          strides=(step * stride_q, stride_q, stride_rho), writeable=False)
        return starts, view


def autocorrelate(sig: VerticalSignal) -> np.ndarray:
    """Normalized discrete autocorrelation a_k = sum_t z[t+k] z[t] / ((n-k) var).

    For a mean-free signal a_0 is 1.  The (n-k) normalization keeps the scale
    lag-independent but inflates estimator noise at large lags, so callers
    should not trust the far tail.  The sums come from one real FFT zero-padded
    to at least 2n - 1 points, so the circular products never wrap, and the
    inverse transform of its power spectrum.
    """
    z = np.asarray(sig.z, dtype=float)
    n = z.shape[0]
    if n < 4:
        raise SignalTooShort(f"autocorrelation needs >= 4 samples, got {n}")
    var = float(np.var(z))
    scale = float(np.max(np.abs(z)))
    if var <= 1e-12 * max(scale * scale, 1e-12):
        raise ZeroVariance("signal variance is zero (constant input)")
    nfft = sp_fft.next_fast_len(2 * n - 1, real=True)
    spectrum = sp_fft.rfft(z, nfft)
    raw = sp_fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, nfft)[:n]
    denom = (n - np.arange(n)) * var
    return raw / denom


def detect_cycles(sig: VerticalSignal) -> CycleDetection:
    """Locate half-cycle boundaries via autocorrelation-guided minima selection.

    Steps:
      1. autocorrelate and pick non-ambiguous maxima: peak prominence at least
         ``MIN_PROMINENCE`` and inter-peak distance at least half the lag of
         the first significant peak (suppresses intra-cycle wiggle maxima);
      2. delta_mean = ceil(mean spacing of the maxima) estimates the step
         length in samples;
      3. around each maximum lag, take the signal argmin over
         [zeta_i - tau, zeta_i + delta_mean + tau] as a half-cycle boundary,
         with slack tau = ceil(0.1 * delta_mean).

    Step 3 takes every window's first argmin in one call, over a copy of the
    signal padded with +inf so that windows clipped at 0 or n - 1 search only
    the signal.
    """
    acorr = autocorrelate(sig)
    z = sig.z
    n = z.shape[0]

    # assess periodicity on the near field only: beyond n/2 the (n-k)
    # normalization leaves too few product terms and noise alone crosses any
    # fixed prominence floor
    near = acorr[: max(4, n // 2)]
    if float(np.max(near[1:])) < MIN_PROMINENCE:
        raise NoPeriodicity(
            f"no off-zero autocorrelation above {MIN_PROMINENCE}")
    first_peaks, _ = sps.find_peaks(near[1:], prominence=MIN_PROMINENCE)
    if first_peaks.size == 0:
        raise NoPeriodicity("no prominent autocorrelation peak found")
    delta_rough = int(first_peaks[0]) + 1

    # the far tail has too few product terms for the peak estimate to matter;
    # keep one rough period of headroom for the minima search window
    lag_cap = max(2, n - delta_rough)
    peaks, _ = sps.find_peaks(acorr[:lag_cap], prominence=MIN_PROMINENCE,
                              distance=max(1, delta_rough // 2))
    peaks = peaks[peaks > 0]
    m = peaks.size
    if m < 3:
        raise TooFewMaxima(f"need >= 3 autocorrelation maxima, found {m}")

    spacing = np.diff(peaks)
    delta_mean = int(math.ceil(float(np.sum(spacing)) / (m - 1)))
    tau = int(math.ceil(0.1 * delta_mean))

    # consecutive search windows overlap; forcing each search to start past
    # the previous pick keeps one boundary per step instead of letting a deep
    # neighboring minimum win twice.  A window's first argmin at or past that
    # start is also the first argmin of the shortened window, so only a window
    # whose argmin lies before it is searched again.  The +inf pads stand for
    # the clipped ends: a window reaches tau before 0 and, as zeta <= n - 1, at
    # most delta_mean + tau past n - 1.
    zeta = peaks[:-1]
    width = delta_mean + 2 * tau + 1
    padded = np.concatenate((np.full(tau, np.inf), z, np.full(delta_mean + tau, np.inf)))
    first = zeta - tau + np.argmin(sliding_window_view(padded, width)[zeta], axis=1)
    minima: list[int] = []
    min_gap = max(1, delta_mean // 2)
    for lo, hi, idx in zip(np.maximum(0, zeta - tau).tolist(),
                           np.minimum(n - 1, zeta + delta_mean + tau).tolist(),
                           first.tolist()):
        if minima:
            lo = max(lo, minima[-1] + min_gap)
            if lo > hi:
                continue
            if idx < lo:
                idx = lo + int(np.argmin(z[lo:hi + 1]))
        minima.append(idx)

    return CycleDetection(
        maxima_indices=peaks.astype(int),
        delta_mean=delta_mean,
        minima_indices=np.asarray(minima, dtype=int),
        search_slack=int(tau),
    )


def cycles_from_bounds(z: np.ndarray, bounds: np.ndarray, rho: int) -> np.ndarray:
    """Cut full cycles between every second boundary and Fourier-resample each
    to rho samples.

    The result equals ``scipy.signal.resample(cycle, rho)`` for each cycle,
    bit for bit, by following its real-input path as of scipy 1.17, which
    divides the spectrum by ``length / rho`` before the inverse FFT: the
    cycles of one raw length share one forward FFT, their low bins are
    rescaled into one ``(q, rho // 2 + 1)`` spectrum, and one inverse FFT
    turns every row back into rho samples.  A cycle already rho samples long
    is copied as is.  The bounds must be increasing indices into ``z``, as
    ``detect_cycles`` gives them.
    """
    z = np.asarray(z, dtype=float)
    q = (bounds.shape[0] - 1) // 2
    edges = np.asarray(bounds[:2 * q + 1:2], dtype=int)
    lengths = np.diff(edges)
    short = lengths[lengths < 4]
    if short.size:
        raise CycleTooShort(f"raw cycle of {short[0]} samples")
    # sorted by length, the cycles of one raw length are one block of rows;
    # rows shorter than the longest cycle carry samples past their end, unused
    order = np.argsort(lengths, kind="stable")
    ranked = lengths[order].tolist()
    reach = edges[order, None] + np.arange(max(ranked, default=0))
    raw = z[np.minimum(reach, z.shape[0] - 1)]
    spectra = np.zeros((q, rho // 2 + 1), dtype=complex)
    exact = None
    starts = [i for i in range(q) if i == 0 or ranked[i] != ranked[i - 1]]
    for start, end in zip(starts, [*starts[1:], q]):
        length = ranked[start]
        if length == rho:
            exact = slice(start, end)
            continue
        kept = min(rho, length)
        bins = sp_fft.rfft(raw[start:end, :length])[:, :kept // 2 + 1]
        if kept % 2 == 0:  # the unpaired bin at kept/2, as scipy splits or unites it
            bins[:, kept // 2] *= 2 if length > rho else 0.5
        spectra[start:end, :kept // 2 + 1] = bins / (length / rho)
    ranked_out = sp_fft.irfft(spectra, n=rho)
    if exact is not None:
        ranked_out[exact] = raw[exact, :rho]
    out = np.empty_like(ranked_out)
    out[order] = ranked_out
    return out


def split_and_normalize(sig: VerticalSignal, det: CycleDetection,
                        rho: int) -> GaitSequence:
    """Cut the signal into full cycles and resample each to rho samples.

    A full cycle spans two consecutive half-cycle boundaries pairs, so
    q = floor((len(minima) - 1) / 2); a trailing odd half cycle is dropped.
    """
    if rho < 2:
        raise ValueError("rho must be >= 2")
    bounds = det.minima_indices
    if bounds.shape[0] < 3:
        raise TooFewMaxima(
            f"need >= 3 half-cycle boundaries, got {bounds.shape[0]}")
    return GaitSequence(cycles=cycles_from_bounds(sig.z, bounds, rho), rho=rho)
