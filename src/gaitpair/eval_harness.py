"""Desk-scale evaluation: discriminability, reliability benefit, coherence,
randomness, and the rate-limit arithmetic of the pairing scheme.

All similarity statistics are recomputable from the raw pair lists emitted
alongside the summaries; nothing is aggregated away.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sps
from scipy.special import erfc, gammaincc

from .config import Config
from .dataset_io import Corpus, _map_in_order, cached_sequence
from .errors import (
    ConfigError,
    InsufficientBits,
    InsufficientPairs,
    MissingPosition,
    MixedSampleRates,
    TooFewKeys,
)
from .fingerprint import check_order, window_fingerprints
from .fuzzy_ecc import choose_params
from .gait import GaitSequence, detect_cycles, split_and_normalize
from .signals import VerticalSignal, extract_vertical, preprocess_record

RANDOMNESS_ALPHA = 0.001
SECONDS_PER_DAY = 86400


# -- report containers ----------------------------------------------------------------

# The CLI writes each report's fields to JSON in declaration order; the
# ``repr=False`` fields are the raw pair lists, which go to CSV instead.

@dataclass
class DistributionSummary:
    mean: float
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    n_outliers: int
    count: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "DistributionSummary":
        v = np.asarray(values, dtype=float)
        q1, med, q3 = (float(x) for x in np.percentile(v, [25, 50, 75]))
        iqr = q3 - q1
        lo_lim, hi_lim = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = v[(v >= lo_lim) & (v <= hi_lim)]
        return cls(
            mean=float(np.mean(v)),
            median=med,
            q1=q1,
            q3=q3,
            whisker_lo=float(inside.min()) if inside.size else float(v.min()),
            whisker_hi=float(inside.max()) if inside.size else float(v.max()),
            n_outliers=int(v.size - inside.size),
            count=int(v.size),
        )


@dataclass
class PairSimilarity:
    subject_a: str
    position_a: str
    subject_b: str
    position_b: str
    window: int
    value: float


@dataclass
class SimilarityReport:
    intra: DistributionSummary
    inter: dict[str, DistributionSummary]
    collision_rate_above_threshold: float
    threshold: float
    n_intra: int
    n_inter: int
    intra_pairs: list[PairSimilarity] = field(repr=False, default_factory=list)
    inter_pairs: list[PairSimilarity] = field(repr=False, default_factory=list)


@dataclass
class SweepEntry:
    M: int
    extra_bits: int
    summary: DistributionSummary
    pairs: list[PairSimilarity] = field(repr=False, default_factory=list)


@dataclass
class SweepReport:
    N: int
    entries: list[SweepEntry]

    def mean_by_extra(self) -> dict[int, float]:
        return {e.extra_bits: e.summary.mean for e in self.entries}


@dataclass
class CoherenceReport:
    freqs: np.ndarray
    mean_same_subject: np.ndarray
    mean_different_subject: np.ndarray
    n_same_pairs: int
    n_diff_pairs: int
    low_band_hz: float
    low_band_elevated: bool


@dataclass
class PositionTable:
    positions: list[str]
    matrix: np.ndarray
    n_values: np.ndarray


@dataclass
class RandomnessReport:
    n_bits: int
    alpha: float
    p_values: dict[str, float]
    details: dict[str, float]
    passed: bool
    failures: list[str]


# -- pipeline helpers --------------------------------------------------------------------

RecordKey = tuple[str, str, str]  # subject, position, recording


def _preprocess_corpus(corpus: Corpus, cfg: Config
                       ) -> dict[RecordKey, GaitSequence | None]:
    """Run the signal pipeline, cycle detection and cycle resampling once per
    record content.  Every window of every size is a slice of the record's
    one resampled sequence, which is None for a record without a full cycle.

    A record loaded from CSV reads its sequence from the corpus's
    ``.cycles`` cache entry when one holds it for this sample rate, band and
    rho, and stores it there after a miss (``cached_sequence``); a record
    built in memory always computes.
    """
    def compute(rec) -> GaitSequence | None:
        sig = preprocess_record(rec, band=cfg.band)
        det = detect_cycles(sig)
        return (split_and_normalize(sig, det, cfg.rho)
                if det.minima_indices.shape[0] >= 3 else None)

    def work(item):
        rec, source = item
        seq = cached_sequence(source, rec.sample_rate, cfg.band, cfg.rho,
                              lambda: compute(rec))
        return (rec.subject_id, rec.position, rec.recording_id), seq

    sources = corpus.sources or [None] * len(corpus.records)
    return dict(_map_in_order(work, list(zip(corpus.records, sources))))


def _fingerprints(processed, cfg: Config, window_cycles: int
                  ) -> dict[RecordKey, tuple[np.ndarray, np.ndarray]]:
    """Bits and own reliability orders of every half-overlapping window, as
    (W, M) rows per record, computed once per analysis; row w is window w.
    A record without a full cycle is left out, and one shorter than one
    window has W = 0.  Every order is checked against ``cfg.cutoff`` here,
    once per record, as ``reduce`` checks one."""
    out = {}
    for key, seq in processed.items():
        if seq is not None:
            bits, _, orders = window_fingerprints(seq, window_cycles, cfg.bits_per_cycle)
            check_order(orders, bits.shape[1], cfg.cutoff)
            out[key] = bits, orders
    return out


def _window_pairs(fingerprints, key_pairs, N: int) -> list[PairSimilarity]:
    """Similarity of each same-index window pair of every (key_a, key_b).

    The reliability order of key_a's window is applied to both sides, as a
    session applies the initiator's order to both ends.  A key pair
    takes one gather of its disagreeing bits, through key_a's first N order
    entries, and one count per row; the values equal ``similarity`` of the
    two ``reduce``d windows.
    """
    pairs: list[PairSimilarity] = []
    for ka, kb in key_pairs:
        if ka not in fingerprints or kb not in fingerprints:
            continue
        (bits_a, order_a), (bits_b, _) = fingerprints[ka], fingerprints[kb]
        n = min(len(bits_a), len(bits_b))
        differ = np.take_along_axis(bits_a[:n] != bits_b[:n], order_a[:n, :N], axis=1)
        values = 1.0 - np.count_nonzero(differ, axis=1) / N
        pairs.extend(PairSimilarity(ka[0], ka[1], kb[0], kb[1], w, v)
                     for w, v in enumerate(values.tolist()))
    return pairs


def _intra_keys(processed) -> list[tuple[RecordKey, RecordKey]]:
    """Same subject and recording, different positions, in position order."""
    groups: dict[tuple[str, str], list[str]] = {}
    for subject, position, recording in processed:
        groups.setdefault((subject, recording), []).append(position)
    return [((s, a, r), (s, b, r)) for (s, r), positions in groups.items()
            for a, b in itertools.combinations(sorted(positions), 2)]


def _inter_keys(processed) -> list[tuple[RecordKey, RecordKey]]:
    """Same position, different subjects, in key order."""
    return [(a, b) for a, b in itertools.combinations(sorted(processed), 2)
            if a[0] != b[0] and a[1] == b[1]]


# -- analyses ---------------------------------------------------------------------------

def coherence_analysis(corpus: Corpus, cfg: Config | None = None) -> CoherenceReport:
    """Welch-averaged magnitude-squared coherence of gravity-aligned
    vertical signals: simultaneous same-body pairs against cross-body pairs.

    Every pair is computed on one frequency grid, whose Hann segments are
    sized so the shortest record of the corpus spans 8 of them at 50%
    overlap; a longer pair averages more segments.  Pairs are compared
    sample by sample, so every record must share one sample rate.  Uses the
    unfiltered vertical signal; the report flags whether cross-body coherence
    is elevated below ``cfg.band``'s lower corner, the band the bandpass
    later removes.
    """
    cfg = cfg or Config()
    rates = sorted({rec.sample_rate for rec in corpus.records})
    if len(rates) > 1:
        raise MixedSampleRates(
            "coherence compares records sample by sample and needs one sample "
            f"rate; the corpus has {', '.join(f'{r:g} Hz' for r in rates)}")
    verticals: dict[RecordKey, VerticalSignal] = {
        (rec.subject_id, rec.position, rec.recording_id): vertical
        for rec, vertical in zip(corpus.records,
                                 _map_in_order(extract_vertical, corpus.records))}

    same_pairs = _intra_keys(verticals)
    diff_pairs = _inter_keys(verticals)
    if not same_pairs:
        raise InsufficientPairs("need >= 2 simultaneous same-subject recordings")
    if not diff_pairs:
        raise InsufficientPairs("need recordings from >= 2 subjects")
    nperseg = max(8, int(min(v.z.shape[0] for v in verticals.values()) / 4.5))

    def averaged(pair_list):
        acc = None
        for a, b in pair_list:
            za, zb = verticals[a].z, verticals[b].z
            n = min(za.shape[0], zb.shape[0])
            freqs, c = sps.coherence(za[:n] - za[:n].mean(), zb[:n] - zb[:n].mean(),
                                     fs=verticals[a].sample_rate, window="hann",
                                     nperseg=nperseg, noverlap=nperseg // 2)
            acc = c if acc is None else acc + c
        return freqs, acc / len(pair_list)

    freqs, mean_same = averaged(same_pairs)
    _, mean_diff = averaged(diff_pairs)

    lo, hi = cfg.band
    low = freqs < lo
    high = (freqs >= lo) & (freqs <= hi)
    elevated = bool(low.any() and high.any()
                    and mean_diff[low].mean() > mean_diff[high].mean())
    return CoherenceReport(
        freqs=freqs,
        mean_same_subject=mean_same,
        mean_different_subject=mean_diff,
        n_same_pairs=len(same_pairs),
        n_diff_pairs=len(diff_pairs),
        low_band_hz=lo,
        low_band_elevated=elevated,
    )


def reliability_sweep(corpus: Corpus,
                      extra_bits: tuple[int, ...] = (0, 16, 32, 48, 64, 128),
                      cfg: Config | None = None) -> SweepReport:
    """Mean intra-body similarity for fingerprint sizes M = N + extra, all
    reduced with cutoff N = ``cfg.cutoff``: how much discarding unreliable
    bits buys."""
    cfg = cfg or Config()
    N, b = cfg.cutoff, cfg.bits_per_cycle
    for extra in extra_bits:
        if (N + extra) % b != 0:
            raise InsufficientBits(f"M={N + extra} not divisible by b={b}")
    processed = _preprocess_corpus(corpus, cfg)
    intra_keys = _intra_keys(processed)

    entries = []
    for extra in sorted(extra_bits):
        m_total = N + extra
        fingerprints = _fingerprints(processed, cfg, m_total // b)
        pairs = _window_pairs(fingerprints, intra_keys, N)
        if not pairs:
            raise InsufficientBits(
                f"no intra-body window pairs at M={m_total}: corpus too short")
        values = np.array([p.value for p in pairs])
        entries.append(SweepEntry(M=m_total, extra_bits=extra,
                                  summary=DistributionSummary.from_values(values),
                                  pairs=pairs))
    return SweepReport(N=N, entries=entries)


def discriminability(corpus: Corpus, cfg: Config | None = None) -> SimilarityReport:
    """Intra-body versus inter-body similarity distributions at
    M = ``cfg.fingerprint_bits``, reduced to N = ``cfg.cutoff``.

    Intra: every position pair within each subject, same window index.
    Inter: same position across different subjects, same window index.
    Both sides of a pair are reduced by the first record's reliability order.
    The collision rate counts inter-body similarities above the pairing
    threshold.
    """
    cfg = cfg or Config()
    processed = _preprocess_corpus(corpus, cfg)
    fingerprints = _fingerprints(processed, cfg, cfg.cycles_per_fingerprint)
    intra = _window_pairs(fingerprints, _intra_keys(processed), cfg.cutoff)
    inter = _window_pairs(fingerprints, _inter_keys(processed), cfg.cutoff)

    if not intra:
        raise InsufficientPairs("no intra-body pairs (need >= 2 positions)")
    if not inter:
        raise InsufficientPairs("no inter-body pairs (need >= 2 subjects)")

    inter_by_pos: dict[str, list[float]] = {}
    for p in inter:
        inter_by_pos.setdefault(p.position_a, []).append(p.value)
    inter_values = np.array([p.value for p in inter])
    collision = float(np.mean(inter_values > cfg.threshold))

    return SimilarityReport(
        intra=DistributionSummary.from_values(np.array([p.value for p in intra])),
        inter={pos: DistributionSummary.from_values(np.array(vals))
               for pos, vals in sorted(inter_by_pos.items())},
        collision_rate_above_threshold=collision,
        threshold=cfg.threshold,
        n_intra=len(intra),
        n_inter=len(inter),
        intra_pairs=intra,
        inter_pairs=inter,
    )


def position_table(corpus: Corpus, cfg: Config | None = None,
                   required_positions: tuple[str, ...] | None = None
                   ) -> PositionTable:
    """Symmetric matrix of mean intra-body similarity per position pair."""
    cfg = cfg or Config()
    positions = sorted(corpus.positions)
    if required_positions:
        missing = [p for p in required_positions if p not in positions]
        if missing:
            raise MissingPosition(f"corpus lacks positions {missing}")
        positions = sorted(required_positions)

    processed = _preprocess_corpus(corpus, cfg)
    fingerprints = _fingerprints(processed, cfg, cfg.cycles_per_fingerprint)
    pairs = _window_pairs(fingerprints, _intra_keys(processed), cfg.cutoff)
    if not pairs:
        raise InsufficientPairs("no intra-body pairs for the position table")

    k = len(positions)
    index = {p: i for i, p in enumerate(positions)}
    sums = np.zeros((k, k))
    counts = np.zeros((k, k), dtype=int)
    for p in pairs:
        if p.position_a not in index or p.position_b not in index:
            continue
        i, j = index[p.position_a], index[p.position_b]
        sums[i, j] += p.value
        sums[j, i] += p.value
        counts[i, j] += 1
        counts[j, i] += 1
    with np.errstate(invalid="ignore"):
        matrix = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    np.fill_diagonal(matrix, 1.0)
    np.fill_diagonal(counts, 0)
    return PositionTable(positions=positions, matrix=matrix, n_values=counts)


# -- randomness tests ---------------------------------------------------------------------

def _monobit_p(bits: np.ndarray) -> float:
    n = bits.size
    s = abs(float(np.sum(2.0 * bits - 1.0)))
    return float(erfc(s / math.sqrt(n) / math.sqrt(2.0)))


def _block_frequency_p(bits: np.ndarray, m: int = 128) -> float:
    n_blocks = bits.size // m
    if n_blocks < 1:
        return float("nan")
    trimmed = bits[: n_blocks * m].reshape(n_blocks, m)
    pi = trimmed.mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    return float(gammaincc(n_blocks / 2.0, chi2 / 2.0))


def _runs_p(bits: np.ndarray) -> float:
    n = bits.size
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(np.diff(bits)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))


_LONGEST_RUN_TABLES = (
    # (min_n, block_size, categories, probabilities)
    (750000, 10000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_one_run(block: np.ndarray) -> int:
    if not block.any():
        return 0
    padded = np.concatenate([[0], block, [0]])
    edges = np.flatnonzero(np.diff(padded))
    return int(np.max(edges[1::2] - edges[::2]))


def _longest_run_p(bits: np.ndarray) -> float:
    n = bits.size
    for min_n, m, cats, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    else:
        return float("nan")
    n_blocks = n // m
    counts = np.zeros(len(cats), dtype=int)
    blocks = bits[: n_blocks * m].reshape(n_blocks, m)
    for block in blocks:
        run = _longest_one_run(block)
        run = min(max(run, cats[0]), cats[-1])
        counts[cats.index(run)] += 1
    expected = n_blocks * np.asarray(probs)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return float(gammaincc((len(cats) - 1) / 2.0, chi2 / 2.0))


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the 2^m overlapping m-bit patterns, the stream read cyclically."""
    n = bits.size
    aug = np.concatenate([bits, bits[: m - 1]]) if m > 1 else bits
    vals = np.zeros(n, dtype=np.int64)
    for j in range(m):
        vals = (vals << 1) | aug[j: j + n]
    return np.bincount(vals, minlength=1 << m).astype(float)


def _psi_sq(bits: np.ndarray, m: int) -> float:
    if m <= 0:
        return 0.0
    counts = _pattern_counts(bits, m)
    return float((1 << m) / bits.size * np.sum(counts ** 2) - bits.size)


def _serial_p(bits: np.ndarray, m: int = 3) -> tuple[float, float]:
    psi_m = _psi_sq(bits, m)
    psi_m1 = _psi_sq(bits, m - 1)
    psi_m2 = _psi_sq(bits, m - 2)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = float(gammaincc(2 ** (m - 2), d1 / 2.0))
    p2 = float(gammaincc(2 ** (m - 3), d2 / 2.0))
    return p1, p2


def _phi(bits: np.ndarray, m: int) -> float:
    counts = _pattern_counts(bits, m)
    probs = counts[counts > 0] / bits.size
    return float(np.sum(probs * np.log(probs)))


def _approximate_entropy_p(bits: np.ndarray, m: int = 2) -> float:
    n = bits.size
    apen = _phi(bits, m) - _phi(bits, m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return float(gammaincc(2 ** (m - 1), chi2 / 2.0))


def fingerprint_keys(corpus: Corpus, cfg: Config | None = None) -> list[np.ndarray]:
    """Reduced fingerprint bits of every window: the key corpus for bias
    testing."""
    cfg = cfg or Config()
    processed = _preprocess_corpus(corpus, cfg)
    fingerprints = _fingerprints(processed, cfg, cfg.cycles_per_fingerprint)
    return [row for bits, orders in fingerprints.values()
            for row in np.take_along_axis(bits, orders[:, :cfg.cutoff], axis=1)]


def randomness_suite(keys: list[np.ndarray]) -> RandomnessReport:
    """Six frequency/pattern tests over the pooled stream of ``keys``, a list
    of bit arrays.  The suite fails if any test's p-value on the pooled stream
    drops below ``RANDOMNESS_ALPHA``.
    """
    if len(keys) < 100:
        raise TooFewKeys(f"need >= 100 keys, got {len(keys)}")
    pooled = np.concatenate(keys).astype(np.uint8)

    serial_p1, serial_p2 = _serial_p(pooled)
    p_values = {
        "monobit_frequency": _monobit_p(pooled),
        "block_frequency": _block_frequency_p(pooled),
        "runs": _runs_p(pooled),
        "longest_run": _longest_run_p(pooled),
        "serial": min(serial_p1, serial_p2),
        "approximate_entropy": _approximate_entropy_p(pooled),
    }
    failures = [name for name, p in p_values.items()
                if not math.isnan(p) and p < RANDOMNESS_ALPHA]
    return RandomnessReport(
        n_bits=int(pooled.size),
        alpha=RANDOMNESS_ALPHA,
        p_values=p_values,
        details={"serial_p1": serial_p1, "serial_p2": serial_p2},
        passed=not failures,
        failures=failures,
    )


# -- security arithmetic ---------------------------------------------------------------

def security_arithmetic(session_seconds: float, threshold: float, N: int) -> dict:
    """Attempt budget per day and the error-correction capacity.

    An attacker bound to full sessions gets floor(86400 / session length)
    tries per day.  ``t`` is the budget floor(N * (1 - threshold)) bits;
    ``code_t`` is what the deployed code corrects, on its length 2^m - 1 <= N.
    """
    if not session_seconds > 0:  # also rejects NaN
        raise ConfigError(f"session_seconds must be positive, got {session_seconds}")
    tries = int(SECONDS_PER_DAY // session_seconds)
    t = int(math.floor(N * (1.0 - threshold) + 1e-9))
    return {"tries_per_day": tries, "t": t,
            "code_t": choose_params(N, 1.0 - threshold).t}
