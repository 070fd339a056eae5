"""Desk-scale evaluation: discriminability, reliability benefit, coherence,
key guesswork, and the rate-limit arithmetic of the pairing scheme.

All similarity statistics are recomputable from the raw pair lists emitted
alongside the summaries, and guesswork reports every window's rank; nothing
is aggregated away.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sps

from .config import Config
from .dataset_io import Corpus, RecordKey, _map_in_order, corpus_cycles
from .errors import ConfigError, InsufficientBits, InsufficientPairs, MixedSampleRates
from .fingerprint import compute_fingerprint
from .fuzzy_ecc import CodeParams, encode
from .gait import GaitSequence
from .protocol import session_code_params
from .signals import extract_vertical

SECONDS_PER_DAY = 86400
SWEEP_EXTRA_BITS = (0, 16, 32, 48, 64, 128)  # M = N + extra per sweep entry


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
class GuessworkReport:
    note: str
    key_bits: int
    tries_per_day: int
    n_windows: int
    within_2: float
    within_tries_per_day: float
    within_2_16: float
    median_log2_rank: float
    ranks: dict[str, list[int]]  # subject/position/recording -> rank per window


# -- pipeline helpers --------------------------------------------------------------------

def _fingerprints(cycles, cfg: Config, window_cycles: int
                  ) -> dict[RecordKey, tuple[np.ndarray, np.ndarray]]:
    """Bits and own reliability orders of every half-overlapping window, as
    (W, M) rows per record of ``corpus_cycles``, computed once per analysis;
    row w is window w, and a record shorter than one window has W = 0.
    Orders are ``argsort`` output, and ``Config`` bounds ``cfg.cutoff`` by
    every M a caller asks for, so none is checked here."""
    out = {}
    for key, seq in cycles.items():
        _, windows = seq.windows(window_cycles)
        fp, orders = compute_fingerprint(GaitSequence(cycles=windows, rho=seq.rho),
                                         cfg.bits_per_cycle)
        out[key] = fp.bits, orders
    return out


def _window_pairs(fingerprints, key_pairs, N: int) -> list[PairSimilarity]:
    """Similarity of each same-index window pair of every (key_a, key_b),
    keys of ``fingerprints``.

    The reliability order of key_a's window is applied to both sides, as a
    session applies the initiator's order to both ends.  A key pair
    takes one gather of its disagreeing bits, through key_a's first N order
    entries, and one count per row; the values equal ``similarity`` of the
    two ``reduce``d windows.
    """
    pairs: list[PairSimilarity] = []
    for ka, kb in key_pairs:
        (bits_a, order_a), (bits_b, _) = fingerprints[ka], fingerprints[kb]
        n = min(len(bits_a), len(bits_b))
        differ = np.take_along_axis(bits_a[:n] != bits_b[:n], order_a[:n, :N], axis=1)
        values = 1.0 - np.count_nonzero(differ, axis=1) / N
        pairs.extend(PairSimilarity(ka[0], ka[1], kb[0], kb[1], w, v)
                     for w, v in enumerate(values.tolist()))
    return pairs


def _intra_keys(records) -> list[tuple[RecordKey, RecordKey]]:
    """Same subject and recording, different positions, in position order."""
    groups: dict[tuple[str, str], list[str]] = {}
    for subject, position, recording in records:
        groups.setdefault((subject, recording), []).append(position)
    return [((s, a, r), (s, b, r)) for (s, r), positions in groups.items()
            for a, b in itertools.combinations(sorted(positions), 2)]


def _inter_keys(records) -> list[tuple[RecordKey, RecordKey]]:
    """Same position, different subjects, in key order."""
    return [(a, b) for a, b in itertools.combinations(sorted(records), 2)
            if a[0] != b[0] and a[1] == b[1]]


# -- analyses ---------------------------------------------------------------------------

def coherence_analysis(corpus: Corpus, cfg: Config) -> CoherenceReport:
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
    rates = sorted({rec.sample_rate for rec in corpus.records})
    if len(rates) > 1:
        raise MixedSampleRates(
            "coherence compares records sample by sample and needs one sample "
            f"rate; the corpus has {', '.join(f'{r:g} Hz' for r in rates)}")
    verticals: dict[RecordKey, np.ndarray] = {
        (rec.subject_id, rec.position, rec.recording_id): vertical
        for rec, vertical in zip(corpus.records,
                                 _map_in_order(extract_vertical, corpus.records))}

    same_pairs = _intra_keys(verticals)
    diff_pairs = _inter_keys(verticals)
    if not same_pairs:
        raise InsufficientPairs("need >= 2 simultaneous same-subject recordings")
    if not diff_pairs:
        raise InsufficientPairs("need recordings from >= 2 subjects")
    nperseg = max(8, int(min(z.shape[0] for z in verticals.values()) / 4.5))

    def averaged(pair_list):
        acc = None
        for a, b in pair_list:
            za, zb = verticals[a], verticals[b]
            n = min(za.shape[0], zb.shape[0])
            freqs, c = sps.coherence(za[:n] - za[:n].mean(), zb[:n] - zb[:n].mean(),
                                     fs=rates[0], window="hann",
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


def sweep_sizes(cfg: Config) -> list[int]:
    """``reliability_sweep``'s sizes M = N + extra, each whole cycles of b
    bits; they depend on ``cfg`` alone, so the CLI checks them before any I/O."""
    b = cfg.bits_per_cycle
    sizes = [cfg.cutoff + extra for extra in SWEEP_EXTRA_BITS]
    for m_total in sizes:
        if m_total % b != 0:
            raise ConfigError(f"reliability sweep size M={m_total} not divisible "
                              f"by bits_per_cycle={b}")
    return sizes


def reliability_sweep(corpus: Corpus, cfg: Config) -> SweepReport:
    """Mean intra-body similarity for fingerprint sizes M = N + extra, one
    entry per ``SWEEP_EXTRA_BITS``, all reduced with cutoff N = ``cfg.cutoff``:
    how much discarding unreliable bits buys."""
    N, b = cfg.cutoff, cfg.bits_per_cycle
    sizes = sweep_sizes(cfg)
    cycles = corpus_cycles(corpus, cfg)
    intra_keys = _intra_keys(cycles)

    entries = []
    for m_total in sizes:
        fingerprints = _fingerprints(cycles, cfg, m_total // b)
        pairs = _window_pairs(fingerprints, intra_keys, N)
        if not pairs:
            raise InsufficientBits(
                f"no intra-body window pairs at M={m_total}: corpus too short")
        values = np.array([p.value for p in pairs])
        entries.append(SweepEntry(M=m_total, extra_bits=m_total - N,
                                  summary=DistributionSummary.from_values(values),
                                  pairs=pairs))
    return SweepReport(N=N, entries=entries)


def discriminability(corpus: Corpus, cfg: Config) -> SimilarityReport:
    """Intra-body versus inter-body similarity distributions at
    M = ``cfg.fingerprint_bits``, reduced to N = ``cfg.cutoff``.

    Intra: every position pair within each subject, same window index.
    Inter: same position across different subjects, same window index.
    Both sides of a pair are reduced by the first record's reliability order.
    The collision rate counts inter-body similarities above the pairing
    threshold.
    """
    cycles = corpus_cycles(corpus, cfg)
    fingerprints = _fingerprints(cycles, cfg, cfg.cycles_per_fingerprint)
    intra = _window_pairs(fingerprints, _intra_keys(cycles), cfg.cutoff)
    inter = _window_pairs(fingerprints, _inter_keys(cycles), cfg.cutoff)

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


def position_table(corpus: Corpus, cfg: Config) -> PositionTable:
    """Symmetric matrix of mean intra-body similarity per position pair of
    the corpus."""
    positions = sorted(corpus.positions)
    cycles = corpus_cycles(corpus, cfg)
    fingerprints = _fingerprints(cycles, cfg, cfg.cycles_per_fingerprint)
    pairs = _window_pairs(fingerprints, _intra_keys(cycles), cfg.cutoff)
    if not pairs:
        raise InsufficientPairs("no intra-body pairs for the position table")

    k = len(positions)
    index = {p: i for i, p in enumerate(positions)}
    sums = np.zeros((k, k))
    counts = np.zeros((k, k), dtype=int)
    for p in pairs:
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


# -- key guesswork ---------------------------------------------------------------------

GUESSWORK_MAX_K = 22  # every key is scored: 2^k per window


def _pair_types(positions: np.ndarray, b: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word index pairs (i, j) whose fingerprint positions lie in one cycle or
    adjacent cycles, i's position the lower, and each pair's type
    d * b^2 + segment_i * b + segment_j for cycle distance d."""
    low, high = positions[:, None], positions[None, :]
    i, j = np.nonzero((low < high) & (high // b - low // b <= 1))
    pi, pj = positions[i], positions[j]
    return i, j, (pj // b - pi // b) * b * b + pi % b * b + pj % b


def _sign_table(start: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Row x is ``start`` times (-1)^(x . flips) over GF(2), with x's bits
    most significant first against the rows of ``flips``."""
    table = start[None, :].astype(np.float32)
    for row in flips[::-1]:  # the last row is the lowest bit
        table = np.concatenate([table, table * (1 - 2 * row.astype(np.float32))])
    return table


def guesswork_code(cfg: Config) -> CodeParams:
    """The session code whose 2^k keys ``key_guesswork`` enumerates, k at most
    ``GUESSWORK_MAX_K``; it depends on ``cfg`` alone, so the CLI checks it
    before any I/O."""
    params = session_code_params(cfg)
    if params.k > GUESSWORK_MAX_K:
        raise ConfigError(f"guesswork scores all 2^k keys, up to k = {GUESSWORK_MAX_K}; "
                          f"this code has k = {params.k}")
    return params


def key_guesswork(corpus: Corpus, cfg: Config, *,
                  tries_per_day: int) -> GuessworkReport:
    """How many guesses a passive listener needs for each window's key, given
    the window's opening frame (Massey, "Guessing and entropy", ISIT 1994).

    Each window is attacked as an initiator under its own order: its word w
    is the fingerprint bits at order[:n], its key w[:k] and its helper
    h = encode(w[:k])[k:] xor w[k:], as ``protocol.Session`` sends them.  The
    attacker knows how often two reduced bits in one cycle or adjacent cycles
    are equal: one Laplace-smoothed rate per pair type (cycle distance, each
    end's segment), learned from every other subject's windows, so no body
    trains the model that attacks it.  It scores each key m by the
    log-likelihood of its candidate word [m, h xor parity(m)]; a key's rank
    counts the keys that score at least as high, ties against the attacker.

    Each pair's agreement sign is (-1)^(a.m xor e), which factors over the
    two halves of m, so all scores are one matrix product.  The all-ones word
    is a codeword, so a key and its complement tie: only keys with m[0] = 0
    are scored, the count is doubled, and no rank is below 2.  Each window's
    log-ratio weights are scaled and rounded to integers whose absolute sum
    stays below 2^24, so the float32 product is exact.  ``tries_per_day`` is
    one day's tries at the session rate limit (``security_arithmetic``).
    """
    params = guesswork_code(cfg)
    n, k, b = params.n, params.k, cfg.bits_per_cycle
    cycles = corpus_cycles(corpus, cfg)
    windows = [(key, row[order[:n]], *_pair_types(order[:n], b))
               for key, (bits, orders)
               in _fingerprints(cycles, cfg, cfg.cycles_per_fingerprint).items()
               for row, order in zip(bits, orders)]
    counts: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # equal, all per type
    for key, word, i, j, types in windows:
        equal, total = counts.get(key[0], (0, 0))
        counts[key[0]] = (equal + np.bincount(types, word[i] == word[j], 2 * b * b),
                          total + np.bincount(types, minlength=2 * b * b))
    if len(counts) < 2:
        raise InsufficientPairs("guesswork trains on the other subjects' windows: "
                                f"need windows of >= 2 subjects, got {len(counts)}")
    all_equal, all_total = (sum(column) for column in zip(*counts.values()))

    generator = np.array([encode(row, params) for row in np.eye(k, dtype=np.uint8)])
    half = (k + 1) // 2
    ranks: dict[str, list[int]] = {}
    for key, word, i, j, types in windows:
        equal, total = counts[key[0]]
        rate = (all_equal - equal + 1) / (all_total - total + 2)
        weight = np.log(rate / (1 - rate))[types]
        weight = np.rint(weight * (2.0 ** 23 / (np.abs(weight).sum() or 1.0)))
        offset = word ^ encode(word[:k], params)  # 0 on the key, the helper after it
        flips = generator[:, i] ^ generator[:, j]
        scores = (_sign_table(weight * (1 - 2.0 * (offset[i] ^ offset[j])),
                              flips[1:half])  # keys with m[0] = 0
                  @ _sign_table(np.ones(i.size), flips[half:]).T)
        m = word[:k] ^ word[0]
        row, col = (int(part @ (1 << np.arange(part.size)[::-1]))
                    for part in (m[:half], m[half:]))
        ranks.setdefault("/".join(key), []).append(
            2 * int(np.count_nonzero(scores >= scores[row, col])))

    values = np.array([rank for record in ranks.values() for rank in record])
    return GuessworkReport(
        note="ranks under one attacker model; a better attacker needs fewer "
             "guesses, so the shares are upper bounds on key strength, not guarantees",
        key_bits=k,
        tries_per_day=tries_per_day,
        n_windows=values.size,
        within_2=float(np.mean(values <= 2)),
        within_tries_per_day=float(np.mean(values <= tries_per_day)),
        within_2_16=float(np.mean(values <= 1 << 16)),
        median_log2_rank=float(np.median(np.log2(values))),
        ranks=ranks,
    )


# -- security arithmetic ---------------------------------------------------------------

def security_arithmetic(session_seconds: float, cfg: Config) -> dict:
    """Attempt budget per day and the error-correction capacity.

    An attacker bound to full sessions gets floor(86400 / session length)
    tries per day, which must be a finite count.  ``t`` is the budget
    floor(N * (1 - threshold)) bits for N = ``cfg.cutoff``; ``code_t`` is
    what the session's code (``session_code_params``) corrects, on its
    length 2^m - 1 <= N.
    """
    if not (0 < session_seconds < math.inf  # also rejects NaN
            and math.isfinite(SECONDS_PER_DAY // session_seconds)):
        raise ConfigError(f"session_seconds must be positive and finite, with a finite "
                          f"number of tries per day; got {session_seconds}")
    tries = int(SECONDS_PER_DAY // session_seconds)
    t = int(math.floor(cfg.cutoff * (1.0 - cfg.threshold) + 1e-9))
    return {"tries_per_day": tries, "t": t,
            "code_t": session_code_params(cfg).t}
