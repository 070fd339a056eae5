"""Quantize gait cycles into bits and rank the bits by reliability.

Each cycle is compared segment-wise against the average cycle of its window;
the sign of the energy difference yields one bit per segment and its magnitude
says how far the cycle sat from the average, i.e. how likely a second device
on the same body is to have extracted the same bit.

``compute_fingerprint`` takes one window; ``window_fingerprints`` takes every
window of a record at once, as the rows of ``GaitSequence.windows``.  Both run
on the same arithmetic core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffTooLarge, IndivisibleSegments, LengthMismatch, TooFewCycles
from .gait import GaitSequence


@dataclass
class Fingerprint:
    """M-bit fingerprint in cycle-major, segment-minor order."""

    bits: np.ndarray           # uint8, length M
    deltas: np.ndarray = field(repr=False)  # float, length M


@dataclass
class ReducedFingerprint:
    """The N most reliable bits under the applied ordering."""

    bits: np.ndarray


# -- the arithmetic core: any leading shape, cycles on the last two axes ------------

def _mean_cycle(cycles: np.ndarray) -> np.ndarray:
    """Elementwise mean of (..., q, rho) cycles over q, shape (..., rho)."""
    q = cycles.shape[-2]
    if q < 2:
        raise TooFewCycles(f"averaging needs q >= 2 cycles, got {q}")
    return cycles.mean(axis=-2)


def _quantize(cycles: np.ndarray, avg: np.ndarray, b: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Bits and deltas, shape (..., q * b), of (..., q, rho) cycles against
    their (..., rho) average cycles."""
    *lead, q, rho = cycles.shape
    if avg.shape[-1] != rho:
        raise LengthMismatch("average cycle length differs from rho")
    if b < 1 or rho % b != 0:
        raise IndivisibleSegments(f"b={b} does not divide rho={rho}")
    diff = avg[..., None, :] - cycles
    deltas = diff.reshape(*lead, q, b, rho // b).sum(axis=-1).reshape(*lead, q * b)
    return (deltas > 0).astype(np.uint8), deltas


def _order(deltas: np.ndarray) -> np.ndarray:
    """Each row's bit indices by |delta| descending, ties by ascending index."""
    return np.argsort(-np.abs(deltas), axis=-1, kind="stable")


def check_order(order: np.ndarray, m: int, N: int) -> None:
    """Raise unless N <= m and every row of ``order`` permutes 0..m-1."""
    if N > m:
        raise CutoffTooLarge(f"cutoff {N} exceeds fingerprint length {m}")
    if order.shape[-1] != m or not (np.sort(order, axis=-1) == np.arange(m)).all():
        raise ValueError("order is not a permutation of the fingerprint indices")


# -- one window --------------------------------------------------------------------

def average_cycle(seq: GaitSequence) -> np.ndarray:
    """Elementwise mean across the window's cycles, shape (rho,)."""
    return _mean_cycle(seq.cycles)


def quantize(seq: GaitSequence, avg: np.ndarray, b: int) -> Fingerprint:
    """Extract b bits per cycle from signed segment energy differences.

    Cycle i and the average cycle are both split into b segments of rho/b
    samples; delta is the sum of (average - cycle) over a segment, and the bit
    is 1 iff delta > 0 (exact zero maps to 0 so both devices resolve ties the
    same way).
    """
    bits, deltas = _quantize(seq.cycles, avg, b)
    return Fingerprint(bits=bits, deltas=deltas)


def reliability_order(fp: Fingerprint) -> np.ndarray:
    """Permutation of 0..M-1, the bit indices sorted by |delta| descending;
    ties break by ascending index.

    The stable tie-break matters: two devices fed identical data must derive
    byte-identical orderings.
    """
    return _order(fp.deltas)


def compute_fingerprint(seq: GaitSequence, b: int) -> tuple[Fingerprint, np.ndarray]:
    """A window's fingerprint at b bits per cycle and its own reliability order."""
    fp = quantize(seq, average_cycle(seq), b)
    return fp, reliability_order(fp)


def reduce(fp: Fingerprint, order: np.ndarray, N: int) -> ReducedFingerprint:
    """Keep the N bits ranked most reliable by ``order``.

    The ordering may come from the peer device; applying one device's ranking
    to both bit vectors is what lets two devices agree on which bits to keep
    without revealing any bit values.
    """
    check_order(order, fp.bits.size, N)
    return ReducedFingerprint(bits=fp.bits[order[:N]])


# -- every window of a record -------------------------------------------------------

def window_fingerprints(seq: GaitSequence, window_cycles: int, b: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bits, deltas and own reliability orders of every half-overlapping
    window of a record, as (W, M) rows with M = window_cycles * b.

    Row w is what ``compute_fingerprint`` gives for row w of the view that
    ``seq.windows(window_cycles)`` returns, value for value: each row goes
    through the same mean, segment sums and stable sort.  A record shorter
    than one window gives W = 0.
    """
    _, windows = seq.windows(window_cycles)
    bits, deltas = _quantize(windows, _mean_cycle(windows), b)
    return bits, deltas, _order(deltas)


def similarity(a: ReducedFingerprint, b: ReducedFingerprint) -> float:
    """Fraction of agreeing bits: 1 - hamming_distance / N."""
    n = a.bits.size
    if n != b.bits.size:
        raise LengthMismatch(f"fingerprint lengths differ: {n} vs {b.bits.size}")
    return 1.0 - float(np.count_nonzero(a.bits != b.bits)) / n
