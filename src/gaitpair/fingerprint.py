"""Quantize gait cycles into bits and rank the bits by reliability.

Each cycle is compared segment-wise against the average cycle of its window;
the sign of the energy difference yields one bit per segment and its magnitude
says how far the cycle sat from the average, i.e. how likely a second device
on the same body is to have extracted the same bit.

Every function takes one window's (q, rho) cycles or a batch of windows, such
as the (W, q, rho) view of ``GaitSequence.windows``: cycles on the last two
axes, bits on the last, so row w is what window w gives on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffTooLarge, IndivisibleSegments, LengthMismatch, TooFewCycles
from .gait import GaitSequence


@dataclass
class Fingerprint:
    """Fingerprint bits and their deltas, one row per window of a batch: M
    bits in cycle-major, segment-minor order, or the N that ``reduce`` keeps
    in the applied order."""

    bits: np.ndarray           # uint8, shape (..., M)
    deltas: np.ndarray = field(repr=False)  # float, shape (..., M)


def average_cycle(seq: GaitSequence) -> np.ndarray:
    """Elementwise mean across each window's cycles, shape (..., rho)."""
    if seq.q < 2:
        raise TooFewCycles(f"averaging needs q >= 2 cycles, got {seq.q}")
    return seq.cycles.mean(axis=-2)


def quantize(seq: GaitSequence, avg: np.ndarray, b: int) -> Fingerprint:
    """Extract b bits per cycle from signed segment energy differences.

    Cycle i and its window's average cycle are both split into b segments of
    rho/b samples; delta is the sum of (average - cycle) over a segment, and
    the bit is 1 iff delta > 0 (exact zero maps to 0 so both devices resolve
    ties the same way).
    """
    *lead, q, rho = seq.cycles.shape
    if avg.shape[-1] != rho:
        raise LengthMismatch("average cycle length differs from rho")
    if b < 1 or rho % b != 0:
        raise IndivisibleSegments(f"b={b} does not divide rho={rho}")
    diff = avg[..., None, :] - seq.cycles
    deltas = diff.reshape(*lead, q, b, rho // b).sum(axis=-1).reshape(*lead, q * b)
    return Fingerprint(bits=(deltas > 0).astype(np.uint8), deltas=deltas)


def reliability_order(fp: Fingerprint) -> np.ndarray:
    """Each window's permutation of 0..M-1, the bit indices sorted by |delta|
    descending; ties break by ascending index.

    The stable tie-break matters: two devices fed identical data must derive
    byte-identical orderings.
    """
    return np.argsort(-np.abs(fp.deltas), axis=-1, kind="stable")


def compute_fingerprint(seq: GaitSequence, b: int) -> tuple[Fingerprint, np.ndarray]:
    """Each window's fingerprint at b bits per cycle and its own reliability order."""
    fp = quantize(seq, average_cycle(seq), b)
    return fp, reliability_order(fp)


def reduce(fp: Fingerprint, order: np.ndarray, N: int) -> Fingerprint:
    """Keep the N bits of one window ranked most reliable by ``order``, with
    their deltas, in that order.

    The ordering may come from the peer device; applying one device's ranking
    to both bit vectors is what lets two devices agree on which bits to keep
    without revealing any bit values.
    """
    m = fp.bits.size
    if N > m:
        raise CutoffTooLarge(f"cutoff {N} exceeds fingerprint length {m}")
    if order.shape[0] != m or not np.array_equal(np.sort(order), np.arange(m)):
        raise ValueError("order is not a permutation of the fingerprint indices")
    kept = order[:N]
    return Fingerprint(bits=fp.bits[kept], deltas=fp.deltas[kept])


def similarity(a: Fingerprint, b: Fingerprint) -> float:
    """Fraction of agreeing bits: 1 - hamming_distance / N."""
    n = a.bits.size
    if n != b.bits.size:
        raise LengthMismatch(f"fingerprint lengths differ: {n} vs {b.bits.size}")
    return 1.0 - float(np.count_nonzero(a.bits != b.bits)) / n
