"""Quantize gait cycles into bits and rank the bits by reliability.

Each cycle is compared segment-wise against the average cycle of its window;
the sign of the energy difference yields one bit per segment and its magnitude
says how far the cycle sat from the average, i.e. how likely a second device
on the same body is to have extracted the same bit.
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


def average_cycle(seq: GaitSequence) -> np.ndarray:
    """Elementwise mean across the window's cycles, shape (rho,)."""
    if seq.q < 2:
        raise TooFewCycles(f"averaging needs q >= 2 cycles, got {seq.q}")
    return seq.cycles.mean(axis=0)


def quantize(seq: GaitSequence, avg: np.ndarray, b: int) -> Fingerprint:
    """Extract b bits per cycle from signed segment energy differences.

    Cycle i and the average cycle are both split into b segments of rho/b
    samples; delta is the sum of (average - cycle) over a segment, and the bit
    is 1 iff delta > 0 (exact zero maps to 0 so both devices resolve ties the
    same way).
    """
    rho = seq.rho
    if avg.shape[0] != rho:
        raise LengthMismatch("average cycle length differs from rho")
    if b < 1 or rho % b != 0:
        raise IndivisibleSegments(f"b={b} does not divide rho={rho}")
    q = seq.q
    diff = avg[None, :] - seq.cycles                   # (q, rho)
    deltas = diff.reshape(q, b, rho // b).sum(axis=2)  # (q, b)
    flat = deltas.reshape(-1)
    bits = (flat > 0).astype(np.uint8)
    return Fingerprint(bits=bits, deltas=flat)


def reliability_order(fp: Fingerprint) -> np.ndarray:
    """Permutation of 0..M-1, the bit indices sorted by |delta| descending;
    ties break by ascending index.

    The stable tie-break matters: two devices fed identical data must derive
    byte-identical orderings.
    """
    return np.argsort(-np.abs(fp.deltas), kind="stable")


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
    m = fp.bits.size
    if N > m:
        raise CutoffTooLarge(f"cutoff {N} exceeds fingerprint length {m}")
    if order.shape[0] != m or not np.array_equal(np.sort(order), np.arange(m)):
        raise ValueError("order is not a permutation of the fingerprint indices")
    return ReducedFingerprint(bits=fp.bits[order[:N]])


def similarity(a: ReducedFingerprint, b: ReducedFingerprint) -> float:
    """Fraction of agreeing bits: 1 - hamming_distance / N."""
    n = a.bits.size
    if n != b.bits.size:
        raise LengthMismatch(f"fingerprint lengths differ: {n} vs {b.bits.size}")
    return 1.0 - float(np.count_nonzero(a.bits != b.bits)) / n
