"""Raw IMU streams -> gravity-aligned, band-limited vertical acceleration.

The chain is: compose the gyroscope's rotations into a frame that holds still
while the device turns, rotate the acceleration into that frame, estimate
gravity there as the acceleration's slow part, keep each sample's component
along it, then a zero-phase Type-II Chebyshev bandpass to strip DC/drift below
the step band and sensor noise above it.  There is no magnetometer, so heading
stays unconstrained; only the vertical component is used.

The rotations compose as a blocked prefix product of quaternions held as
complex pairs (``_gyro_frame``): doubling passes inside blocks of
``_SCAN_BLOCK`` samples and over the block totals, then one pass that carries
each block's predecessors into it.  Every product takes its operands in one
fixed order (``_hamilton``), because numpy's complex multiply is not bitwise
commutative and may swap the operands of an expression on its own.
Quaternions, rates and accelerations pass through the chain as contiguous
component rows, (4, n) or (3, n).  Both zero-phase
filters run through ``_filtfilt``, which gives ``scipy.signal.sosfiltfilt``'s
values with the filter's initial state solved once per design, in the cached
design itself.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import signal as sps

from .config import Config
from .errors import (
    EmptyStream,
    InvalidBand,
    LengthMismatch,
    NonFiniteSample,
    UnstableFilter,
)

GRAVITY = 9.81  # m/s^2, nominal

#: Corner of the zero-phase 2nd-order Butterworth low-pass that estimates
#: gravity in the gyro-stabilised frame.  It sits below the step band, and
#: above the slow turn that gyro bias gives the frame.
GRAVITY_CUTOFF_HZ = 0.3

#: Seconds of filtered output discarded before gait detection: the gravity
#: low-pass and the bandpass both warm up at the record's edges, which
#: corrupts the leading samples.
TRANSIENT_DISCARD_S = 2.0

#: Samples per block of the gyro frame's blocked prefix product
#: (``_gyro_frame``).
_SCAN_BLOCK = 32


# -- domain types ---------------------------------------------------------------

@dataclass
class ImuRecord:
    """Timestamped tri-axial accelerometer + gyroscope stream.

    t     seconds, strictly increasing, shape (n,)
    acc   m/s^2, shape (n, 3)
    gyro  rad/s, shape (n, 3)
    """

    sample_rate: float
    t: np.ndarray
    acc: np.ndarray
    gyro: np.ndarray
    subject_id: str = ""
    position: str = "other"
    recording_id: str = "0"

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.acc = np.asarray(self.acc, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)

    def validate(self) -> None:
        n = self.t.shape[0]
        if n < 2:
            raise EmptyStream(f"record needs >= 2 samples, got {n}")
        if self.acc.shape != (n, 3) or self.gyro.shape != (n, 3):
            raise LengthMismatch("acc/gyro shapes do not match timestamps")
        if not (np.isfinite(self.acc).all() and np.isfinite(self.gyro).all()
                and np.isfinite(self.t).all()):
            raise NonFiniteSample(f"non-finite sample in record {self.recording_id!r}")
        dt = np.diff(self.t)
        if (dt <= 0).any():
            raise EmptyStream("timestamps must be strictly increasing")
        if self.sample_rate <= 0:
            raise EmptyStream("sample_rate must be positive")
        implied = 1.0 / float(np.mean(dt))
        if abs(implied - self.sample_rate) > 0.1 * self.sample_rate:
            raise EmptyStream(
                f"sample_rate {self.sample_rate:.3f} Hz inconsistent with "
                f"timestamp spacing ({implied:.3f} Hz)")

    @property
    def n_samples(self) -> int:
        return int(self.t.shape[0])

    def is_uniform(self) -> bool:
        dt = np.diff(self.t)
        return bool(np.allclose(dt, dt[0], rtol=1e-6, atol=1e-12))


# -- zero-phase filtering ----------------------------------------------------------

class _ZeroPhase(NamedTuple):
    """A filter's sections with what a forward-backward run needs, solved once.

    sos   second-order sections, (n_sections, 6)
    zi    steady-state section states for a unit step (``sps.sosfilt_zi``)
    edge  samples of odd extension at each end, the padding ``sps.sosfiltfilt``
          uses by default
    """

    sos: np.ndarray
    zi: np.ndarray
    edge: int


def _zero_phase(sos: np.ndarray) -> _ZeroPhase:
    ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    return _ZeroPhase(sos, sps.sosfilt_zi(sos), 3 * int(ntaps))


def _filtfilt(design: _ZeroPhase, x: np.ndarray, name: str) -> np.ndarray:
    """``sps.sosfiltfilt(design.sos, x)``, value for value, along the last
    axis: a signal, or (3, n) component rows.

    The same odd extension and the same two ``sps.sosfilt`` runs, started
    from the design's ``zi`` scaled by the first sample of each pass; only
    ``zi`` is not solved again on every call.
    """
    sos, zi, edge = design
    n = x.shape[-1]
    if n <= edge:
        raise EmptyStream(f"{n} samples, too few for the {name}: "
                          f"it pads {edge} at each end")
    zi = zi.reshape(zi.shape[:1] + (1,) * (x.ndim - 1) + zi.shape[1:])
    ext = np.concatenate((2 * x[..., :1] - x[..., edge:0:-1], x,
                          2 * x[..., -1:] - x[..., -2:-edge - 2:-1]), axis=-1)
    y, _ = sps.sosfilt(sos, ext, zi=zi * ext[..., :1])
    y, _ = sps.sosfilt(sos, y[..., ::-1], zi=zi * y[..., -1:])
    return y[..., ::-1][..., edge:-edge]


@contextlib.contextmanager
def _naming(rec: ImuRecord):
    """Prefix ``rec``'s id to the error of a zero-phase filter given too few
    of its samples (``_filtfilt``)."""
    try:
        yield
    except EmptyStream as exc:
        raise EmptyStream(f"record {rec.recording_id!r} has {exc}") from None


# -- gravity alignment -------------------------------------------------------------

def rotate_vectors(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors v by quaternions q, both as component rows: q is
    (4, n), scalar first, and v and the result are (3, n).  A (4, 1) q turns
    every vector by one quaternion.  Each product of two quaternion
    components is formed once and shared by the rows that use it."""
    w, x, y, z = q
    vx, vy, vz = v
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    out = np.empty(v.shape)
    out[0] = (1 - 2 * (yy + zz)) * vx + 2 * (xy - wz) * vy + 2 * (xz + wy) * vz
    out[1] = 2 * (xy + wz) * vx + (1 - 2 * (xx + zz)) * vy + 2 * (yz - wx) * vz
    out[2] = 2 * (xz - wy) * vx + 2 * (yz + wx) * vy + (1 - 2 * (xx + yy)) * vz
    return out


def _hamilton(a0: np.ndarray, b0: np.ndarray, a1: np.ndarray, b1: np.ndarray,
              out_a: np.ndarray, out_b: np.ndarray, s: np.ndarray, t: np.ndarray
              ) -> None:
    """Hamilton products (a0 + b0 j)(a1 + b1 j) of quaternions held as complex
    pairs, written to out_a + out_b j; s and t are scratch of the result's
    shape.  out_a and out_b may be a1 and b1 themselves, but may not
    otherwise overlap an operand.

    Since j c = conj(c) j for a complex c, the product is
    (a0 a1 - b0 conj(b1)) + (a0 b1 + b0 conj(a1)) j, and every multiply takes
    its operands in that order (``_gyro_frame`` says why).
    """
    np.multiply(b0, np.conjugate(b1, out=s), out=s)
    np.multiply(b0, np.conjugate(a1, out=t), out=t)
    np.add(np.multiply(a0, b1, out=out_b), t, out=out_b)
    np.subtract(np.multiply(a0, a1, out=out_a), s, out=out_a)


def _doubling_scan(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix products down axis 0 of the quaternions a + b j, in
    log2 of its length doubling passes (Hillis and Steele).  Each pass reads
    one pair of buffers and writes the other, so no operand overlaps its
    output; the result is in a new pair or in a, b themselves."""
    a2, b2, s, t = (np.empty_like(a) for _ in range(4))
    n, shift = a.shape[0], 1
    while shift < n:
        k = n - shift
        _hamilton(a[:k], b[:k], a[shift:], b[shift:], a2[shift:], b2[shift:],
                  s[:k], t[:k])
        a2[:shift], b2[:shift] = a[:shift], b[:shift]
        a, b, a2, b2 = a2, b2, a, b
        shift *= 2
    return a, b


def _gyro_frame(rec: ImuRecord) -> np.ndarray:
    """Quaternion rows (4, n), scalar first, from each sample's device frame
    to the first one's.

    Sample i turns the device by the body-frame rate ``gyro[i]`` over
    ``t[i] - t[i-1]``; composing those turns in order is a prefix product,
    normalised once at the end.  The rates are read as three contiguous
    component rows.  Each quaternion w + xi + yj + zk is held as a complex
    pair, a = w + xi and b = y + zi, so that it reads a + bj and a product is
    four complex multiplies over whole arrays (``_hamilton``).

    The scan is blocked, the work-efficient layout of Blelloch (1990): the
    turns, padded with the identity, are laid out as ``_SCAN_BLOCK`` rows
    with one block per column, so each block's prefix products take
    log2 ``_SCAN_BLOCK`` doubling passes down contiguous rows.  The block
    totals are scanned the same way, and one last pass left-multiplies every
    block by the product of the blocks before it: about
    n (log2 ``_SCAN_BLOCK`` + 1) products, where doubling over the whole
    record takes n log2 n.

    Every product takes its operands in the order ``_hamilton`` writes out.
    numpy's complex multiply is not bitwise commutative where it uses fused
    multiply-adds, and it may evaluate ``b0 * b1.conj()`` as
    ``conj(b1) * b0`` when it reuses a large temporary, so an expression
    left to numpy rounds one way on short records and another on long ones.
    """
    n = rec.n_samples
    blocks = -(-n // _SCAN_BLOCK)
    a, b = _doubling_scan(*_turns(rec, blocks))
    # copies: the scan may leave its result in its input, and the last row
    # of each block is still needed below
    ta, tb = _doubling_scan(a[-1].copy(), b[-1].copy())
    s, t = np.empty_like(a[:, 1:]), np.empty_like(a[:, 1:])
    _hamilton(ta[:-1], tb[:-1], a[:, 1:], b[:, 1:], a[:, 1:], b[:, 1:], s, t)
    del s, t  # scratch and pairs go as soon as they are read, to bound the peak
    q = np.empty((4, blocks, _SCAN_BLOCK))
    q[0], q[1], q[2], q[3] = a.real.T, a.imag.T, b.real.T, b.imag.T
    del a, b
    q = q.reshape(4, -1)[:, :n]
    q /= np.linalg.norm(q, axis=0)
    return q


def _turns(rec: ImuRecord, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's turn as a complex pair (a, b), padded with the identity
    (a = 1, b = 0) to ``blocks`` blocks and laid out one block per column,
    ``_SCAN_BLOCK`` contiguous rows.  Apart from ``_gyro_frame`` so that
    its temporaries are freed before the scan allocates its buffers."""
    n = rec.n_samples
    a = np.ones(blocks * _SCAN_BLOCK, dtype=complex)
    b = np.zeros(blocks * _SCAN_BLOCK, dtype=complex)
    dt = np.diff(rec.t)
    rate = np.ascontiguousarray(rec.gyro.T)[:, 1:]
    gx, gy, gz = rate
    angle = np.sqrt((gx * gx + gy * gy) + gz * gz) * dt
    a.real[1:n] = np.cos(0.5 * angle)
    # axis * sin(angle / 2), written with sinc so a zero rate needs no division
    a.imag[1:n], b.real[1:n], b.imag[1:n] = 0.5 * dt * rate * np.sinc(angle / (2.0 * np.pi))
    a = np.ascontiguousarray(a.reshape(blocks, _SCAN_BLOCK).T)
    return a, np.ascontiguousarray(b.reshape(blocks, _SCAN_BLOCK).T)


@functools.lru_cache(maxsize=64)
def _gravity_lowpass(sample_rate: float) -> _ZeroPhase:
    """The gravity low-pass at one sample rate, designed once."""
    if not GRAVITY_CUTOFF_HZ < sample_rate / 2.0:
        raise InvalidBand(
            f"sample rate {sample_rate} Hz is too low for the {GRAVITY_CUTOFF_HZ} Hz "
            f"gravity low-pass: its cutoff must lie below the Nyquist frequency")
    return _zero_phase(sps.butter(2, GRAVITY_CUTOFF_HZ, fs=sample_rate, output="sos"))


def extract_vertical(rec: ImuRecord) -> np.ndarray:
    """Acceleration along the gravity estimate, sample for sample of the
    record on its uniform grid (``resample_uniform``, which validates it).

    The gyro-stabilised frame (``_gyro_frame``) stays fixed in the world while
    the device swings, so gravity in it is the acceleration's slow part: its
    zero-phase 2nd-order Butterworth low-pass at ``GRAVITY_CUTOFF_HZ``.  Each
    sample's projection onto that estimate is gravity plus the vertical
    motion; a sample whose estimate has zero norm reads 0.  Gyro bias turns
    the frame slowly, and the low-pass follows it.
    """
    rec = resample_uniform(rec)
    acc = rotate_vectors(_gyro_frame(rec), np.ascontiguousarray(rec.acc.T))
    with _naming(rec):
        gravity = _filtfilt(_gravity_lowpass(rec.sample_rate), acc, "gravity low-pass")
    (ax, ay, az), (gx, gy, gz) = acc, gravity
    # summed x, y, z in turn: the order np.linalg.norm(axis=1) of (n, 3) rows
    # sums in, so the values match it bit for bit
    norm = np.sqrt((gx * gx + gy * gy) + gz * gz)
    return np.divide((ax * gx + ay * gy) + az * gz, norm,
                     out=np.zeros_like(norm), where=norm > 0.0)


# -- bandpass ---------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _bandpass(sample_rate: float, lo: float, hi: float) -> _ZeroPhase:
    """A 4th-order Type-II Chebyshev bandpass with a 40 dB stopband, designed
    and checked once per (rate, band).

    Type II keeps the passband ripple-free and drops steeply at the corners,
    which is what the step band needs: everything below ``lo`` is correlated
    drift, everything above ``hi`` is not human motion.
    """
    nyq = sample_rate / 2.0
    if not 0.0 < lo < hi < nyq:
        raise InvalidBand(f"need 0 < lo < hi < {nyq} Hz, got ({lo}, {hi})")
    sos = sps.cheby2(4, 40.0, [lo, hi], btype="bandpass",
                     fs=sample_rate, output="sos")
    # poles of each biquad must sit strictly inside the unit circle
    for section in sos:
        poles = np.roots(section[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise UnstableFilter(
                f"pole magnitude {np.abs(poles).max():.6f} >= 1 for band ({lo}, {hi})")
    return _zero_phase(sos)


def bandpass(z: np.ndarray, sample_rate: float,
             band: tuple[float, float] = Config.band) -> np.ndarray:
    """Zero-phase bandpass of a vertical signal sampled at ``sample_rate``.

    Filtering runs forward and backward so minima used for cycle splitting are
    not phase-shifted.  The input mean is removed before filtering; the
    stopband handles the rest of the content below ``band[0]``.  Output length
    equals input length.
    """
    design = _bandpass(sample_rate, *band)
    return _filtfilt(design, z - float(np.mean(z)), "bandpass")


# -- pipeline ---------------------------------------------------------------------

def resample_uniform(rec: ImuRecord) -> ImuRecord:
    """Linear-interpolate a record onto a uniform grid at its nominal rate."""
    rec.validate()
    if rec.is_uniform():
        return rec
    dt = 1.0 / rec.sample_rate
    n_out = int(math.floor((rec.t[-1] - rec.t[0]) / dt)) + 1
    grid = rec.t[0] + dt * np.arange(n_out)
    acc = np.stack([np.interp(grid, rec.t, rec.acc[:, i]) for i in range(3)]).T
    gyro = np.stack([np.interp(grid, rec.t, rec.gyro[:, i]) for i in range(3)]).T
    return ImuRecord(rec.sample_rate, grid, acc, gyro,
                     rec.subject_id, rec.position, rec.recording_id)


def preprocess_record(rec: ImuRecord, band: tuple[float, float] = Config.band
                      ) -> np.ndarray:
    """Full preprocessing chain: align to gravity on the uniform grid,
    bandpass, trim warm-up."""
    vertical = extract_vertical(rec)
    skip = int(round(TRANSIENT_DISCARD_S * rec.sample_rate))
    if skip >= vertical.shape[0]:  # before the bandpass, which needs a few samples
        raise EmptyStream(
            f"record {rec.recording_id!r} shorter than the "
            f"{TRANSIENT_DISCARD_S}s warm-up")
    with _naming(rec):
        return bandpass(vertical, rec.sample_rate, band)[skip:]
