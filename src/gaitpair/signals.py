"""Raw IMU streams -> gravity-aligned, band-limited vertical acceleration.

The chain is: compose the gyroscope's rotations into a frame that holds still
while the device turns, rotate the acceleration into that frame, estimate
gravity there as the acceleration's slow part, keep each sample's component
along it, then a zero-phase Type-II Chebyshev bandpass to strip DC/drift below
the step band and sensor noise above it.  There is no magnetometer, so heading
stays unconstrained; only the vertical component is used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


@dataclass
class VerticalSignal:
    """Gravity-aligned acceleration amplitudes, one value per sample."""

    sample_rate: float
    z: np.ndarray
    subject_id: str = ""
    position: str = "other"
    recording_id: str = "0"

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)

    @property
    def n_samples(self) -> int:
        return int(self.z.shape[0])


# -- gravity alignment -------------------------------------------------------------

def rotate_vectors(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate row vectors v (n, 3) by quaternions q (n, 4), scalar first."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    vx, vy, vz = v[:, 0], v[:, 1], v[:, 2]
    rx = ((1 - 2 * (y * y + z * z)) * vx
          + 2 * (x * y - w * z) * vy
          + 2 * (x * z + w * y) * vz)
    ry = (2 * (x * y + w * z) * vx
          + (1 - 2 * (x * x + z * z)) * vy
          + 2 * (y * z - w * x) * vz)
    rz = (2 * (x * z - w * y) * vx
          + 2 * (y * z + w * x) * vy
          + (1 - 2 * (x * x + y * y)) * vz)
    return np.stack([rx, ry, rz], axis=1)


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Hamilton products a * b of quaternions (4, m), scalar first."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw])


def _gyro_frame(rec: ImuRecord) -> np.ndarray:
    """Quaternions (n, 4) from each sample's device frame to the first one's.

    Sample i turns the device by the body-frame rate ``gyro[i]`` over
    ``t[i] - t[i-1]``; composing those turns in order is a prefix product,
    done in log2 n doubling passes and normalised once at the end.  The
    product is held component-major, (4, n), so each pass reads whole rows.
    """
    n = rec.n_samples
    q = np.empty((4, n))
    q[:, 0] = (1.0, 0.0, 0.0, 0.0)
    dt = np.diff(rec.t)
    angle = np.linalg.norm(rec.gyro[1:], axis=1) * dt
    q[0, 1:] = np.cos(0.5 * angle)
    # axis * sin(angle / 2), written with sinc so a zero rate needs no division
    q[1:, 1:] = 0.5 * dt * rec.gyro[1:].T * np.sinc(angle / (2.0 * np.pi))
    shift = 1
    while shift < n:
        q[:, shift:] = _quat_mul(q[:, :-shift], q[:, shift:])
        shift *= 2
    return (q / np.linalg.norm(q, axis=0)).T


@functools.lru_cache(maxsize=64)
def _gravity_lowpass(sample_rate: float) -> np.ndarray:
    """Second-order sections of the gravity low-pass at one sample rate."""
    if not GRAVITY_CUTOFF_HZ < sample_rate / 2.0:
        raise InvalidBand(
            f"sample rate {sample_rate} Hz is too low for the {GRAVITY_CUTOFF_HZ} Hz "
            f"gravity low-pass: its cutoff must lie below the Nyquist frequency")
    return sps.butter(2, GRAVITY_CUTOFF_HZ, fs=sample_rate, output="sos")


def extract_vertical(rec: ImuRecord) -> VerticalSignal:
    """Acceleration along the gravity estimate, sample for sample.

    The gyro-stabilised frame (``_gyro_frame``) stays fixed in the world while
    the device swings, so gravity in it is the acceleration's slow part: its
    zero-phase 2nd-order Butterworth low-pass at ``GRAVITY_CUTOFF_HZ``.  Each
    sample's projection onto that estimate is gravity plus the vertical
    motion; a sample whose estimate has zero norm reads 0.  Gyro bias turns
    the frame slowly, and the low-pass follows it.
    """
    rec.validate()
    acc = rotate_vectors(_gyro_frame(rec), rec.acc)
    sos = _gravity_lowpass(rec.sample_rate).copy()
    try:
        gravity = sps.sosfiltfilt(sos, acc, axis=0)
    except ValueError as exc:  # fewer samples than the filter's edge padding
        raise EmptyStream(
            f"record {rec.recording_id!r} has {rec.n_samples} samples, too few "
            "for the gravity low-pass") from exc
    norm = np.linalg.norm(gravity, axis=1)
    z = np.divide(np.einsum("ij,ij->i", acc, gravity), norm,
                  out=np.zeros_like(norm), where=norm > 0.0)
    return VerticalSignal(
        sample_rate=rec.sample_rate,
        z=z,
        subject_id=rec.subject_id,
        position=rec.position,
        recording_id=rec.recording_id,
    )


# -- bandpass ---------------------------------------------------------------------

def design_bandpass(sample_rate: float, lo: float, hi: float) -> np.ndarray:
    """Second-order sections for a 4th-order Type-II Chebyshev bandpass with a
    40 dB stopband.

    Type II keeps the passband ripple-free and drops steeply at the corners,
    which is what the step band needs: everything below ``lo`` is correlated
    drift, everything above ``hi`` is not human motion.  Each (rate, band) is
    designed and checked once; every call gets its own copy.
    """
    return _bandpass_sos(sample_rate, lo, hi).copy()


@functools.lru_cache(maxsize=64)
def _bandpass_sos(sample_rate: float, lo: float, hi: float) -> np.ndarray:
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
    return sos


def bandpass(sig: VerticalSignal, band: tuple[float, float] = Config.band
             ) -> VerticalSignal:
    """Zero-phase bandpass of the vertical signal.

    Filtering runs forward and backward so minima used for cycle splitting are
    not phase-shifted.  The input mean is removed before filtering; the
    stopband handles the rest of the content below ``band[0]``.  Output length
    equals input length.
    """
    sos = design_bandpass(sig.sample_rate, *band)
    z = sig.z - float(np.mean(sig.z))
    filtered = sps.sosfiltfilt(sos, z)
    return VerticalSignal(
        sample_rate=sig.sample_rate,
        z=filtered,
        subject_id=sig.subject_id,
        position=sig.position,
        recording_id=sig.recording_id,
    )


# -- pipeline ---------------------------------------------------------------------

def resample_uniform(rec: ImuRecord) -> ImuRecord:
    """Linear-interpolate a record onto a uniform grid at its nominal rate."""
    rec.validate()
    if rec.is_uniform():
        return rec
    dt = 1.0 / rec.sample_rate
    n_out = int(math.floor((rec.t[-1] - rec.t[0]) / dt)) + 1
    grid = rec.t[0] + dt * np.arange(n_out)
    acc = np.stack([np.interp(grid, rec.t, rec.acc[:, i]) for i in range(3)], axis=1)
    gyro = np.stack([np.interp(grid, rec.t, rec.gyro[:, i]) for i in range(3)], axis=1)
    return ImuRecord(rec.sample_rate, grid, acc, gyro,
                     rec.subject_id, rec.position, rec.recording_id)


def preprocess_record(rec: ImuRecord, band: tuple[float, float] = Config.band
                      ) -> VerticalSignal:
    """Full preprocessing chain: align to gravity, bandpass, trim warm-up."""
    rec = resample_uniform(rec)
    skip = int(round(TRANSIENT_DISCARD_S * rec.sample_rate))
    if skip >= rec.n_samples:  # before filtering, which needs a few samples
        raise EmptyStream(
            f"record {rec.recording_id!r} shorter than the "
            f"{TRANSIENT_DISCARD_S}s warm-up")
    filtered = bandpass(extract_vertical(rec), band)
    filtered.z = filtered.z[skip:]
    return filtered
