"""Shared test utilities: independent rotation oracles, synthetic records,
crafted gait sequences whose fingerprints sit at chosen codespace points, and
a corpus that mixes sample rates.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from gaitpair.config import Config
from gaitpair.dataset_io import (Corpus, SyntheticGaitSpec, generate_synthetic,
                                 synthetic_vertical_signal)
from gaitpair.fuzzy_ecc import CodeParams, encode
from gaitpair.gait import GaitSequence
from gaitpair.signals import GRAVITY, ImuRecord


# -- independent rotation oracle (kept separate from the library's own math) ----------

def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = angle / 2.0
    return np.array([math.cos(half), *(math.sin(half) * axis)])


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 matrix applying the rotation of unit quaternion q (scalar first)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


# -- synthetic IMU records --------------------------------------------------------------

def static_record(pose_q: np.ndarray, duration_s: float = 10.0, fs: float = 50.0,
                  noise: float = 0.0, rng: np.random.Generator | None = None,
                  ) -> ImuRecord:
    """Motionless device held at ``pose_q`` (device-to-world rotation)."""
    n = int(duration_s * fs)
    t = np.arange(n) / fs
    world = np.zeros((n, 3))
    world[:, 2] = GRAVITY
    # accelerometer reads the world gravity reaction expressed in device axes
    acc = world @ rotation_matrix(pose_q)  # rows v @ R == R^T v
    gyro = np.zeros((n, 3))
    if noise > 0.0:
        rng = rng or np.random.default_rng(0)
        acc = acc + rng.normal(0.0, noise, size=acc.shape)
        gyro = gyro + rng.normal(0.0, noise / GRAVITY, size=gyro.shape)
    return ImuRecord(sample_rate=fs, t=t, acc=acc, gyro=gyro, subject_id="test")


def vertical_motion_record(motion: np.ndarray, pose_q: np.ndarray | None = None,
                           fs: float = 50.0) -> ImuRecord:
    """Device at a fixed pose experiencing purely vertical world acceleration."""
    n = motion.shape[0]
    t = np.arange(n) / fs
    world = np.zeros((n, 3))
    world[:, 2] = GRAVITY + motion
    if pose_q is None:
        acc = world
    else:
        acc = world @ rotation_matrix(pose_q)
    return ImuRecord(sample_rate=fs, t=t, acc=acc, gyro=np.zeros((n, 3)),
                     subject_id="test")


def swinging_record(seed: int = 0, n_cycles: int = 20, swing_deg: float = 30.0,
                    turn_rate: float = 0.0, fs: float = 50.0
                    ) -> tuple[ImuRecord, np.ndarray]:
    """Walking record from a device that also swings like a limb.

    The body moves only vertically (``synthetic_vertical_signal``, one gait
    cycle per 2 s).  The device, at a random base pose, swings
    +-``swing_deg`` about the horizontal world x axis at the gait-cycle rate;
    its gyro reads the matching body-frame rate, theta'(t) times the swing
    axis in device coordinates.  With ``turn_rate`` (rad/s) the walker also
    turns about the world vertical, carrying the swing axis round with it,
    so the order in which rotations compose matters.  Returns (record, true
    vertical motion).
    """
    rng = np.random.default_rng(seed)
    motion = synthetic_vertical_signal(seed, n_cycles=n_cycles, sample_rate=fs)
    t = np.arange(motion.shape[0]) / fs
    w = 2.0 * np.pi / 2.0  # gait-cycle rate, rad/s
    amp = np.deg2rad(swing_deg)
    theta = amp * np.sin(w * t)
    base = rotation_matrix(random_unit_quaternion(rng))
    # device-to-world pose Rz(turn_rate t) @ Rx(theta) @ base; its transpose
    # maps the world vertical (0, 0, a) to base^T (0, a sin theta, a cos theta)
    # and the world rate (turn_rate e_z + theta' Rz e_x) to
    # base^T (theta', turn_rate sin theta, turn_rate cos theta)
    swung = (GRAVITY + motion)[:, None] * np.stack(
        [np.zeros_like(theta), np.sin(theta), np.cos(theta)], axis=1)
    acc = swung @ base  # rows v @ base == base^T v
    gyro = np.stack([amp * w * np.cos(w * t), turn_rate * np.sin(theta),
                     turn_rate * np.cos(theta)], axis=1) @ base
    return ImuRecord(sample_rate=fs, t=t, acc=acc, gyro=gyro, subject_id="test"), motion


# -- crafted gait sequences ----------------------------------------------------------------

def delta_to_sequence(delta: np.ndarray, rho: int, b: int) -> GaitSequence:
    """Cycles realizing a target delta matrix exactly (columns must zero-sum).

    With cycles Z_i = A0 + c_ij constant per segment, the quantizer recovers
    delta_ij = -(rho/b) * (c_ij - mean_i c_ij); zero column means make the
    mapping exact.
    """
    q, b_actual = delta.shape
    assert b_actual == b
    seg = rho // b
    c = -delta / seg
    cycles = np.repeat(c, seg, axis=1)
    return GaitSequence(cycles=cycles, rho=rho)


def random_delta_sequence(seed: int, cfg: Config) -> GaitSequence:
    """Organic-looking random fingerprint material (zero-column-mean deltas)."""
    rng = np.random.default_rng(seed)
    q, b = cfg.cycles_per_fingerprint, cfg.bits_per_cycle
    d = rng.normal(size=(q, b))
    d -= d.mean(axis=0, keepdims=True)
    return delta_to_sequence(d, cfg.rho, b)


def _craft_delta(bits_flat: np.ndarray, q: int, b: int, n_payload: int,
                 rng: np.random.Generator, magnitude_base: float = 1000.0
                 ) -> np.ndarray | None:
    """Delta matrix whose reliability ranking starts with ``n_payload`` slots
    laid out round-robin over segment columns, carrying ``bits_flat`` signs.

    The remaining slots of each column balance that column to a zero sum with
    magnitudes strictly below the payload band, so the reliability ordering's
    first ``n_payload`` entries are exactly the payload slots on every device
    built from the same layout.  Returns None when balancing is infeasible
    (payload signs too lopsided in one column); callers resample.
    """
    G = magnitude_base
    delta = np.zeros((q, b))
    ranks = np.arange(n_payload)
    payload_cols = ranks % b
    payload_rows = ranks // b
    mags = G + (n_payload - ranks) * 0.5
    signs = np.where(bits_flat[:n_payload] == 1, 1.0, -1.0)
    delta[payload_rows, payload_cols] = signs * mags

    for col in range(b):
        taken = payload_rows[payload_cols == col]
        free = np.setdiff1d(np.arange(q), taken)
        s = delta[:, col].sum()
        if free.size == 0 or abs(s) > 0.85 * free.size * G:
            return None
        u = rng.uniform(0.9, 1.1, free.size)
        values = -s * (u / u.sum())
        dither = rng.uniform(1.0, 2.0, free.size) * 1e-3 * G
        dither -= dither.mean()
        values = values + dither
        if np.any(np.abs(values) >= G) or np.any(values == 0.0):
            return None
        delta[free, col] = values
    return delta


def craft_codeword_pair(seed: int, n_flips: int, cfg: Config, params: CodeParams
                        ) -> tuple[GaitSequence, GaitSequence, np.ndarray]:
    """Two gait sequences whose reduced fingerprints are a codeword and that
    codeword with ``n_flips`` reliable bits flipped.

    Both sequences share payload magnitudes, so both devices rank the same
    slots on top and either side's reliability ordering selects the codeword
    positions.  Returns (sequence_a, sequence_b, expected_message_bits).
    """
    rng = np.random.default_rng(seed)
    q, b = cfg.cycles_per_fingerprint, cfg.bits_per_cycle
    m_total, n = cfg.fingerprint_bits, params.n
    for _ in range(200):
        message = rng.integers(0, 2, size=params.k).astype(np.uint8)
        codeword = encode(message, params)
        bits_a = np.concatenate([
            codeword, rng.integers(0, 2, size=m_total - n).astype(np.uint8)])
        bits_b = bits_a.copy()
        if n_flips:
            flip = rng.choice(n, size=n_flips, replace=False)
            bits_b[flip] ^= 1
        delta_a = _craft_delta(bits_a, q, b, n, rng)
        delta_b = _craft_delta(bits_b, q, b, n, rng)
        if delta_a is not None and delta_b is not None:
            return (delta_to_sequence(delta_a, cfg.rho, b),
                    delta_to_sequence(delta_b, cfg.rho, b),
                    message)
    raise RuntimeError("could not craft a balanced codeword pair")


# -- corpora -------------------------------------------------------------------------

def mixed_rate_corpus() -> Corpus:
    """One 50 Hz subject (seed 3) and one 100 Hz subject (seed 4), 60 cycles each."""
    slow = generate_synthetic(SyntheticGaitSpec(n_cycles=60, n_subjects=1, rng_seed=3))
    fast = generate_synthetic(SyntheticGaitSpec(n_cycles=60, n_subjects=1, rng_seed=4,
                                                sample_rate=100.0))
    return Corpus(records=slow.records + [dataclasses.replace(r, subject_id="s01")
                                          for r in fast.records])
