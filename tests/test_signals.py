import numpy as np
import pytest
from scipy import signal as sps

from gaitpair import signals
from gaitpair.config import Config
from gaitpair.errors import EmptyStream, InvalidBand, LengthMismatch, NonFiniteSample
from gaitpair.signals import (
    GRAVITY,
    ImuRecord,
    _bandpass,
    _filtfilt,
    _gravity_lowpass,
    _gyro_frame,
    bandpass,
    extract_vertical,
    preprocess_record,
    resample_uniform,
)

from helpers import (
    quat_from_axis_angle,
    random_unit_quaternion,
    rotation_matrix,
    static_record,
    swinging_record,
    vertical_motion_record,
)


# -- gravity alignment ---------------------------------------------------------------

def test_static_flat_device_recovers_gravity():
    rec = static_record(np.array([1.0, 0, 0, 0]), duration_s=10.0)
    z = extract_vertical(rec)
    # converged tail reads ~9.81 m/s^2
    assert abs(np.mean(z[-50:]) - GRAVITY) < 0.05


def test_rotated_90deg_about_x_static():
    # acc reads (0, -9.81, 0); the closed-form pose is a 90 degree x-rotation
    pose = quat_from_axis_angle([1.0, 0, 0], -np.pi / 2)
    rec = static_record(pose, duration_s=10.0)
    assert np.allclose(rec.acc[0], [0.0, -GRAVITY, 0.0], atol=1e-9)
    z = extract_vertical(rec)
    assert abs(z[-1] - GRAVITY) < 0.1
    # oracle: rotating the reading by the exact pose also lands on +z
    oracle_z = (rotation_matrix(pose) @ rec.acc[-1])[2]
    assert abs(z[-1] - oracle_z) < 0.1


@pytest.mark.parametrize("seed", range(8))
def test_gravity_recovery_random_static_poses(seed):
    rng = np.random.default_rng(seed)
    pose = random_unit_quaternion(rng)
    rec = static_record(pose, duration_s=6.0, noise=0.05, rng=rng)
    z = extract_vertical(rec)
    assert abs(np.mean(z[-100:]) - GRAVITY) < 0.02 * GRAVITY


def test_fusion_rejects_nonfinite():
    rec = static_record(np.array([1.0, 0, 0, 0]), duration_s=1.0)
    rec.acc[3, 1] = np.nan
    with pytest.raises(NonFiniteSample):
        extract_vertical(rec)


def test_fusion_rejects_empty():
    rec = static_record(np.array([1.0, 0, 0, 0]), duration_s=1.0)
    rec.t = rec.t[:1]
    rec.acc = rec.acc[:1]
    rec.gyro = rec.gyro[:1]
    with pytest.raises(EmptyStream):
        extract_vertical(rec)


# -- vertical extraction -----------------------------------------------------------

def test_extract_vertical_static_is_constant():
    rec = static_record(np.array([1.0, 0, 0, 0]), duration_s=4.0)
    sig = extract_vertical(rec)
    assert np.allclose(sig, GRAVITY, atol=1e-6)


def test_extract_vertical_zero_acceleration():
    rec = static_record(np.array([1.0, 0, 0, 0]), duration_s=2.0)
    rec.acc[:] = 0.0
    sig = extract_vertical(rec)
    assert np.allclose(sig, 0.0, atol=1e-12)


def test_extract_vertical_matches_rotation_oracle():
    # known static pose + synthetic walking motion: extraction reproduces the
    # analytic vertical to 1e-6
    rng = np.random.default_rng(5)
    pose = random_unit_quaternion(rng)
    t = np.arange(500) / 50.0
    motion = 2.0 * np.sin(2 * np.pi * 1.0 * t)
    rec = vertical_motion_record(motion, pose_q=pose)
    sig = extract_vertical(rec)
    assert np.allclose(sig, GRAVITY + motion, atol=1e-6)


def test_extract_vertical_length_mismatch():
    rec = static_record(np.array([1.0, 0, 0, 0]), duration_s=2.0)
    rec.gyro = rec.gyro[:-5]
    with pytest.raises(LengthMismatch):
        extract_vertical(rec)


def _swing_correlation(rec, motion) -> float:
    """Correlation of the preprocessed record with its bandpassed true motion."""
    got = preprocess_record(rec)
    want = bandpass(motion, rec.sample_rate)[-got.shape[0]:]
    return float(np.corrcoef(got, want)[0, 1])


@pytest.mark.parametrize("seed", range(4))
def test_swinging_device_recovers_vertical_motion(seed):
    rec, motion = swinging_record(seed)
    assert _swing_correlation(rec, motion) >= 0.99


def test_turning_swinging_device_recovers_vertical_motion():
    # rotations about moving axes do not commute: composing them out of
    # order reads about 0.96 here
    rec, motion = swinging_record(turn_rate=1.0)
    assert _swing_correlation(rec, motion) >= 0.99


def _hamilton(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw])


def test_gyro_frame_matches_sequential_product():
    # the doubling passes compose the same turns as one sample after another
    rec, _ = swinging_record(turn_rate=1.0)
    want = np.empty((rec.n_samples, 4))
    want[0] = (1.0, 0.0, 0.0, 0.0)
    for i in range(1, rec.n_samples):
        rate = rec.gyro[i]
        angle = float(np.linalg.norm(rate)) * (rec.t[i] - rec.t[i - 1])
        step = quat_from_axis_angle(rate, angle) if angle > 0 else want[0]
        want[i] = _hamilton(want[i - 1], step)
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    got = _gyro_frame(rec)
    assert got.shape == (4, rec.n_samples)
    assert np.max(np.abs(got - want.T)) < 1e-12


def _sequential_frame(rec) -> np.ndarray:
    """The oracle above as a function: one sample after another, then
    normalised, as (4, n) component rows."""
    want = np.empty((rec.n_samples, 4))
    want[0] = (1.0, 0.0, 0.0, 0.0)
    for i in range(1, rec.n_samples):
        rate = rec.gyro[i]
        angle = float(np.linalg.norm(rate)) * (rec.t[i] - rec.t[i - 1])
        step = quat_from_axis_angle(rate, angle) if angle > 0 else want[0]
        want[i] = _hamilton(want[i - 1], step)
    return (want / np.linalg.norm(want, axis=1, keepdims=True)).T


def test_gyro_frame_matches_sequential_product_past_two_to_the_15():
    # 330 cycles of 2 s at 50 Hz: the doubling pass with shift 2**15 runs
    rec, _ = swinging_record(seed=1, n_cycles=330, turn_rate=1.0)
    assert rec.n_samples > 2 ** 15
    assert np.max(np.abs(_gyro_frame(rec) - _sequential_frame(rec))) < 1e-12


def test_gyro_frame_matches_sequential_product_through_zero_rate_runs():
    # a zero rate is the identity turn: at the start, inside and at the end
    rec, _ = swinging_record(seed=2, turn_rate=1.0)
    for run in (slice(0, 7), slice(300, 420), slice(-64, None)):
        rec.gyro[run] = 0.0
    got = _gyro_frame(rec)
    assert np.array_equal(got[:, :7], np.tile([[1.0], [0.0], [0.0], [0.0]], (1, 7)))
    assert np.max(np.abs(got - _sequential_frame(rec))) < 1e-12


def _random_rate_record(n: int, seed: int = 5) -> ImuRecord:
    rng = np.random.default_rng(seed)
    return ImuRecord(sample_rate=50.0, t=np.arange(n) / 50.0,
                     acc=rng.normal(size=(n, 3)), gyro=rng.normal(scale=3.0, size=(n, 3)))


def _head(rec: ImuRecord, n: int) -> ImuRecord:
    return ImuRecord(rec.sample_rate, rec.t[:n], rec.acc[:n], rec.gyro[:n])


@pytest.mark.parametrize("kind", ["random-rate", "swinging"])
def test_gyro_frame_matches_sequential_product_at_block_boundaries(kind):
    # records that end just before, on and after a block or a power of two;
    # the frame of a record's first n samples is the first n of its frame
    block = signals._SCAN_BLOCK
    longest = 2 ** 15 + 1
    if kind == "random-rate":
        rec = _random_rate_record(longest)
    else:
        rec = _head(swinging_record(seed=3, n_cycles=330, turn_rate=1.0)[0], longest)
    want = _sequential_frame(rec)
    for n in (2, 3, block - 1, block, block + 1, 2 * block, 2 * block + 1, 16_385,
              longest):
        got = _gyro_frame(_head(rec, n))
        assert got.shape == (4, n)
        assert np.max(np.abs(got - want[:, :n])) < 1e-12, n


def test_swinging_device_needs_the_gyro():
    # Without the gyro the frame turns with the device, and the projection
    # reads about (g + motion) cos(theta): an error at the step rate whose
    # effect depends on its phase against the motion, so the mean is taken.
    corr = []
    for seed in range(4):
        rec, motion = swinging_record(seed)
        rec.gyro[:] = 0.0
        corr.append(_swing_correlation(rec, motion))
    assert np.mean(corr) < 0.99


# -- bandpass -----------------------------------------------------------------------

def _steady_gain(freq: float, fs: float = 50.0, duration: float = 120.0) -> float:
    """FFT oracle: steady-state gain of the designed filter at one frequency."""
    n = int(duration * fs)
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * freq * t)
    y = bandpass(x, fs)
    # analyze the middle half (edges carry filtfilt transients)
    lo, hi = n // 4, 3 * n // 4
    seg = hi - lo
    k = int(round(freq * seg / fs))
    def amp(v):
        spec = np.fft.rfft(v[lo:hi])
        return 2.0 * np.abs(spec[k]) / seg
    return amp(y) / amp(x)


def test_bandpass_removes_dc():
    out = bandpass(np.full(1000, GRAVITY), 50.0)
    assert out.shape == (1000,)
    assert np.max(np.abs(out)) < 0.01


def test_bandpass_preserves_2hz():
    assert abs(_steady_gain(2.0) - 1.0) < 0.05


def test_bandpass_attenuates_sub_band():
    # 0.1 Hz sits below the 0.5 Hz corner: at least 40 dB down
    assert _steady_gain(0.1, duration=200.0) < 10 ** (-40 / 20)


def test_bandpass_linearity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    a, b = 1.7, -0.6
    fs = 50.0
    lhs = bandpass(a * x + b * y, fs)
    rhs = a * bandpass(x, fs) + b * bandpass(y, fs)
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(scale, 1.0)


def test_bandpass_zero_mean_output():
    rng = np.random.default_rng(3)
    t = np.arange(5000) / 50.0
    raw = GRAVITY + np.sin(2 * np.pi * 1.0 * t) + 0.3 * rng.standard_normal(5000)
    out = bandpass(raw, 50.0)
    assert abs(np.mean(out)) < 1e-3 * np.max(np.abs(out))


@pytest.mark.parametrize("lo,hi", [(0.0, 12.0), (12.0, 0.5), (0.5, 30.0), (-1, 5)])
def test_bandpass_invalid_band(lo, hi):
    with pytest.raises(InvalidBand):
        bandpass(np.zeros(100), 50.0, (lo, hi))


def test_reversed_band_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(InvalidBand):
            bandpass(np.zeros(100), 50.0, (12.0, 0.7))


# -- zero-phase filtering -------------------------------------------------------------

def _design(name: str, fs: float):
    return _gravity_lowpass(fs) if name == "lowpass" else _bandpass(fs, *Config.band)


@pytest.mark.parametrize("name", ["lowpass", "bandpass"])
@pytest.mark.parametrize("fs", [50.0, 100.0])
@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("length", ["long", "edge+1"])
def test_filtfilt_equals_sosfiltfilt(name, fs, width, length):
    design = _design(name, fs)
    n = 3000 if length == "long" else design.edge + 1
    shape = (n,) if width is None else (width, n)
    x = 9.81 + np.random.default_rng(8).standard_normal(shape)
    got = _filtfilt(design, x, name)
    assert np.array_equal(got, sps.sosfiltfilt(design.sos, x, axis=-1))


@pytest.mark.parametrize("name", ["lowpass", "bandpass"])
def test_filtfilt_rejects_signal_within_its_padding(name):
    design = _design(name, 50.0)
    with pytest.raises(EmptyStream, match=f"^{design.edge} samples, too few for the {name}"):
        _filtfilt(design, np.ones(design.edge), name)


def test_initial_state_is_solved_once_per_design(monkeypatch):
    calls = []
    solve = sps.sosfilt_zi

    def counting_sosfilt_zi(sos):
        calls.append(sos.shape)
        return solve(sos)

    monkeypatch.setattr(signals.sps, "sosfilt_zi", counting_sosfilt_zi)
    _gravity_lowpass.cache_clear()
    _bandpass.cache_clear()
    rec, _ = swinging_record(seed=3)
    first = preprocess_record(rec)
    for _ in range(3):
        assert np.array_equal(preprocess_record(rec), first)
    assert calls == [(1, 6), (4, 6)]


# -- pipeline ------------------------------------------------------------------------

def test_resample_uniform_interpolates_jittered_timestamps():
    rng = np.random.default_rng(4)
    fs = 50.0
    n = 400
    t = np.arange(n) / fs + rng.uniform(-0.004, 0.004, size=n)
    t = np.sort(t)
    motion = np.sin(2 * np.pi * 1.0 * t)
    acc = np.zeros((n, 3))
    acc[:, 2] = GRAVITY + motion
    rec = ImuRecord(fs, t, acc, np.zeros((n, 3)), subject_id="j")
    out = resample_uniform(rec)
    assert out.is_uniform()
    grid = out.t
    assert np.allclose(out.acc[:, 2], GRAVITY + np.sin(2 * np.pi * grid),
                       atol=0.01)


def test_validate_rejects_rate_mismatch():
    n = 100
    t = np.arange(n) / 25.0  # implies 25 Hz
    rec = ImuRecord(50.0, t, np.zeros((n, 3)), np.zeros((n, 3)))
    with pytest.raises(EmptyStream):
        rec.validate()


@pytest.mark.parametrize("jitter", [0.0, 0.004])
def test_each_record_is_validated_once(monkeypatch, jitter):
    calls = []
    validate = ImuRecord.validate

    def counting_validate(self):
        calls.append(self.n_samples)
        validate(self)

    monkeypatch.setattr(ImuRecord, "validate", counting_validate)
    rec = vertical_motion_record(np.sin(2 * np.pi * np.arange(400) / 50.0))
    rec.t = rec.t + np.random.default_rng(4).uniform(-jitter, jitter, size=400)
    assert rec.is_uniform() == (jitter == 0.0)
    preprocess_record(rec)
    assert calls == [400]
    extract_vertical(rec)  # all of the coherence analysis's front end
    assert calls == [400, 400]


@pytest.mark.parametrize("n", [5, 20, 100])
def test_preprocess_record_rejects_record_within_warmup(n):
    rec = static_record(np.array([1.0, 0, 0, 0]), duration_s=n / 50.0)
    with pytest.raises(EmptyStream):
        preprocess_record(rec)


def _short_record(duration_s: float, fs: float) -> ImuRecord:
    rec = static_record(np.array([1.0, 0, 0, 0]), duration_s=duration_s, fs=fs)
    rec.recording_id = "short"
    return rec


# Each input lies within its filter's odd-extension padding: 5 samples at 50 Hz
# against the gravity low-pass's 9, and 25 samples at 10 Hz, past the 2 s
# warm-up, against the 4-section bandpass's 27.
@pytest.mark.parametrize("run, match", [
    (lambda: extract_vertical(_short_record(0.1, 50.0)),
     "^record 'short' has 5 samples, too few for the gravity low-pass: it pads 9 "),
    (lambda: preprocess_record(_short_record(2.5, 10.0), band=(0.5, 3.0)),
     "^record 'short' has 25 samples, too few for the bandpass: it pads 27 "),
    (lambda: bandpass(np.zeros(25), 10.0, (0.5, 3.0)),
     "^25 samples, too few for the bandpass: it pads 27 "),
], ids=["extract_vertical", "preprocess_record", "bandpass"])
def test_input_too_short_for_a_filter_names_the_record_and_the_filter(run, match):
    with pytest.raises(EmptyStream, match=match):
        run()


def test_preprocess_record_trims_warmup():
    rng = np.random.default_rng(6)
    pose = random_unit_quaternion(rng)
    t = np.arange(500) / 50.0
    motion = np.sin(2 * np.pi * 1.0 * t)
    rec = vertical_motion_record(motion, pose_q=pose)
    z = preprocess_record(rec)
    assert z.shape == (500 - 100,)  # 2 s discarded at 50 Hz
    assert abs(np.mean(z)) < 1e-2
