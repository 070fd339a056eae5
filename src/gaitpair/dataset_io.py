"""Corpus ingestion and synthetic gait generation.

Recorded datasets are user-supplied (licensing): a corpus directory holds one
CSV per recording plus a ``manifest.json`` mapping files to (subject, position,
recording, sample rate).  The synthetic generator produces walking-like IMU
streams with a shared latent waveform per subject so intra-body structure
exists without redistributing any third-party data.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import secrets
from collections.abc import Callable, Sequence
from concurrent import futures
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    MissingColumns,
    NonMonotoneTimestamps,
    SchemaMismatch,
    SignalTooShort,
)
from .gait import CycleDetection, GaitSequence, detect_cycles, split_and_normalize
from .signals import GRAVITY, ImuRecord, VerticalSignal, rotate_vectors

CSV_COLUMNS = ("timestamp_ms", "ax", "ay", "az", "gx", "gy", "gz")
MANIFEST_NAME = "manifest.json"
CACHE_DIR = ".gaitpair-cache"
SCHEMA_VERSION = 1

_OSAKA_WARNINGS = (
    "osaka: all sensor units sit on nearby thigh positions on one harness; "
    "inter-position independence is limited",
    "osaka: only 6-8 gait cycles of stationary walk per subject; too short "
    "for full-length fingerprints",
)


@dataclass
class Corpus:
    records: list[ImuRecord]
    schema_version: int = SCHEMA_VERSION
    warnings: list[str] = dc_field(default_factory=list)

    def __post_init__(self) -> None:
        keys = [(r.subject_id, r.position, r.recording_id) for r in self.records]
        if len(set(keys)) != len(keys):
            raise SchemaMismatch("duplicate (subject, position, recording) key")

    @property
    def subjects(self) -> list[str]:
        return sorted({r.subject_id for r in self.records})

    @property
    def positions(self) -> list[str]:
        return sorted({r.position for r in self.records})


def _map_in_order(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]`` on one thread per CPU the process may run
    on (its affinity), at most one per item.  The first failure in list
    order propagates, as the loop's would; items after it may have run.

    Every per-record loop of a corpus runs through here.  Its work is numpy,
    scipy, hashing and file reads, which release the GIL.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with futures.ThreadPoolExecutor(max(1, min(len(items), cpus))) as pool:
        return list(pool.map(fn, items))


# -- CSV corpus -------------------------------------------------------------------

def _read_recording_csv(base: Path, name: str) -> np.ndarray:
    """The (7, n) component rows of one recording, one contiguous row per
    column, parsed once per file content.

    The SHA-256 of the file, hashed as a stream, keys a binary copy of the
    rows at ``.gaitpair-cache/<csv name>.rows`` beside the CSV, one entry per
    CSV name; a hit reads only the header line besides.  A missing,
    unreadable or stale entry means a fresh parse, which hashes the bytes it
    parses as they stream past and rewrites the entry under that digest, so
    an entry never pairs a digest with rows of other bytes, even if the file
    changes during the load.  No path holds the whole file in memory.
    Header and timestamp checks run on both paths, and a file that fails one
    is never cached.  An entry of the earlier ``<csv name>.npz`` layout
    beside a loaded file is removed, unread.
    """
    path = base / name
    try:
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").digest()
        # a header that is not UTF-8 cannot name the columns either
        with open(path, encoding="utf-8", errors="replace") as fh:
            header = fh.readline()
    except (OSError, ValueError) as exc:  # missing or unreadable
        raise SchemaMismatch(f"{name}: {exc}") from exc
    entry = path.parent / CACHE_DIR / f"{path.name}.rows"
    rows = _cached_parse(entry, digest)
    parsed = rows is None
    if parsed:
        digest, rows = _parse_csv(path, name)
    else:
        _check_header(path, header)
    if rows.shape[1] >= 2 and (np.diff(rows[0] / 1000.0) <= 0).any():
        raise NonMonotoneTimestamps(f"{name}: timestamps not increasing")
    if parsed:
        _store_parse(entry, digest, rows)
    with contextlib.suppress(OSError):  # the entry in the earlier .npz layout
        os.unlink(entry.with_suffix(".npz"))
    return rows


def _parse_csv(path: Path, name: str) -> tuple[bytes, np.ndarray]:
    """The SHA-256 of a CSV's bytes and its (7, n) rows, header checked,
    parsed from those same bytes as they are hashed."""
    try:
        with open(path, "rb", buffering=0) as raw:
            hashed = _HashingReader(raw)
            fh = io.TextIOWrapper(io.BufferedReader(hashed), encoding="utf-8")
            try:
                header = fh.readline()
            except UnicodeDecodeError as exc:  # the first chunk read is not UTF-8
                raise SchemaMismatch(
                    f"{name}: {_decode_error(path.read_bytes(), exc)}") from exc
            _check_header(path, header)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:  # not UTF-8, not a number, or ragged rows
                raise SchemaMismatch(
                    f"{name}: {_parse_error(path.read_bytes(), exc)}") from exc
    except (OSError, ValueError) as exc:  # missing or unreadable
        raise SchemaMismatch(f"{name}: {exc}") from exc
    if data.size == 0:
        data = np.empty((0, len(CSV_COLUMNS)))
    elif data.shape[1] != len(CSV_COLUMNS):
        raise SchemaMismatch(f"{path.name}: row width {data.shape[1]}")
    return hashed.sha256.digest(), np.ascontiguousarray(data.T)


class _HashingReader(io.RawIOBase):
    """A binary file that hashes its bytes as they are read, so that a parse
    of the whole file and its digest see the same bytes."""

    def __init__(self, raw) -> None:
        self._raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(buf)
        self.sha256.update(memoryview(buf)[:n])
        return n


def _check_header(path: Path, header: str) -> None:
    cols = tuple(c.strip() for c in header.strip().split(","))
    missing = [c for c in CSV_COLUMNS if c not in cols]
    if missing:
        raise MissingColumns(f"{path.name}: missing columns {missing}")
    if cols != CSV_COLUMNS:
        raise SchemaMismatch(
            f"{path.name}: header {cols} != {CSV_COLUMNS}")


def _parse_error(raw: bytes, exc: ValueError) -> str:
    """Name the first file line, counting the header as line 1, that is not a
    row of numbers as wide as the first; numpy's message counts data rows
    from 0."""
    width = None
    for lineno, line in enumerate(raw.splitlines()[1:], start=2):
        text = line.decode("utf-8", errors="replace")
        data = text.split("#", 1)[0]
        if not data.strip():
            continue
        try:
            row = [float(f) for f in data.split(",")]
        except ValueError:
            row = None
        if row is not None and width is None:
            width = len(row)
        if row is None or len(row) != width:
            return (f"line {lineno}: {text[:80]!r} is not a row of "
                    f"{width or 'comma-separated'} numbers")
    return str(exc)


def _decode_error(raw: bytes, exc: UnicodeDecodeError) -> str:
    """Name the file line, counting from 1, of the first byte that is not
    UTF-8; the codec's own message counts bytes from the start of a chunk."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:
        line = raw.count(b"\n", 0, whole.start) + 1
        return f"line {line}: byte 0x{raw[whole.start]:02x} is not UTF-8"
    return str(exc)


def _cached_parse(entry: Path, digest: bytes) -> np.ndarray | None:
    """The cached rows of a CSV whose bytes hash to ``digest``, or None.

    An entry is the digest followed by the rows in the ``.npy`` format,
    version 1.0.  The header is checked against the file's size before the
    rows are read, so a damaged one cannot ask for a large allocation.
    """
    try:
        with open(entry, "rb") as fh:
            if (fh.read(len(digest)) != digest
                    or np.lib.format.read_magic(fh) != (1, 0)):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if (dtype != np.float64 or fortran_order or len(shape) != 2
                    or shape[0] != len(CSV_COLUMNS)
                    or size != shape[0] * shape[1] * dtype.itemsize):
                return None
            return np.fromfile(fh, dtype=dtype).reshape(shape)
    except (OSError, ValueError):
        return None


def _store_parse(entry: Path, digest: bytes, rows: np.ndarray) -> None:
    """Write a cache entry atomically; skipped where it cannot be written.

    The entry is written under a unique temporary name that ``open`` creates,
    so its mode follows the umask and other users of the corpus can read it,
    and concurrent loads of one corpus never see a partial entry.
    """
    tmp = entry.with_name(f"{entry.name}.{secrets.token_hex(8)}.tmp")
    try:
        entry.parent.mkdir(exist_ok=True)
        fh = open(tmp, "xb")
    except OSError:
        return
    try:
        with fh:
            fh.write(digest)
            np.lib.format.write_array(fh, rows, version=(1, 0), allow_pickle=False)
        os.replace(tmp, entry)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def load_csv(path: str | Path) -> Corpus:
    """Load a corpus from a manifest file or a directory containing one."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8 or not JSON
        raise SchemaMismatch(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("recordings"), list):
        raise SchemaMismatch(f"{manifest_path} lacks a 'recordings' list")

    base = manifest_path.parent

    def read(entry) -> ImuRecord:
        if not isinstance(entry, dict):
            raise SchemaMismatch(f"{manifest_path}: entry {entry!r} is not an object")
        for key in ("file", "subject_id", "position", "recording_id", "sample_rate_hz"):
            if key not in entry:
                raise SchemaMismatch(f"{manifest_path}: entry missing {key!r}: {entry}")
        try:
            rate = float(entry["sample_rate_hz"])
        except (TypeError, ValueError) as exc:
            raise SchemaMismatch(f"{manifest_path}: sample_rate_hz: {exc}") from exc
        if not math.isfinite(rate):
            raise SchemaMismatch(f"{manifest_path}: sample_rate_hz is {rate}")
        # one contiguous row per column, so acc and gyro hand the signal
        # chain contiguous component rows as their transposes; the
        # timestamps turn from ms to s in their own row
        rows = _read_recording_csv(base, str(entry["file"]))
        return ImuRecord(
            sample_rate=rate,
            t=np.divide(rows[0], 1000.0, out=rows[0]),
            acc=rows[1:4].T,
            gyro=rows[4:7].T,
            subject_id=str(entry["subject_id"]),
            position=str(entry["position"]),
            recording_id=str(entry["recording_id"]),
        )

    records = _map_in_order(read, manifest["recordings"])

    try:
        warnings = list(manifest.get("warnings", []))
        schema_version = int(manifest.get("schema_version", SCHEMA_VERSION))
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{manifest_path}: {exc}") from exc
    if manifest.get("dataset_family") == "osaka":
        warnings.extend(_OSAKA_WARNINGS)
    return Corpus(records=records, schema_version=schema_version, warnings=warnings)


def save_csv(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write a corpus as per-recording CSVs plus a manifest; returns manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, rec in enumerate(corpus.records):
        name = f"rec_{i:04d}.csv"
        samples = np.column_stack([rec.t * 1000.0, rec.acc, rec.gyro])
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            # blocks of rows bound the text held at once; repr of a Python
            # float is the shortest exact round-trip form
            for start in range(0, samples.shape[0], 1024):
                rows = samples[start:start + 1024].tolist()
                fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))
        entries.append({
            "file": name,
            "subject_id": rec.subject_id,
            "position": rec.position,
            "recording_id": rec.recording_id,
            "sample_rate_hz": rec.sample_rate,
        })
    manifest = {
        "schema_version": corpus.schema_version,
        "recordings": entries,
        "warnings": corpus.warnings,
    }
    manifest_path = out / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest_path


# -- synthetic corpus ---------------------------------------------------------------

@dataclass(frozen=True)
class PositionSpec:
    """Per-position distortion of the shared latent gait."""

    phase_jitter: float = 0.01      # max time offset, seconds
    noise_snr_db: float = 20.0


@dataclass(frozen=True)
class SyntheticGaitSpec:
    base_period: float = 2.0        # seconds per full gait cycle
    n_cycles: int = 60
    per_position: tuple[tuple[str, PositionSpec], ...] = (
        ("chest", PositionSpec()),
        ("forearm", PositionSpec()),
        ("waist", PositionSpec()),
    )
    rng_seed: int = 0
    n_subjects: int = 2
    sample_rate: float = 50.0
    lead_s: float = 4.0             # pad so filter warm-up does not eat cycles

    def __post_init__(self) -> None:
        for name in ("base_period", "sample_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        for name in ("n_cycles", "n_subjects"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for _, ps in self.per_position:
            if not math.isfinite(ps.noise_snr_db) and ps.noise_snr_db != math.inf:
                raise ConfigError("noise_snr_db must be finite or +inf")


def _smooth_noise(rng: np.random.Generator, n: int, ctrl_spacing: int) -> np.ndarray:
    """Piecewise-linear noise with control points every ctrl_spacing samples."""
    k = max(2, n // max(1, ctrl_spacing) + 2)
    ctrl = rng.standard_normal(k)
    xs = np.linspace(0.0, n - 1.0, k)
    return np.interp(np.arange(n), xs, ctrl)


def _latent_walk(rng: np.random.Generator, n: int, sample_rate: float,
                 base_period: float) -> np.ndarray:
    """Vertical motion of one walking body, m/s^2, zero mean.

    Step-rate harmonic dominates (left and right steps look alike), a weaker
    cycle-rate component carries the left/right asymmetry, and slowly drifting
    per-harmonic amplitude/phase plus per-step amplitude modulation provide the
    instantaneous variation that fingerprints are built from.
    """
    f0 = 1.0 / base_period
    t = np.arange(n) / sample_rate
    n_harm = int(rng.integers(3, 6))
    half_cycle_samples = max(2, int(round(sample_rate * base_period / 2.0)))

    base_amp = {1: 0.35, 2: 1.0, 3: 0.45, 4: 0.25, 5: 0.15}
    out = np.zeros(n)
    for h in range(1, n_harm + 1):
        amp = base_amp.get(h, 0.1) * (0.8 + 0.4 * rng.random())
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp_drift = 1.0 + 0.20 * _smooth_noise(rng, n, half_cycle_samples)
        phase_drift = 0.15 * _smooth_noise(rng, n, 2 * half_cycle_samples)
        out += amp * amp_drift * np.sin(2.0 * np.pi * h * f0 * t + phase + phase_drift)

    step_mod = 1.0 + 0.15 * _smooth_noise(rng, n, half_cycle_samples)
    return 2.0 * out * step_mod


def synthetic_vertical_signal(seed: int, n_cycles: int = 60,
                              base_period: float = 2.0,
                              sample_rate: float = 50.0,
                              snr_db: float = math.inf,
                              subject_id: str = "synth",
                              lead_s: float = 0.0) -> VerticalSignal:
    """One body's raw vertical acceleration (gravity excluded), for direct
    quantizer/segmentation studies that do not need the IMU front end."""
    rng = np.random.default_rng(seed)
    n = int(round((n_cycles * base_period + lead_s) * sample_rate))
    z = _latent_walk(rng, n, sample_rate, base_period)
    if math.isfinite(snr_db):
        sigma = math.sqrt(float(np.var(z)) / (10.0 ** (snr_db / 10.0)))
        z = z + rng.normal(0.0, sigma, size=n)
    return VerticalSignal(sample_rate=sample_rate, z=z, subject_id=subject_id)


def _random_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def _world_to_device(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate world-frame vectors v (n, 3) into the device frame defined by q
    (device->world); the result is (n, 3), a view of its component rows."""
    w, x, y, z = q
    return rotate_vectors(np.array([[w], [-x], [-y], [-z]]), v.T).T


def generate_synthetic(spec: SyntheticGaitSpec) -> Corpus:
    """Deterministic synthetic corpus: one latent walk per subject, one
    distorted view of it per position.  Different subjects get independent
    latent walks, so inter-body fingerprints agree only by chance."""
    fs = spec.sample_rate
    duration = spec.n_cycles * spec.base_period + spec.lead_s
    n = int(round(duration * fs))
    jit_max = max((ps.phase_jitter for _, ps in spec.per_position), default=0.0)
    margin = int(math.ceil(jit_max * fs)) + 1

    records = []
    for s_idx in range(spec.n_subjects):
        subject = f"s{s_idx:02d}"
        latent_rng = np.random.default_rng([spec.rng_seed, 7919, s_idx])
        latent = _latent_walk(latent_rng, n + 2 * margin, fs, spec.base_period)
        t = np.arange(n) / fs
        t_latent = (np.arange(n + 2 * margin) - margin) / fs

        for p_idx, (position, ps) in enumerate(spec.per_position):
            rec_rng = np.random.default_rng([spec.rng_seed, 104729, s_idx, p_idx])
            offset = rec_rng.uniform(-ps.phase_jitter, ps.phase_jitter) \
                if ps.phase_jitter > 0 else 0.0
            motion = np.interp(t + offset, t_latent, latent)

            world = np.zeros((n, 3))
            world[:, 2] = GRAVITY + motion
            if math.isfinite(ps.noise_snr_db):
                sigma = math.sqrt(float(np.var(motion))
                                  / (10.0 ** (ps.noise_snr_db / 10.0)))
                world += rec_rng.normal(0.0, sigma, size=(n, 3))
                gyro = rec_rng.normal(0.0, 0.005, size=(n, 3))
            else:
                gyro = np.zeros((n, 3))

            pose = _random_quaternion(rec_rng)
            acc = _world_to_device(pose, world)
            records.append(ImuRecord(
                sample_rate=fs,
                t=t.copy(),
                acc=acc,
                gyro=gyro,
                subject_id=subject,
                position=position,
                recording_id="r0",
            ))
    return Corpus(records=records)


# -- sliding windows ------------------------------------------------------------------

@dataclass
class Window:
    """A run of consecutive gait cycles; only same-index windows are compared."""

    start_cycle: int
    sequence: GaitSequence


def sliding_windows(sig: VerticalSignal, window_cycles: int,
                    overlap: float = 0.5, rho: int = 40,
                    detection: CycleDetection | None = None) -> list[Window]:
    """Cut a processed signal into runs of ``window_cycles`` full gait cycles,
    consecutive runs sharing ``overlap`` of their cycles.

    Windows are aligned to detected half-cycle boundaries, so every window
    covers an integer number of half cycles.  The record's cycles are
    resampled once, and each window's cycles are one read-only row of the
    view that ``GaitSequence.windows`` returns.
    """
    det = detection if detection is not None else detect_cycles(sig)
    total_cycles = (det.minima_indices.shape[0] - 1) // 2
    if total_cycles < window_cycles:
        raise SignalTooShort(
            f"{total_cycles} cycles available, window needs {window_cycles}")
    starts, view = split_and_normalize(sig, det, rho).windows(window_cycles, overlap)
    return [Window(start_cycle=start, sequence=GaitSequence(cycles=cycles, rho=rho))
            for start, cycles in zip(starts, view)]
