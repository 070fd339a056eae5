"""Corpus ingestion and synthetic gait generation.

Recorded datasets are user-supplied (licensing): a corpus directory holds one
CSV per recording plus a ``manifest.json`` mapping files to (subject, position,
recording, sample rate).  The synthetic generator produces walking-like IMU
streams with a shared latent waveform per subject so intra-body structure
exists without redistributing any third-party data.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import secrets
import struct
from collections.abc import Callable, Sequence
from concurrent import futures
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .config import Config
from .errors import (
    ConfigError,
    MissingColumns,
    NonMonotoneTimestamps,
    SchemaMismatch,
    SignalTooShort,
)
from .gait import CycleDetection, GaitSequence, detect_cycles, split_and_normalize
from .signals import GRAVITY, ImuRecord, preprocess_record, rotate_vectors

CSV_COLUMNS = ("timestamp_ms", "ax", "ay", "az", "gx", "gy", "gz")
MANIFEST_NAME = "manifest.json"
CACHE_DIR = ".gaitpair-cache"
SCHEMA_VERSION = 1
SYNTHETIC_LEAD_S = 4.0  # generator pad, so filter warm-up does not eat cycles

_OSAKA_WARNINGS = (
    "osaka: all sensor units sit on nearby thigh positions on one harness; "
    "inter-position independence is limited",
    "osaka: only 6-8 gait cycles of stationary walk per subject; too short "
    "for full-length fingerprints",
)


RecordKey = tuple[str, str, str]  # subject, position, recording


@dataclass(frozen=True)
class ManifestEntry:
    """One recording as its manifest lists it; nothing here opens its CSV."""

    key: RecordKey
    sample_rate: float
    csv: Path
    name: str  # the file as the manifest gives it, which messages name

    def cache_entry(self, suffix: str) -> Path:
        """``.gaitpair-cache/<csv name><suffix>`` beside the CSV."""
        return self.csv.parent / CACHE_DIR / f"{self.csv.name}{suffix}"

    def record(self, rows: np.ndarray) -> ImuRecord:
        """The record of the CSV's checked (7, n) rows, which it takes over:
        acc and gyro hand the signal chain contiguous component rows as
        their transposes, and the timestamps turn from ms to s in their own
        row."""
        subject, position, recording = self.key
        return ImuRecord(sample_rate=self.sample_rate,
                         t=np.divide(rows[0], 1000.0, out=rows[0]),
                         acc=rows[1:4].T, gyro=rows[4:7].T, subject_id=subject,
                         position=position, recording_id=recording)


class Corpus:
    """Records in order, and the corpus's warnings.

    A corpus built in memory holds its records.  One read by
    ``read_manifest`` holds its manifest's entries and reads their samples
    on the first use of ``records``, every record in one pooled pass;
    ``corpus_cycles`` reads only the samples its ``.cycles`` entries lack.
    """

    def __init__(self, records: list[ImuRecord] | None = None,
                 warnings: list[str] | None = None,
                 entries: list[ManifestEntry] | None = None) -> None:
        self.warnings = list(warnings or [])
        self.entries = list(entries or [])
        if records is None:
            self.keys = [entry.key for entry in self.entries]
        else:
            self.records = list(records)  # in place of the cached read
            self.keys = [(r.subject_id, r.position, r.recording_id) for r in records]
        if len(set(self.keys)) != len(self.keys):
            raise SchemaMismatch("duplicate (subject, position, recording) key")

    @functools.cached_property
    def records(self) -> list[ImuRecord]:
        return _map_in_order(lambda e: e.record(_read_recording_csv(e)[1]), self.entries)

    @property
    def positions(self) -> list[str]:
        return sorted({position for _, position, _ in self.keys})


def _map_in_order(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]`` on one thread per CPU the process may run
    on (its affinity), at most one per item.  The first failure in list
    order propagates, as the loop's would; items after it may have run.

    Four loops run through here: ``Corpus.records`` reads a corpus's
    records, ``corpus_cycles`` looks up their ``.cycles`` entries and then
    runs the front end on the misses, and
    ``eval_harness.coherence_analysis`` extracts their vertical signals.
    Their work is numpy, scipy, hashing and file reads, which release the
    GIL.  ``cli.cmd_preprocess`` writes its records in a plain loop.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with futures.ThreadPoolExecutor(max(1, min(len(items), cpus))) as pool:
        return list(pool.map(fn, items))


# -- CSV corpus -------------------------------------------------------------------

def _read_recording_csv(
        entry: ManifestEntry,
        stored: Callable[[bytes], np.ndarray | None] = lambda digest: None,
) -> tuple[bytes, np.ndarray | None, np.ndarray | None]:
    """One recording's CSV, opened once: its SHA-256 and what ``stored``
    finds under it, ``(digest, None, found)``, or else its (7, n) component
    rows, one contiguous row per column, ``(digest, rows, None)``.  A caller
    whose cache is keyed by the digest so reads no samples on a hit.

    Rows are parsed once per file content: the digest keys a binary copy at
    ``.gaitpair-cache/<csv name>.rows`` beside the CSV, one entry per CSV
    name.  The CSV is hashed, its header read from the start and checked,
    ``stored`` asked, and then the entry read.  A missing, unreadable or
    stale entry means a fresh parse that continues on the same stream, which
    hashes the bytes it parses as they stream past, and rewrites the entry
    under that digest, so an entry never pairs a digest with rows of other
    bytes, even if the file changes during the read: the digest returned
    with rows is always theirs.  No success path holds the whole file in
    memory; a failed read or parse re-reads it from the same handle to name
    its first bad line.  The finiteness and timestamp checks run whenever
    rows are returned, from the entry or the text, and a file that fails
    one is never cached.
    """
    name, rows_entry = entry.name, entry.cache_entry(".rows")
    try:
        with open(entry.csv, "rb", buffering=0) as raw:
            digest = hashlib.file_digest(raw, "sha256").digest()
            raw.seek(0)
            hashed = _HashingReader(raw)
            fh = io.TextIOWrapper(io.BufferedReader(hashed), encoding="utf-8")
            try:
                _check_header(name, fh.readline())
                found = stored(digest)
                if found is not None:
                    return digest, None, found
                rows = _read_entry(rows_entry, digest, (len(CSV_COLUMNS), None))
                parsed = rows is None
                if parsed:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
                    if data.size and data.shape[1] != len(CSV_COLUMNS):
                        raise SchemaMismatch(f"{name}: row width {data.shape[1]}")
                    digest = hashed.sha256.digest()
                    rows = np.ascontiguousarray(data.reshape(-1, len(CSV_COLUMNS)).T)
                if not np.isfinite(rows).all():
                    raise ValueError("a sample is not finite")
            except ValueError as exc:  # not UTF-8, not a number, ragged or not finite
                raw.seek(0)
                raise SchemaMismatch(f"{name}: {_bad_line(raw.readall()) or exc}") from exc
    except OSError as exc:  # missing or unreadable
        raise SchemaMismatch(f"{name}: {exc}") from exc
    if rows.shape[1] >= 2 and (np.diff(rows[0] / 1000.0) <= 0).any():
        raise NonMonotoneTimestamps(f"{name}: timestamps not increasing")
    if parsed:
        _write_entry(rows_entry, digest, rows)
    return digest, rows, None


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


def _check_header(name: str, header: str) -> None:
    cols = tuple(c.strip() for c in header.strip().split(","))
    missing = [c for c in CSV_COLUMNS if c not in cols]
    if missing:
        raise MissingColumns(f"{name}: missing columns {missing}")
    if cols != CSV_COLUMNS:
        raise SchemaMismatch(f"{name}: header {cols} != {CSV_COLUMNS}")


def _bad_line(raw: bytes) -> str | None:
    """Name the first file line, counting the header as line 1, that is not
    UTF-8 or, after the header, not a row of finite numbers as wide as the
    first; None if there is none.  The codec's and numpy's own messages
    count from the start of a chunk or of the data rows."""
    width = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"line {lineno}: byte 0x{line[exc.start]:02x} is not UTF-8"
        data = text.split("#", 1)[0]
        if lineno == 1 or not data.strip():
            continue
        try:
            row = [float(f) for f in data.split(",")]
        except ValueError:
            row = None
        if row is not None and width is None:
            width = len(row)
        if row is None or len(row) != width or not all(map(math.isfinite, row)):
            return (f"line {lineno}: {text[:80]!r} is not a row of "
                    f"{width or 'comma-separated'} finite numbers")
    return None


def _read_entry(entry: Path, key: bytes,
                shape: tuple[int | None, int | None]) -> np.ndarray | None:
    """The float64 array a cache entry holds under ``key``, or None.

    An entry is the 32-byte key followed by a 2-D array in the ``.npy``
    format, version 1.0.  ``shape`` gives the dimensions it must have, None
    for any.  The header is checked against the file's size before the
    array is read, so a damaged one cannot ask for a large allocation.
    """
    try:
        with open(entry, "rb") as fh:
            if (fh.read(len(key)) != key
                    or np.lib.format.read_magic(fh) != (1, 0)):
                return None
            got, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if (dtype != np.float64 or fortran_order or len(got) != 2
                    or any(w is not None and w != g for w, g in zip(shape, got))
                    or size != got[0] * got[1] * dtype.itemsize):
                return None
            return np.fromfile(fh, dtype=dtype).reshape(got)
    except (OSError, ValueError):
        return None


def _write_entry(entry: Path, key: bytes, array: np.ndarray) -> None:
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
            fh.write(key)
            np.lib.format.write_array(fh, np.ascontiguousarray(array), version=(1, 0),
                                      allow_pickle=False)
        os.replace(tmp, entry)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


@functools.cache
def _code_digest() -> bytes:
    """SHA-256 of the package's ``.py`` sources and the numpy and scipy
    versions: the code that computed a ``.cycles`` entry.  The package
    version never changes, so it cannot stand for the code."""
    h = hashlib.sha256()
    for src in sorted(Path(__file__).parent.glob("*.py")):
        h.update(src.name.encode() + b"\0" + hashlib.sha256(src.read_bytes()).digest())
    h.update(f"numpy {np.__version__} scipy {scipy.__version__}".encode())
    return h.digest()


def corpus_cycles(corpus: Corpus, cfg: Config) -> dict[RecordKey, GaitSequence]:
    """Each record's resampled gait cycles, in corpus order, found once per
    record content: every window of every size is a slice of them.  A record
    without a full cycle (fewer than 3 half-cycle boundaries) is left out.

    A corpus read from a manifest takes two pooled passes.  The first opens
    each CSV once, hashes it, checks its header and reads the record's
    cycles from its ``.cycles`` entry when one holds them for these inputs:
    the entry's key is the SHA-256 of the CSV's digest, the sample rate, the
    band, rho and ``_code_digest()``.  Only a miss reads the record's
    samples, with every check (``_read_recording_csv``), and keys its entry
    by the digest of the bytes they came from.  The second pass runs
    ``preprocess_record``, ``detect_cycles`` and ``split_and_normalize`` on
    the misses and rewrites their one entry per CSV name.  So every schema
    fault of the corpus is raised before any front-end fault, each the first
    in manifest order.  A record built in memory always computes.  A failure
    or a record left out is never stored, so a bad record raises the same
    error on every call; a stored sequence was computed from samples of
    those bytes that passed every check at that rate, which is why a hit
    need not read them.
    """
    def cycles_key(digest: bytes, rate: float) -> bytes:
        return hashlib.sha256(digest + struct.pack("<3dq", rate, *cfg.band, cfg.rho)
                              + _code_digest()).digest()

    def look_up(entry: ManifestEntry):
        """(the stored cycles, None) on a hit; (None, the miss) otherwise."""
        path = entry.cache_entry(".cycles")
        digest, rows, stored = _read_recording_csv(
            entry, lambda digest: _read_entry(path, cycles_key(digest, entry.sample_rate),
                                              (None, cfg.rho)))
        if stored is not None:
            return GaitSequence(cycles=stored, rho=cfg.rho), None
        return None, (entry.record(rows), path, cycles_key(digest, entry.sample_rate))

    def compute(miss) -> GaitSequence | None:
        rec, path, entry_key = miss
        z = preprocess_record(rec, band=cfg.band)
        det = detect_cycles(z)
        if det.minima_indices.shape[0] < 3:
            return None
        seq = split_and_normalize(z, det, cfg.rho)
        if path is not None:
            _write_entry(path, entry_key, seq.cycles)
        return seq

    if corpus.entries:
        found = _map_in_order(look_up, corpus.entries)
    else:
        found = [(None, (rec, None, None)) for rec in corpus.records]
    computed = iter(_map_in_order(compute, [miss for _, miss in found
                                            if miss is not None]))
    seqs = [seq if miss is None else next(computed) for seq, miss in found]
    return {key: seq for key, seq in zip(corpus.keys, seqs) if seq is not None}


def read_manifest(path: str | Path) -> Corpus:
    """A corpus from a manifest file or a directory containing one, with
    the manifest and each of its entries checked and no CSV opened: its
    records are read on first use (``Corpus``)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8 or not JSON
        raise SchemaMismatch(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("recordings"), list):
        raise SchemaMismatch(f"{manifest_path} lacks a 'recordings' list")

    warnings = manifest.get("warnings", [])
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise SchemaMismatch(f"{manifest_path}: warnings {warnings!r} is not a list "
                             "of strings")
    version = manifest.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaMismatch(f"{manifest_path}: schema_version {version!r} is not "
                             f"{SCHEMA_VERSION}")
    if manifest.get("dataset_family") == "osaka":
        warnings = [*warnings, *_OSAKA_WARNINGS]
    base = manifest_path.parent

    entries: dict[RecordKey, ManifestEntry] = {}
    for entry in manifest["recordings"]:
        if not isinstance(entry, dict):
            raise SchemaMismatch(f"{manifest_path}: entry {entry!r} is not an object")
        for key in ("file", "subject_id", "position", "recording_id", "sample_rate_hz"):
            if key not in entry:
                raise SchemaMismatch(f"{manifest_path}: entry missing {key!r}: {entry}")
        try:
            rate = float(entry["sample_rate_hz"])
        except (TypeError, ValueError) as exc:
            raise SchemaMismatch(f"{manifest_path}: sample_rate_hz: {exc}") from exc
        if not (math.isfinite(rate) and rate > 0):
            raise SchemaMismatch(f"{manifest_path}: sample_rate_hz {rate} is not a "
                                 "positive finite rate")
        record = (str(entry["subject_id"]), str(entry["position"]),
                  str(entry["recording_id"]))
        if record in entries:
            raise SchemaMismatch(f"{manifest_path}: duplicate (subject, position, "
                                 f"recording) key {record}")
        entries[record] = ManifestEntry(key=record, sample_rate=rate,
                                        csv=base / str(entry["file"]),
                                        name=str(entry["file"]))
    return Corpus(warnings=warnings, entries=list(entries.values()))


def load_csv(path: str | Path) -> Corpus:
    """``read_manifest``, then every record read and checked: each CSV is
    opened once, hashed and parsed or read from its ``.rows`` entry
    (``_read_recording_csv``), in one pooled pass."""
    corpus = read_manifest(path)
    corpus.records  # the cached read, now
    return corpus


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
        "schema_version": SCHEMA_VERSION,
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
            if not (math.isfinite(ps.phase_jitter) and ps.phase_jitter >= 0):
                raise ConfigError(f"phase_jitter must be finite and >= 0, "
                                  f"got {ps.phase_jitter}")


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
                              lead_s: float = 0.0) -> np.ndarray:
    """One body's raw vertical acceleration (gravity excluded), for direct
    quantizer/segmentation studies that do not need the IMU front end."""
    rng = np.random.default_rng(seed)
    n = int(round((n_cycles * base_period + lead_s) * sample_rate))
    z = _latent_walk(rng, n, sample_rate, base_period)
    if math.isfinite(snr_db):
        sigma = math.sqrt(float(np.var(z)) / (10.0 ** (snr_db / 10.0)))
        return z + rng.normal(0.0, sigma, size=n)
    return z


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
    duration = spec.n_cycles * spec.base_period + SYNTHETIC_LEAD_S
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


def sliding_windows(z: np.ndarray, window_cycles: int,
                    overlap: float = 0.5, rho: int = Config.rho,
                    detection: CycleDetection | None = None) -> list[Window]:
    """Cut a processed signal into runs of ``window_cycles`` full gait cycles,
    consecutive runs sharing ``overlap`` of their cycles.

    Windows are aligned to detected half-cycle boundaries, so every window
    covers an integer number of half cycles.  The record's cycles are
    resampled once, and each window's cycles are one read-only row of the
    view that ``GaitSequence.windows`` returns.
    """
    det = detection if detection is not None else detect_cycles(z)
    total_cycles = (det.minima_indices.shape[0] - 1) // 2
    if total_cycles < window_cycles:
        raise SignalTooShort(
            f"{total_cycles} cycles available, window needs {window_cycles}")
    starts, view = split_and_normalize(z, det, rho).windows(window_cycles, overlap)
    return [Window(start_cycle=start, sequence=GaitSequence(cycles=cycles, rho=rho))
            for start, cycles in zip(starts, view)]
