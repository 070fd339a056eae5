"""Command-line entry point: preprocess recordings, pair two of them with both
ends in one process, run evaluation analyses, or generate a synthetic corpus.

Exit codes: 0 success, 4 pairing failure, and ``EXIT_CODES`` for every error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dataset_io, eval_harness
from .config import Config
from .errors import (ConfigError, GaitPairError, InsufficientData, SchemaMismatch,
                     SignalTooShort)
from .fingerprint import compute_fingerprint, reduce, similarity
from .gait import detect_cycles
from .protocol import run_pair_in_memory, session_code_params
from .signals import ImuRecord, preprocess_record

EXIT_OK = 0
EXIT_SIGNAL = 3
EXIT_PAIRING = 4

#: (error family, exit code, stderr label); the first family that matches wins
EXIT_CODES = (
    (ConfigError, 64, "config error"),
    (SchemaMismatch, 2, "schema error"),
    (InsufficientData, 5, "insufficient data"),
    (GaitPairError, EXIT_SIGNAL, "signal error"),
)

ANALYSES = ("coherence", "reliability", "discriminability", "positions",
            "guesswork", "security")


#: Config field -> (flag type, help); every default lives in ``Config``.
CONFIG_FLAGS = {
    "rho": (int, "samples per normalized gait cycle"),
    "bits_per_cycle": (int, "fingerprint bits per gait cycle"),
    "fingerprint_bits": (int, "total fingerprint length M"),
    "cutoff": (int, "reliability cutoff N"),
    "threshold": (float, "similarity required for pairing"),
    "band": (str, "bandpass corners as lo:hi in Hz"),
}


def _add_config_flags(parser: argparse.ArgumentParser, *fields: str) -> None:
    """Add the flags of ``fields``; an unset flag leaves its ``Config``
    default in place."""
    for name in fields:
        kind, text = CONFIG_FLAGS[name]
        parser.add_argument("--" + name.replace("_", "-"), type=kind, help=text,
                            default=argparse.SUPPRESS)


def _config_from_args(args: argparse.Namespace) -> Config:
    given = {name: getattr(args, name) for name in CONFIG_FLAGS if hasattr(args, name)}
    if "band" in given:
        try:
            lo_s, hi_s = given["band"].split(":")
            given["band"] = (float(lo_s), float(hi_s))
        except ValueError:
            raise ConfigError(f"--band must look like lo:hi, got {given['band']!r}")
    return Config(**given)


# -- preprocess -----------------------------------------------------------------------

def _signal_to_json(rec: ImuRecord, z: np.ndarray) -> dict:
    return {
        "subject_id": rec.subject_id,
        "position": rec.position,
        "recording_id": rec.recording_id,
        "sample_rate_hz": rec.sample_rate,
        "z": [float(v) for v in z],
    }


def _signal_from_json(path: Path) -> np.ndarray:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        sample_rate = float(data["sample_rate_hz"])
        z = np.asarray(data["z"], dtype=float)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise SchemaMismatch(f"{path}: not a preprocessed signal: {exc!r}") from exc
    if z.ndim != 1:
        raise SchemaMismatch(f"{path}: 'z' is not a list of numbers")
    if not np.isfinite(z).all():
        raise SchemaMismatch(f"{path}: 'z' holds a NaN or infinite sample")
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise SchemaMismatch(f"{path}: sample_rate_hz {sample_rate} is not a "
                             "positive finite rate")
    return z


def _print(text: str) -> None:
    """Print ``text`` to stdout.  A closed stdout costs only the text: stdout
    is pointed at the null device and the command goes on to its exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _make_dir(path: Path) -> None:
    """Create an output directory; one that cannot be made is a usage error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc.strerror}") from exc


@contextlib.contextmanager
def _output_file(path: Path, newline: str | None = None):
    """``path`` opened for writing text; one that cannot be opened or written
    is a usage error naming it, as a directory is in ``_make_dir``."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from exc


def _warned(corpus: dataset_io.Corpus) -> dataset_io.Corpus:
    for text in corpus.warnings:
        print(f"warning: {text}", file=sys.stderr)
    return corpus


def cmd_preprocess(args: argparse.Namespace, cfg: Config) -> int:
    # the manifest alone: every output name is checked before any CSV is read
    corpus = _warned(dataset_io.read_manifest(args.input))
    labels: dict[str, str] = {}  # output name -> record
    for subject, position, recording in corpus.keys:
        label = f"{subject}/{position}/{recording}"
        name = f"{subject}_{position}_{recording}.json".replace("/", "-")
        try:
            refused = "\0" in name or len(os.fsencode(name)) > 255
        except UnicodeEncodeError:  # a lone surrogate
            refused = True
        if refused:
            raise SchemaMismatch(f"{args.input}: record {label!r} would write {name!r}, "
                                 "a file name the OS refuses (a NUL byte, a lone "
                                 "surrogate or over 255 bytes)")
        if name in labels:
            raise SchemaMismatch(f"{args.input}: records {labels[name]} and {label} "
                                 f"would both write {name}")
        labels[name] = label
    out_dir = Path(args.output)
    _make_dir(out_dir)
    failures = 0
    for rec, (name, label) in zip(corpus.records, labels.items()):
        try:
            z = preprocess_record(rec, band=cfg.band)
            detect_cycles(z)  # surface undetectable-gait diagnostics early
        except GaitPairError as exc:
            failures += 1
            print(f"signal error [{label}]: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            continue
        with _output_file(out_dir / name) as fh:
            json.dump(_signal_to_json(rec, z), fh)
        _print(f"ok [{label}] -> {name}")
    if failures:
        print(f"{failures} recording(s) failed", file=sys.stderr)
        return EXIT_SIGNAL
    return EXIT_OK


# -- pair ------------------------------------------------------------------------------

def cmd_pair(args: argparse.Namespace, cfg: Config) -> int:
    if args.window < 0:
        raise ConfigError(f"--window must be >= 0, got {args.window}")
    if args.insecure_session_seed is not None and args.insecure_session_seed < 0:
        raise ConfigError(f"--insecure-session-seed must be >= 0, "
                          f"got {args.insecure_session_seed}")
    params = session_code_params(cfg)  # a threshold or cutoff with no code fails here
    z_a = _signal_from_json(Path(args.record_a))
    z_b = _signal_from_json(Path(args.record_b))
    q = cfg.cycles_per_fingerprint
    wins_a = dataset_io.sliding_windows(z_a, q, overlap=0.5, rho=cfg.rho)
    wins_b = dataset_io.sliding_windows(z_b, q, overlap=0.5, rho=cfg.rho)
    if args.window >= min(len(wins_a), len(wins_b)):
        raise SignalTooShort(f"no window {args.window}: the records have "
                             f"{len(wins_a)} and {len(wins_b)} windows")
    seq_a = wins_a[args.window].sequence
    seq_b = wins_b[args.window].sequence

    t0 = time.monotonic()
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg,
                                      seed=args.insecure_session_seed)
    elapsed = time.monotonic() - t0

    # out-of-band diagnostic: similarity under the initiator's order, the one
    # both ends apply
    (fp_a, order), (fp_b, _) = (compute_fingerprint(seq, cfg.bits_per_cycle)
                                for seq in (seq_a, seq_b))
    diag_similarity = similarity(reduce(fp_a, order, cfg.cutoff),
                                 reduce(fp_b, order, cfg.cutoff))

    result = {
        "established": bool(res_a.established and res_b.established),
        "similarity": diag_similarity,
        "code": {"n": params.n, "k": params.k, "t": params.t},
        "decode": {"responder_corrected_errors":
                   None if res_b.key is None else res_b.key.corrected_errors},
        "failure": {"initiator": res_a.failure, "responder": res_b.failure},
        "secrets_equal": bool(
            res_a.established and res_b.established
            and res_a.secret == res_b.secret),
        "elapsed_s": elapsed,
    }
    _print(json.dumps(result, indent=2))
    return EXIT_OK if result["established"] else EXIT_PAIRING


# -- eval ------------------------------------------------------------------------------

def _write_json(path: Path, report) -> None:
    with _output_file(path) as fh:
        json.dump(_json_value(report), fh, indent=2, allow_nan=False)


def _json_value(value):
    """A report as strict JSON values: a dataclass's fields in order, arrays
    as lists, containers walked, and a NaN or infinite float as None.  The
    ``repr=False`` fields, the raw pair lists that go to CSV, are left out."""
    if dataclasses.is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.repr}
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return _json_value(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_pairs_csv(path: Path, pairs) -> None:
    with _output_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_a", "position_a", "subject_b", "position_b",
                         "window", "similarity"])
        for p in pairs:
            writer.writerow([p.subject_a, p.position_a, p.subject_b,
                             p.position_b, p.window, repr(p.value)])


def cmd_eval(args: argparse.Namespace, cfg: Config) -> int:
    if args.analysis not in ANALYSES:
        raise ConfigError(f"unknown analysis {args.analysis!r}; choose from {ANALYSES}")
    if args.analysis != "security" and not args.corpus:
        raise ConfigError("eval (other than --analysis security) requires a corpus path")
    out_dir = Path(args.out)
    if args.analysis == "security":
        report = eval_harness.security_arithmetic(args.session_seconds, cfg)
        _make_dir(out_dir)
        _write_json(out_dir / "security.json", report)
        _print(json.dumps(report, indent=2))
        return EXIT_OK
    if args.analysis == "reliability":  # the flag-only faults, before any I/O
        eval_harness.sweep_sizes(cfg)
    elif args.analysis == "guesswork":
        tries = eval_harness.security_arithmetic(args.session_seconds,
                                                 cfg)["tries_per_day"]
        eval_harness.guesswork_code(cfg)

    _make_dir(out_dir)
    # the manifest alone: an analysis reads the samples it needs (``Corpus``)
    corpus = _warned(dataset_io.read_manifest(args.corpus))
    if args.analysis == "coherence":
        rep = eval_harness.coherence_analysis(corpus, cfg)
        _write_json(out_dir / "coherence.json", rep)
        summary = {"n_same_pairs": rep.n_same_pairs,
                   "n_diff_pairs": rep.n_diff_pairs,
                   "low_band_elevated": rep.low_band_elevated}
    elif args.analysis == "reliability":
        rep = eval_harness.reliability_sweep(corpus, cfg=cfg)
        _write_json(out_dir / "reliability.json", rep)
        for entry in rep.entries:
            _write_pairs_csv(out_dir / f"reliability_M{entry.M}.csv", entry.pairs)
        summary = {f"mean_M{e.M}": e.summary.mean for e in rep.entries}
    elif args.analysis == "discriminability":
        rep = eval_harness.discriminability(corpus, cfg=cfg)
        _write_json(out_dir / "discriminability.json", rep)
        _write_pairs_csv(out_dir / "discriminability_intra.csv", rep.intra_pairs)
        _write_pairs_csv(out_dir / "discriminability_inter.csv", rep.inter_pairs)
        summary = {"intra_mean": rep.intra.mean,
                   "inter_mean": float(np.mean([p.value for p in rep.inter_pairs])),
                   "collision_rate": rep.collision_rate_above_threshold}
    elif args.analysis == "positions":
        rep = eval_harness.position_table(corpus, cfg=cfg)
        _write_json(out_dir / "positions.json", rep)
        summary = {"positions": ";".join(rep.positions)}
    elif args.analysis == "guesswork":
        rep = eval_harness.key_guesswork(corpus, cfg, tries_per_day=tries)
        _write_json(out_dir / "guesswork.json", rep)
        summary = {"n_windows": rep.n_windows, "within_2": rep.within_2,
                   "within_tries_per_day": rep.within_tries_per_day,
                   "within_2_16": rep.within_2_16,
                   "median_log2_rank": rep.median_log2_rank}
    _print(json.dumps(summary, indent=2))
    return EXIT_OK


# -- synth -----------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace, cfg: Config) -> int:
    positions = tuple(p.strip() for p in args.positions.split(",") if p.strip())
    if not positions:
        raise ConfigError("no positions given")
    spec = dataset_io.SyntheticGaitSpec(
        base_period=args.base_period,
        n_cycles=args.cycles,
        per_position=tuple(
            (p, dataset_io.PositionSpec(noise_snr_db=args.snr_db)) for p in positions),
        rng_seed=args.seed,
        n_subjects=args.subjects,
        sample_rate=args.sample_rate,
    )
    corpus = dataset_io.generate_synthetic(spec)
    _make_dir(Path(args.out))
    try:
        manifest = dataset_io.save_csv(corpus, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {exc.filename or args.out}: "
                          f"{exc.strerror}") from exc
    _print(f"wrote {len(corpus.records)} recordings, manifest {manifest}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitpair",
        description="Gait-based device pairing: preprocessing, pairing, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pre = sub.add_parser("preprocess", help="IMU CSV corpus -> vertical signals")
    p_pre.add_argument("input", help="corpus directory or manifest.json")
    p_pre.add_argument("output", help="output directory")
    _add_config_flags(p_pre, "band")
    p_pre.set_defaults(func=cmd_preprocess)

    p_pair = sub.add_parser("pair", help="pair two preprocessed recordings")
    p_pair.add_argument("record_a", help="preprocessed JSON (initiator)")
    p_pair.add_argument("record_b", help="preprocessed JSON (responder)")
    p_pair.add_argument("--window", type=int, default=0,
                        help="window index to pair on")
    p_pair.add_argument("--insecure-session-seed", type=int, default=None,
                        help="INSECURE: derive the session nonces from this "
                             "seed (reproducible sessions for testing only)")
    _add_config_flags(p_pair, "rho", "bits_per_cycle", "fingerprint_bits", "cutoff",
                      "threshold")
    p_pair.set_defaults(func=cmd_pair)

    p_eval = sub.add_parser("eval", help="run an evaluation analysis")
    p_eval.add_argument("corpus", nargs="?", default=None,
                        help="corpus directory or manifest.json")
    p_eval.add_argument("--analysis", required=True,
                        help=f"one of {', '.join(ANALYSES)}")
    p_eval.add_argument("--out", default=".", help="report output directory")
    p_eval.add_argument("--session-seconds", type=float, default=200.0,
                        help="session length used by the security and guesswork analyses")
    _add_config_flags(p_eval, *CONFIG_FLAGS)
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("out", help="output directory")
    p_synth.add_argument("--subjects", type=int, default=2)
    p_synth.add_argument("--positions", default="chest,forearm,waist")
    p_synth.add_argument("--cycles", type=int, default=60)
    p_synth.add_argument("--base-period", type=float, default=2.0)
    p_synth.add_argument("--snr-db", type=float, default=20.0)
    p_synth.add_argument("--seed", type=int, default=0,
                         help="seed of the synthetic corpus")
    p_synth.add_argument("--sample-rate", type=float, default=50.0,
                         help="sample rate of the generated recordings in Hz")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)  # validate before touching files
        return args.func(args, cfg)
    except GaitPairError as exc:
        code, label = next((code, label) for family, code, label in EXIT_CODES
                           if isinstance(exc, family))
        print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
