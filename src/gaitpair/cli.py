"""Command-line entry point: preprocess recordings, pair two of them with both
ends in one process, run evaluation analyses, or generate a synthetic corpus.

Exit codes: 0 success, 4 pairing failure, and ``EXIT_CODES`` for every error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
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
from .signals import VerticalSignal, preprocess_record

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
            "randomness", "security")


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

def _signal_to_json(sig: VerticalSignal) -> dict:
    return {
        "subject_id": sig.subject_id,
        "position": sig.position,
        "recording_id": sig.recording_id,
        "sample_rate_hz": sig.sample_rate,
        "z": [float(v) for v in sig.z],
    }


def _signal_from_json(path: Path) -> VerticalSignal:
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
    return VerticalSignal(
        sample_rate=sample_rate,
        z=z,
        subject_id=str(data.get("subject_id", "")),
        position=str(data.get("position", "other")),
        recording_id=str(data.get("recording_id", "0")),
    )


def _load_corpus(path: str) -> dataset_io.Corpus:
    corpus = dataset_io.load_csv(path)
    for text in corpus.warnings:
        print(f"warning: {text}", file=sys.stderr)
    return corpus


def cmd_preprocess(args: argparse.Namespace, cfg: Config) -> int:
    corpus = _load_corpus(args.input)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for rec in corpus.records:
        label = f"{rec.subject_id}/{rec.position}/{rec.recording_id}"
        try:
            sig = preprocess_record(rec, band=cfg.band)
            detect_cycles(sig)  # surface undetectable-gait diagnostics early
        except GaitPairError as exc:
            failures += 1
            print(f"signal error [{label}]: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            continue
        name = f"{rec.subject_id}_{rec.position}_{rec.recording_id}.json"
        with open(out_dir / name.replace("/", "-"), "w", encoding="utf-8") as fh:
            json.dump(_signal_to_json(sig), fh)
        print(f"ok [{label}] -> {name}")
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
    sig_a = _signal_from_json(Path(args.record_a))
    sig_b = _signal_from_json(Path(args.record_b))
    q = cfg.cycles_per_fingerprint
    wins_a = dataset_io.sliding_windows(sig_a, q, overlap=0.5, rho=cfg.rho)
    wins_b = dataset_io.sliding_windows(sig_b, q, overlap=0.5, rho=cfg.rho)
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
    # both ends apply; None for a result that holds no applied order
    applied = res_a.applied_order
    diag_similarity = None
    if applied is not None:
        fp_a, fp_b = (compute_fingerprint(seq, cfg.bits_per_cycle)[0]
                      for seq in (seq_a, seq_b))
        diag_similarity = similarity(reduce(fp_a, applied, cfg.cutoff),
                                     reduce(fp_b, applied, cfg.cutoff))

    result = {
        "established": bool(res_a.established and res_b.established),
        "similarity": diag_similarity,
        "code": {"n": params.n, "k": params.k, "t": params.t},
        "decode": {
            "initiator_corrected_errors": res_a.corrected_errors,
            "responder_corrected_errors": res_b.corrected_errors,
        },
        "failure": {"initiator": res_a.failure, "responder": res_b.failure},
        "secrets_equal": bool(
            res_a.established and res_b.established
            and res_a.secret == res_b.secret),
        "elapsed_s": elapsed,
    }
    print(json.dumps(result, indent=2))
    return EXIT_OK if result["established"] else EXIT_PAIRING


# -- eval ------------------------------------------------------------------------------

def _write_json(path: Path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_value(report), fh, indent=2)


def _json_value(value):
    """A report as JSON values: a dataclass's fields in order, arrays as
    lists, nested reports, dicts and lists walked.  The ``repr=False``
    fields, the raw pair lists that go to CSV, are left out."""
    if dataclasses.is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.repr}
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _write_pairs_csv(path: Path, pairs) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
        report = eval_harness.security_arithmetic(args.session_seconds,
                                                  cfg.threshold, cfg.cutoff)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "security.json", report)
        print(json.dumps(report, indent=2))
        return EXIT_OK

    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = _load_corpus(args.corpus)
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
    elif args.analysis == "randomness":
        keys = eval_harness.fingerprint_keys(corpus, cfg)
        rep = eval_harness.randomness_suite(keys)
        _write_json(out_dir / "randomness.json", rep)
        summary = {"passed": rep.passed, **rep.p_values}
    print(json.dumps(summary, indent=2))
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
    manifest = dataset_io.save_csv(corpus, args.out)
    print(f"wrote {len(corpus.records)} recordings, manifest {manifest}")
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
                        help="session length used by the security analysis")
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
