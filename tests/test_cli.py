import json
import shutil

import numpy as np
import pytest

from gaitpair import cli, errors
from gaitpair.config import Config
from gaitpair.dataset_io import (CACHE_DIR, CSV_COLUMNS, SyntheticGaitSpec,
                                 generate_synthetic, save_csv, sliding_windows)
from gaitpair.fingerprint import (average_cycle, quantize, reduce, reliability_order,
                                  similarity)
from gaitpair.protocol import SessionResult

from helpers import mixed_rate_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus = generate_synthetic(SyntheticGaitSpec(n_cycles=100, n_subjects=2,
                                                  rng_seed=21))
    save_csv(corpus, out)
    return out


@pytest.fixture(scope="module")
def preprocessed_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("pre")
    rc = cli.main(["preprocess", str(corpus_dir), str(out)])
    assert rc == 0
    return out


def test_synth_writes_manifest(tmp_path):
    rc = cli.main(["synth", str(tmp_path / "c"), "--subjects", "1",
                   "--cycles", "10", "--seed", "5"])
    assert rc == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert len(manifest["recordings"]) == 3


def test_preprocess_outputs_per_recording(preprocessed_dir):
    files = sorted(preprocessed_dir.glob("*.json"))
    assert len(files) == 6
    data = json.loads(files[0].read_text())
    assert set(data) == {"subject_id", "position", "recording_id",
                         "sample_rate_hz", "z"}
    assert len(data["z"]) > 1000


def test_preprocess_schema_error_names_columns(tmp_path, capsys):
    cols = [c for c in CSV_COLUMNS if c not in ("gy", "gz")]
    (tmp_path / "rec.csv").write_text(",".join(cols) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1,
        "recordings": [{"file": "rec.csv", "subject_id": "s",
                        "position": "waist", "recording_id": "0",
                        "sample_rate_hz": 50.0}]}))
    rc = cli.main(["preprocess", str(tmp_path), str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "gy" in err and "gz" in err


def test_preprocess_constant_trace_exits_3(tmp_path, capsys):
    rows = "\n".join(f"{i * 20},0,0,9.81,0,0,0" for i in range(600))
    (tmp_path / "rec.csv").write_text(",".join(CSV_COLUMNS) + "\n" + rows)
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1,
        "recordings": [{"file": "rec.csv", "subject_id": "s",
                        "position": "waist", "recording_id": "0",
                        "sample_rate_hz": 50.0}]}))
    rc = cli.main(["preprocess", str(tmp_path), str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "ZeroVariance" in err


def test_eval_constant_trace_exits_3(tmp_path, capsys):
    rows = "\n".join(f"{i * 20},0,0,9.81,0,0,0" for i in range(600))
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text(",".join(CSV_COLUMNS) + "\n" + rows)
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1,
        "recordings": [{"file": name, "subject_id": "s", "position": position,
                        "recording_id": "0", "sample_rate_hz": 50.0}
                       for name, position in (("a.csv", "waist"), ("b.csv", "chest"))]}))
    rc = cli.main(["eval", str(tmp_path), "--analysis", "discriminability",
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "ZeroVariance" in capsys.readouterr().err


def test_band_above_nyquist_of_recording_exits_3(corpus_dir, tmp_path, capsys):
    # 30 Hz lies above the 25 Hz Nyquist rate of the corpus's 50 Hz records
    rc = cli.main(["eval", str(corpus_dir), "--analysis", "discriminability",
                   "--band", "0.5:30", "--out", str(tmp_path / "eval")])
    assert rc == 3
    assert "InvalidBand" in capsys.readouterr().err
    rc = cli.main(["preprocess", str(corpus_dir), str(tmp_path / "pre"),
                   "--band", "0.5:30"])
    assert rc == 3
    assert "InvalidBand" in capsys.readouterr().err


def test_band_is_checked_against_each_recording_rate(tmp_path, capsys):
    corpus = tmp_path / "c100"
    assert cli.main(["synth", str(corpus), "--subjects", "2", "--cycles", "60",
                     "--seed", "4", "--sample-rate", "100"]) == 0
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert {r["sample_rate_hz"] for r in manifest["recordings"]} == {100.0}
    rc = cli.main(["eval", str(corpus), "--analysis", "discriminability",
                   "--band", "0.5:30", "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "discriminability.json").read_text())
    assert report["n_intra"] > 0 and report["n_inter"] > 0


@pytest.mark.parametrize("command", [["preprocess", "in", "out"],
                                     ["pair", "a.json", "b.json"],
                                     ["eval", "corpus", "--analysis", "coherence"]])
def test_only_synth_takes_sample_rate(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--sample-rate", "100"])
    assert exc.value.code == 2
    assert "--sample-rate" in capsys.readouterr().err


FLAG_VALUES = {"--rho": "20", "--bits-per-cycle": "2", "--fingerprint-bits": "160",
                "--cutoff": "96", "--threshold": "0.7", "--band": "1:10"}


UNREAD_FLAGS = [
    *((["synth", "out"], flag) for flag in FLAG_VALUES),
    *((["preprocess", "in", "out"], flag) for flag in FLAG_VALUES if flag != "--band"),
    (["pair", "a.json", "b.json"], "--band"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                         ids=[command[0] + flag for command, flag in UNREAD_FLAGS])
def test_commands_reject_config_flags_they_do_not_read(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + [flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def _config_handed_to_eval(monkeypatch, flags):
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args, cfg: seen.append(cfg) or 0)
    assert cli.main(["eval", "corpus", "--analysis", "coherence"] + flags) == 0
    return seen[0]


def test_eval_without_config_flags_builds_default_config(monkeypatch):
    assert _config_handed_to_eval(monkeypatch, []) == Config()


def test_eval_config_flags_set_their_fields(monkeypatch):
    flags = [part for item in FLAG_VALUES.items() for part in item]
    assert _config_handed_to_eval(monkeypatch, flags) == Config(
        rho=20, bits_per_cycle=2, fingerprint_bits=160, cutoff=96, threshold=0.7,
        band=(1.0, 10.0))


def _window_fingerprint(path, cfg):
    seq = sliding_windows(cli._signal_from_json(path), cfg.cycles_per_fingerprint,
                          overlap=0.5, rho=cfg.rho)[0].sequence
    return quantize(seq, average_cycle(seq), cfg.bits_per_cycle)


def test_pair_similarity_uses_the_initiators_order(preprocessed_dir, capsys):
    cfg = Config()
    a, b = sorted(preprocessed_dir.glob("s00_*.json"))[:2]
    fp_a, fp_b = _window_fingerprint(a, cfg), _window_fingerprint(b, cfg)
    under = {}
    for side, fp in (("initiator", fp_a), ("responder", fp_b)):
        order = reliability_order(fp)
        under[side] = similarity(reduce(fp_a, order, cfg.cutoff),
                                 reduce(fp_b, order, cfg.cutoff))
    assert under["initiator"] != under["responder"]
    for seed in range(4):
        # the first record is the initiator's, so its order applies
        for first, second, side in ((a, b, "initiator"), (b, a, "responder")):
            cli.main(["pair", str(first), str(second), "--insecure-session-seed",
                      str(seed)])
            out = json.loads(capsys.readouterr().out)
            assert out["similarity"] == under[side], (seed, side)


def test_pair_same_recording_is_deterministic(preprocessed_dir, capsys):
    rec = sorted(str(p) for p in preprocessed_dir.glob("*.json"))[0]
    rc = cli.main(["pair", rec, rec, "--insecure-session-seed", "11"])
    out = json.loads(capsys.readouterr().out)
    # identical input gives identical fingerprints; whether the session
    # establishes depends on the fingerprint being decodable at all
    assert out["similarity"] == pytest.approx(1.0)
    assert out["code"] == {"n": 127, "k": 22, "t": 23}
    if out["established"]:
        assert rc == 0 and out["secrets_equal"]
    else:
        assert rc == 4
        assert "decode" in (out["failure"]["initiator"] or "")


def test_pair_different_subjects_fails(preprocessed_dir, capsys):
    recs = sorted(str(p) for p in preprocessed_dir.glob("*.json"))
    a = next(r for r in recs if "s00" in r)
    b = next(r for r in recs if "s01" in r)
    rc = cli.main(["pair", a, b, "--insecure-session-seed", "12"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 4
    assert out["established"] is False
    assert out["similarity"] < 0.8


def test_pair_insufficient_cycles(preprocessed_dir, tmp_path, capsys):
    rec = sorted(preprocessed_dir.glob("*.json"))[0]
    data = json.loads(rec.read_text())
    data["z"] = data["z"][:600]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(data))
    rc = cli.main(["pair", str(short), str(short)])
    assert rc == 5


def test_pair_success_path_formatting(preprocessed_dir, capsys, monkeypatch):
    ok = SessionResult(established=True, secret=b"s" * 32, key=None,
                       corrected_errors=3)
    monkeypatch.setattr(cli, "run_pair_in_memory", lambda *a, **k: (ok, ok))
    rec = sorted(str(p) for p in preprocessed_dir.glob("*.json"))[0]
    rc = cli.main(["pair", rec, rec])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["established"] and out["secrets_equal"]
    assert out["decode"]["initiator_corrected_errors"] == 3


def test_eval_security_defaults(tmp_path, capsys):
    rc = cli.main(["eval", "--analysis", "security", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads((tmp_path / "security.json").read_text())
    assert report == {"tries_per_day": 432, "t": 25, "code_t": 23}
    assert "432" in out and "25" in out


def test_eval_unknown_analysis_is_usage_error(tmp_path):
    rc = cli.main(["eval", str(tmp_path), "--analysis", "nonsense"])
    assert rc == 64


def test_eval_requires_corpus_for_data_analyses():
    rc = cli.main(["eval", "--analysis", "discriminability"])
    assert rc == 64


def test_eval_discriminability_writes_reports(corpus_dir, tmp_path, capsys):
    rc = cli.main(["eval", str(corpus_dir), "--analysis", "discriminability",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "discriminability.json").read_text())
    assert report["intra"]["mean"] > report["inter"][
        list(report["inter"])[0]]["mean"]
    intra_csv = (tmp_path / "discriminability_intra.csv").read_text()
    assert intra_csv.startswith("subject_a,position_a,subject_b,position_b")
    assert len(intra_csv.splitlines()) == report["n_intra"] + 1


def test_eval_single_subject_insufficient(tmp_path, capsys):
    corpus = generate_synthetic(SyntheticGaitSpec(n_cycles=60, n_subjects=1,
                                                  rng_seed=9))
    cdir = tmp_path / "c"
    save_csv(corpus, cdir)
    rc = cli.main(["eval", str(cdir), "--analysis", "discriminability",
                   "--out", str(tmp_path / "r")])
    assert rc == 5


@pytest.mark.parametrize("analysis", ["coherence", "reliability", "discriminability",
                                      "positions", "randomness"])
def test_eval_on_an_empty_manifest_exits_insufficient_data(tmp_path, capsys, analysis):
    (tmp_path / "manifest.json").write_text(json.dumps({"recordings": []}))
    rc = cli.main(["eval", str(tmp_path), "--analysis", analysis,
                   "--out", str(tmp_path / "r")])
    assert rc == 5
    assert capsys.readouterr().err.startswith("insufficient data: ")


def test_eval_reliability_writes_sweep(corpus_dir, tmp_path):
    rc = cli.main(["eval", str(corpus_dir), "--analysis", "reliability",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "reliability.json").read_text())
    assert [e["extra_bits"] for e in report["entries"]] == [0, 16, 32, 48, 64, 128]
    assert (tmp_path / "reliability_M192.csv").exists()


def test_eval_coherence(corpus_dir, tmp_path):
    rc = cli.main(["eval", str(corpus_dir), "--analysis", "coherence",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "coherence.json").read_text())
    assert len(report["freqs"]) == len(report["mean_same_subject"])


def test_eval_positions(corpus_dir, tmp_path):
    rc = cli.main(["eval", str(corpus_dir), "--analysis", "positions",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "positions.json").read_text())
    k = len(report["positions"])
    matrix = np.asarray(report["matrix"])
    assert matrix.shape == (k, k)
    assert np.allclose(np.diag(matrix), 1.0)


def test_identical_seed_gives_byte_identical_outputs(tmp_path):
    args = ["--subjects", "1", "--cycles", "8", "--seed", "33"]
    assert cli.main(["synth", str(tmp_path / "a")] + args) == 0
    assert cli.main(["synth", str(tmp_path / "b")] + args) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    assert cli.main(["preprocess", str(tmp_path / "a"), str(tmp_path / "pa")]) == 0
    assert cli.main(["preprocess", str(tmp_path / "a"), str(tmp_path / "pb")]) == 0
    for p in (tmp_path / "pa").iterdir():
        assert p.read_bytes() == (tmp_path / "pb" / p.name).read_bytes()


def test_config_validated_before_io(tmp_path, capsys):
    missing = tmp_path / "does-not-exist"
    out = tmp_path / "out"
    rc = cli.main(["preprocess", str(missing), str(out), "--band", "banana"])
    assert rc == 64
    assert not out.exists()  # no partial outputs on invalid config
    rc = cli.main(["eval", str(missing), "--analysis", "discriminability",
                   "--out", str(out), "--cutoff", "300"])
    assert rc == 64
    assert not out.exists()


# -- exit-code map -------------------------------------------------------------------

@pytest.fixture(scope="module")
def long_signal(tmp_path_factory):
    """A preprocessed record of at least 100 detected cycles, enough for M = 400."""
    out = tmp_path_factory.mktemp("long")
    assert cli.main(["synth", str(out / "c"), "--subjects", "1", "--cycles", "260",
                     "--seed", "3", "--positions", "chest"]) == 0
    assert cli.main(["preprocess", str(out / "c"), str(out / "pre")]) == 0
    return next((out / "pre").glob("*.json"))


def _edit_line(name, index, change):
    def edit(corpus):
        lines = (corpus / name).read_text().splitlines(keepends=True)
        lines[index] = change(lines[index].rstrip("\n")) + "\n"
        (corpus / name).write_text("".join(lines))
    return edit


def _edit_manifest(change):
    def edit(corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        (corpus / "manifest.json").write_text(json.dumps(change(manifest)))
    return edit


def _not_utf8(at):
    """Insert bytes that are not UTF-8 at a fraction ``at`` of the CSV's length."""
    def edit(corpus):
        raw = (corpus / "rec_0000.csv").read_bytes()
        cut = int(len(raw) * at)
        (corpus / "rec_0000.csv").write_bytes(raw[:cut] + b"\xff\xfe" + raw[cut:])
    return edit


def _first_entry(**fields):
    return lambda m: {**m, "recordings": [{**m["recordings"][0], **fields}]}


#: id -> (edit of a copy of the corpus, file the error names)
CORPUS_FAULTS = {
    "non-numeric-row": (_edit_line("rec_0000.csv", 5, lambda _: "a,b,c,d,e,f,g"),
                        "rec_0000.csv"),
    "extra-column": (_edit_line("rec_0000.csv", 5, lambda row: row + ",0.0"),
                     "rec_0000.csv"),
    "missing-csv": (lambda corpus: (corpus / "rec_0001.csv").unlink(), "rec_0001.csv"),
    "not-utf8-header": (_not_utf8(0.0), "rec_0000.csv"),
    "not-utf8-body": (_not_utf8(0.5), "rec_0000.csv"),
    "rate-not-a-number": (_edit_manifest(_first_entry(sample_rate_hz="fast")),
                          "manifest.json"),
    "manifest-is-a-list": (_edit_manifest(lambda m: []), "manifest.json"),
    "entry-not-an-object": (_edit_manifest(lambda m: {**m, "recordings": [5]}),
                            "manifest.json"),
}

#: id -> (change to a preprocessed signal's JSON, exit code, stderr label)
SIGNAL_FAULTS = {
    "signal-is-a-list": (lambda d: d["z"], 2, "schema error"),
    "z-is-2d": (lambda d: {**d, "z": [[v, v] for v in d["z"]]}, 2, "schema error"),
    "three-samples": (lambda d: {**d, "z": d["z"][:3]}, 5, "insufficient data"),
    "rate-zero": (lambda d: {**d, "sample_rate_hz": 0}, 2, "schema error"),
    "rate-negative": (lambda d: {**d, "sample_rate_hz": -50.0}, 2, "schema error"),
    "rate-nan": (lambda d: {**d, "sample_rate_hz": float("nan")}, 2, "schema error"),
    "z-nan": (lambda d: {**d, "z": [float("nan")] + d["z"][1:]}, 2, "schema error"),
    "z-inf": (lambda d: {**d, "z": d["z"][:-1] + [float("-inf")]}, 2, "schema error"),
}

#: id -> argv from (corpus, long signal, output dir); each is a config error, exit 64
CONFIG_FAULTS = {
    "pair-M400-over-wire-limit": lambda corpus, signal, out: [
        "pair", signal, signal, "--fingerprint-bits", "400", "--cutoff", "128"],
    "pair-negative-cutoff": lambda corpus, signal, out: [
        "pair", signal, signal, "--fingerprint-bits", "-4", "--cutoff", "-8"],
    "eval-cutoff-zero": lambda corpus, signal, out: [
        "eval", corpus, "--analysis", "discriminability", "--cutoff", "0", "--out", out],
    "eval-security-zero-seconds": lambda corpus, signal, out: [
        "eval", "--analysis", "security", "--session-seconds", "0", "--out", out],
    # no code exists for an error rate 1 - threshold >= 0.5, nor shorter than 7 bits
    "pair-threshold-below-half": lambda corpus, signal, out: [
        "pair", signal, signal, "--threshold", "0.4"],
    "pair-cutoff-3": lambda corpus, signal, out: [
        "pair", signal, signal, "--cutoff", "3"],
    "eval-security-threshold-half": lambda corpus, signal, out: [
        "eval", "--analysis", "security", "--threshold", "0.5", "--out", out],
}

MALFORMED = [
    *(pytest.param("corpus", (command, fault), id=f"{command}-{fault}")
      for fault in CORPUS_FAULTS for command in ("eval", "preprocess")),
    *(pytest.param("signal", fault, id=f"pair-{fault}") for fault in SIGNAL_FAULTS),
    *(pytest.param("config", fault, id=fault) for fault in CONFIG_FAULTS),
]


@pytest.mark.parametrize("kind,case", MALFORMED)
def test_malformed_input_exits_with_its_code(kind, case, corpus_dir, preprocessed_dir,
                                             long_signal, tmp_path, capsys):
    names = None
    if kind == "corpus":
        command, fault = case
        edit, names = CORPUS_FAULTS[fault]
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus, ignore=shutil.ignore_patterns(CACHE_DIR))
        edit(corpus)
        argv = (["eval", str(corpus), "--analysis", "discriminability", "--out"]
                if command == "eval" else ["preprocess", str(corpus)])
        argv, code, label = argv + [str(tmp_path / "out")], 2, "schema error"
    elif kind == "signal":
        change, code, label = SIGNAL_FAULTS[case]
        good = sorted(preprocessed_dir.glob("*.json"))[0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(change(json.loads(good.read_text()))))
        argv, names = ["pair", str(bad), str(good)], "bad.json"
    else:
        argv = CONFIG_FAULTS[case](str(corpus_dir), str(long_signal), str(tmp_path / "out"))
        code, label = 64, "config error"
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == code, err
    assert err.startswith(label + ": "), err
    assert "Traceback" not in err
    if label == "schema error":  # a schema error names the malformed file
        assert names in err
    if label == "config error":  # found before any output is written
        assert not (tmp_path / "out").exists()


def test_code_choice_comes_before_any_record_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    rc = cli.main(["pair", missing, missing, "--cutoff", "3"])
    err = capsys.readouterr().err
    assert rc == 64, err
    assert err.startswith("config error: NoSuitableCode: "), err


def test_csv_parse_error_names_the_file_line(corpus_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus, ignore=shutil.ignore_patterns(CACHE_DIR))
    _edit_line("rec_0000.csv", 2, lambda _: "a,b,c,d,e,f,g")(corpus)  # file line 3
    rc = cli.main(["eval", str(corpus), "--analysis", "discriminability",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("schema error: SchemaMismatch: rec_0000.csv: line 3: "), err
    assert "Traceback" not in err


def test_csv_not_utf8_names_the_file_line(corpus_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus, ignore=shutil.ignore_patterns(CACHE_DIR))
    lines = (corpus / "rec_0000.csv").read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:5] + b"\xff" + lines[3][5:]  # file line 4
    (corpus / "rec_0000.csv").write_bytes(b"".join(lines))
    rc = cli.main(["eval", str(corpus), "--analysis", "discriminability",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("schema error: SchemaMismatch: rec_0000.csv: line 4: "), err
    assert "Traceback" not in err


def test_preprocess_below_the_gravity_cutoff_is_a_signal_error(tmp_path, capsys):
    # at 0.5 Hz the Nyquist frequency, 0.25 Hz, lies below the 0.3 Hz cutoff
    assert cli.main(["synth", str(tmp_path / "c"), "--subjects", "1",
                     "--cycles", "20", "--sample-rate", "0.5"]) == 0
    capsys.readouterr()
    rc = cli.main(["preprocess", str(tmp_path / "c"), str(tmp_path / "pre")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "InvalidBand: sample rate 0.5 Hz" in err and "0.3 Hz" in err, err
    assert "Traceback" not in err


def test_preprocess_record_within_the_bandpass_padding_exits_3(tmp_path, capsys):
    # 25 samples at 10 Hz pass the 2 s warm-up but not the bandpass's padding
    corpus = tmp_path / "c"
    assert cli.main(["synth", str(corpus), "--subjects", "1", "--cycles", "20",
                     "--sample-rate", "10"]) == 0
    capsys.readouterr()
    lines = (corpus / "rec_0000.csv").read_text().splitlines(keepends=True)
    (corpus / "rec_0000.csv").write_text("".join(lines[:26]))
    rc = cli.main(["preprocess", str(corpus), str(tmp_path / "pre"), "--band", "0.5:3"])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "EmptyStream: record 'r0' has 25 samples, too few for the bandpass" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--base-period", "0"), ("--base-period", "nan"),
                                        ("--sample-rate", "0"), ("--cycles", "0"),
                                        ("--subjects", "-1"), ("--snr-db", "nan")])
def test_synth_rejects_a_meaningless_corpus(flag, value, tmp_path, capsys):
    rc = cli.main(["synth", str(tmp_path / "out"), flag, value])
    err = capsys.readouterr().err
    assert rc == 64, err
    assert err.startswith("config error: ConfigError: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


#: exit code -> every error class it covers, as the errors module documents
EXIT_FAMILIES = {
    64: {"ConfigError", "NoSuitableCode"},
    2: {"SchemaMismatch", "MissingColumns", "NonMonotoneTimestamps"},
    5: {"InsufficientData", "SignalTooShort", "InsufficientPairs", "InsufficientBits",
        "MissingPosition", "MixedSampleRates", "TooFewKeys"},
    3: {"GaitPairError", "EmptyStream", "NonFiniteSample", "LengthMismatch",
        "InvalidBand", "UnstableFilter", "ZeroVariance", "TooFewMaxima",
        "NoPeriodicity", "CycleTooShort", "TooFewCycles", "IndivisibleSegments",
        "CutoffTooLarge", "DecodeFailure", "ProtocolError",
        "MalformedMessage", "ConfirmMismatch"},
}


def test_every_error_class_exits_with_its_family_code(monkeypatch, capsys):
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.GaitPairError)}
    assert set(classes) == set().union(*EXIT_FAMILIES.values())
    for code, names in EXIT_FAMILIES.items():
        for name in names:
            def fail(args, cfg, cls=classes[name]):
                raise cls("probe")
            monkeypatch.setattr(cli, "cmd_eval", fail)
            assert cli.main(["eval", "corpus", "--analysis", "coherence"]) == code, name
            assert f": {name}: probe" in capsys.readouterr().err


def test_pair_window_must_exist_on_both_records(preprocessed_dir, tmp_path, capsys):
    # a negative index would pick each record's last window, and records with
    # different window counts would then be paired on different indices
    missing = str(tmp_path / "missing.json")
    assert cli.main(["pair", missing, missing, "--window", "-1"]) == 64
    assert "--window" in capsys.readouterr().err
    rec = str(sorted(preprocessed_dir.glob("*.json"))[0])
    assert cli.main(["pair", rec, rec, "--window", "99"]) == 5
    assert capsys.readouterr().err.startswith("insufficient data: SignalTooShort")


def test_pair_rejects_a_negative_session_seed_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert cli.main(["pair", missing, missing, "--insecure-session-seed", "-1"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("config error: ConfigError: --insecure-session-seed")
    assert "Traceback" not in err


def test_pair_over_the_wire_limit_names_it(long_signal, capsys):
    # 65 cycles of b = 4 bits: a window exists, but its order cannot go on the wire
    rc = cli.main(["pair", str(long_signal), str(long_signal), "--fingerprint-bits", "260"])
    err = capsys.readouterr().err
    assert rc == 64, err
    assert err.startswith("config error: ConfigError: M=260 exceeds the wire encoding "
                          "limit of 256"), err


def test_coherence_on_mixed_sample_rates_exits_insufficient_data(tmp_path, capsys):
    save_csv(mixed_rate_corpus(), tmp_path / "mixed")
    rc = cli.main(["eval", str(tmp_path / "mixed"), "--analysis", "coherence",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 5, err
    assert err.startswith("insufficient data: MixedSampleRates: "), err
    assert "50 Hz, 100 Hz" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "coherence.json").exists()


def test_corpus_warnings_go_to_stderr(corpus_dir, tmp_path, capsys):
    corpus = tmp_path / "osaka"
    shutil.copytree(corpus_dir, corpus, ignore=shutil.ignore_patterns(CACHE_DIR))
    _edit_manifest(lambda m: {**m, "dataset_family": "osaka",
                              "warnings": ["left unit re-strapped"]})(corpus)

    def assert_warnings(err):
        first, *osaka = err.splitlines()
        assert first == "warning: left unit re-strapped"
        assert len(osaka) == 2 and all(w.startswith("warning: osaka: ") for w in osaka)

    assert cli.main(["preprocess", str(corpus), str(tmp_path / "pre")]) == 0
    out, err = capsys.readouterr()
    assert_warnings(err)
    assert all(line.startswith("ok [") for line in out.splitlines())
    assert cli.main(["eval", str(corpus), "--analysis", "coherence",
                     "--out", str(tmp_path / "eval")]) == 0
    out, err = capsys.readouterr()
    assert_warnings(err)
    assert set(json.loads(out)) == {"n_same_pairs", "n_diff_pairs", "low_band_elevated"}
