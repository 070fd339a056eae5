"""The benchmark's three workloads: inputs, one op, and its correctness checks.

Each workload builds its inputs from the workload seed; the program only sees
the generated inputs.  ``prepare(i)`` does the untimed work for op ``i`` and
returns the callable that is timed; ``check(i, result)`` returns the list of
broken checks for that op.  Calls go through module attributes so that the
traced run's probes see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from gaitpair import cli, dataset_io, fuzzy_ecc, gait, protocol, signals
from gaitpair.config import Config
from gaitpair.errors import DecodeFailure
from gaitpair.fingerprint import (average_cycle, quantize, reduce,
                                  reliability_order, similarity)

CFG = Config()
PARAMS = protocol.session_code_params(CFG)
# Seeds of generated batches and sessions are ``seed * STRIDE + index``, so no
# two inputs of one run share a seed.
STRIDE = 1_000_003
WARMUP = STRIDE - 1
# ``intra_similarity_mean`` is taken on a fixed set of same-body pairs, so it
# repeats exactly across workload seeds and a small change in it shows.
REFERENCE_SEED = 7
REFERENCE_PAIRS = 60


def mean(values) -> float | None:
    return float(np.mean(values)) if len(values) else None


def same_body_similarity(seq_a, seq_b) -> float:
    """Reduced-fingerprint similarity under the initiator's ordering."""
    fp_a = quantize(seq_a, average_cycle(seq_a), CFG.bits_per_cycle)
    fp_b = quantize(seq_b, average_cycle(seq_b), CFG.bits_per_cycle)
    order = reliability_order(fp_a)
    return similarity(reduce(fp_a, order, CFG.cutoff), reduce(fp_b, order, CFG.cutoff))


class Workload:
    """Defaults for the optional hooks of a workload."""

    def finish(self) -> list[str]:
        """Checks made once after the measured ops."""
        return []

    def notes(self) -> list[str]:
        """Observations to print that are not metrics."""
        return []


def session_problems(res_a, res_b) -> list[str]:
    """Checks every session must pass, whatever its outcome.  A decode
    failure or an abort is an expected outcome when both ends agree on it."""
    if res_a.established != res_b.established:
        return [f"one end established: A={res_a.failure!r} B={res_b.failure!r}"]
    if res_a.established and (res_a.secret is None or res_a.secret != res_b.secret):
        return ["ends established with different secrets"]
    return []


# -- pair-attempt ---------------------------------------------------------------------

class PairAttempt(Workload):
    """IMU records to a session: fusion, bandpass, cycles, window, handshake.

    Records are short (one 48-cycle window), so fixed per-call costs weigh.
    Every three ops use one fresh six-record corpus (2 subjects x 3
    positions): two same-body attempts on different positions and one
    cross-body attempt on the same position.  No record is used twice.
    The establish rates cover the first ``min_ops`` ops, which every run
    makes, so they do not depend on how many ops fit in the run.
    """

    name = "pair-attempt"
    min_ops = 100
    SLOTS = ((0, 1, True), (3, 4, True), (2, 5, False))  # record a, record b, same body

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.records = []
        self.outcomes = {True: [], False: []}

    def _batch(self, index: int) -> list:
        spec = dataset_io.SyntheticGaitSpec(n_cycles=52, n_subjects=2,
                                            rng_seed=self.seed * STRIDE + index)
        return dataset_io.generate_synthetic(spec).records

    def setup(self) -> None:
        warm = self._batch(WARMUP)
        for a, b, _ in self.SLOTS:
            self._attempt(warm[a], warm[b], session_seed=0)

    @staticmethod
    def _attempt(rec_a, rec_b, session_seed: int):
        seqs = []
        for rec in (rec_a, rec_b):
            sig = signals.preprocess_record(rec, band=CFG.band)
            det = gait.detect_cycles(sig)
            wins = dataset_io.sliding_windows(
                sig, CFG.cycles_per_fingerprint, overlap=0.5, rho=CFG.rho,
                detection=det)
            seqs.append(wins[0].sequence)
        return seqs, protocol.run_pair_in_memory(seqs[0], seqs[1], CFG,
                                                 seed=session_seed)

    def prepare(self, i: int):
        batch, slot = divmod(i, len(self.SLOTS))
        if slot == 0:
            self.records = self._batch(batch)
        a, b, _ = self.SLOTS[slot]
        rec_a, rec_b = self.records[a], self.records[b]
        return lambda: self._attempt(rec_a, rec_b, self.seed * STRIDE + i)

    def check(self, i: int, result) -> list[str]:
        _, (res_a, res_b) = result
        same_body = self.SLOTS[i % len(self.SLOTS)][2]
        problems = session_problems(res_a, res_b)
        if not same_body and (res_a.established or res_b.established):
            problems.append("cross-body attempt established")
        if i < self.min_ops:
            self.outcomes[same_body].append(res_a.established and res_b.established)
        return problems

    def behaviour(self) -> dict:
        return {"intra_establish_rate": mean(self.outcomes[True]),
                "inter_establish_rate": mean(self.outcomes[False])}


# -- handshake ------------------------------------------------------------------------

PAYLOAD_MAGNITUDE = 1000.0


def _codeword_cycles(word: np.ndarray, rng: np.random.Generator):
    """Cycles whose fingerprint ranks ``word`` first, in order, by reliability.

    With cycles constant per segment and zero column means, the quantizer's
    delta for cycle i, segment j is exactly ``-seg * cycles[i, j]``.  Slot
    r = i * b + j of the first n carries bit r of the word with magnitude
    above every other slot, strictly decreasing in r; the other slots balance
    each column to zero with smaller magnitudes.  None when a column cannot be
    balanced.
    """
    q, b = CFG.cycles_per_fingerprint, CFG.bits_per_cycle
    n = word.shape[0]
    delta = np.zeros(q * b)
    delta[:n] = np.where(word == 1, 1.0, -1.0) * (
        PAYLOAD_MAGNITUDE + 0.5 * (n - np.arange(n)))
    delta = delta.reshape(q, b)
    for col in range(b):
        free = np.flatnonzero(np.arange(q) * b + col >= n)
        if free.size == 0:
            return None
        weights = rng.uniform(0.9, 1.1, free.size)
        dither = rng.uniform(1.0, 2.0, free.size)
        values = -delta[:, col].sum() * weights / weights.sum() + dither - dither.mean()
        if np.any(np.abs(values) >= PAYLOAD_MAGNITUDE) or np.any(values == 0.0):
            return None
        delta[free, col] = values
    seg = CFG.rho // b
    return gait.GaitSequence(cycles=np.repeat(-delta / seg, seg, axis=1), rho=CFG.rho)


def craft_codeword_pair(rng: np.random.Generator, n_flips: int):
    """Two sequences whose reduced fingerprints are a codeword and the same
    codeword with ``n_flips`` bits flipped; returns them with the message."""
    for _ in range(200):
        message = rng.integers(0, 2, size=PARAMS.k).astype(np.uint8)
        word = fuzzy_ecc.encode(message, PARAMS)
        flipped = word.copy()
        flipped[rng.choice(PARAMS.n, size=n_flips, replace=False)] ^= 1
        seq_a, seq_b = _codeword_cycles(word, rng), _codeword_cycles(flipped, rng)
        if seq_a is not None and seq_b is not None:
            return seq_a, seq_b, message
    raise RuntimeError("could not balance a crafted codeword pair")


def random_delta_sequence(rng: np.random.Generator):
    q, b = CFG.cycles_per_fingerprint, CFG.bits_per_cycle
    delta = rng.normal(size=(q, b))
    delta -= delta.mean(axis=0, keepdims=True)
    seg = CFG.rho // b
    return gait.GaitSequence(cycles=np.repeat(-delta / seg, seg, axis=1), rho=CFG.rho)


def gait_window_pairs(seed: int, count: int) -> list:
    """Same-body window pairs (same window index, different positions)."""
    spec = dataset_io.SyntheticGaitSpec(n_cycles=150, n_subjects=4, rng_seed=seed)
    windows = {}
    for rec in dataset_io.generate_synthetic(spec).records:
        sig = signals.preprocess_record(rec, band=CFG.band)
        windows[rec.subject_id, rec.position] = dataset_io.sliding_windows(
            sig, CFG.cycles_per_fingerprint, overlap=0.5, rho=CFG.rho,
            detection=gait.detect_cycles(sig))
    subjects = sorted({s for s, _ in windows})
    positions = sorted({p for _, p in windows})
    pairs = []
    for w in itertools.count():
        for s in subjects:
            for pa, pb in itertools.combinations(positions, 2):
                wa, wb = windows[s, pa], windows[s, pb]
                if w < min(len(wa), len(wb)):
                    pairs.append((wa[w].sequence, wb[w].sequence))
                    if len(pairs) == count:
                        return pairs
        if all(w >= len(v) for v in windows.values()):
            raise RuntimeError(f"only {len(pairs)} same-body window pairs")


def reference_similarity() -> float:
    """Mean same-body similarity over the reference pairs: the same-body
    window pairs of the ``REFERENCE_SEED`` corpus, whatever the workload seed."""
    pairs = gait_window_pairs(REFERENCE_SEED, REFERENCE_PAIRS)
    return mean([same_body_similarity(a, b) for a, b in pairs])


def own_decode_rate(sequences) -> float:
    """Share of windows whose own reduced fingerprint decodes."""
    ok = 0
    for seq in sequences:
        fp = quantize(seq, average_cycle(seq), CFG.bits_per_cycle)
        bits = reduce(fp, reliability_order(fp), CFG.cutoff).bits[:PARAMS.n]
        try:
            fuzzy_ecc.decode(bits, PARAMS)
            ok += 1
        except DecodeFailure:
            pass
    return ok / len(sequences)


class Handshake(Workload):
    """One in-memory session on prebuilt sequence pairs, 1:1:1 of three kinds.

    ``crafted``: codeword pairs with 0..t flips, which must establish with
    the codeword's message as key (full decode, PAKE and confirm).
    ``independent``: random fingerprints, which must be rejected.
    ``gait``: same-body windows of a synthetic corpus, rejected today.
    The front end does no work here, so fingerprint, decoder and protocol
    carry the whole op.
    """

    name = "handshake"
    PER_KIND = 40
    min_ops = 3 * PER_KIND  # every pair of the pool runs at least once
    PRIVACY_SAMPLE = 10  # sessions per kind whose frames are byte-scanned

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.outcomes = {}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        crafted = [("crafted",) + craft_codeword_pair(rng, j % (PARAMS.t + 1))
                   for j in range(self.PER_KIND)]
        independent = [("independent", random_delta_sequence(rng),
                         random_delta_sequence(rng), None)
                        for _ in range(self.PER_KIND)]
        gait_pairs = gait_window_pairs(self.seed, self.PER_KIND)
        self.pool = [entry for trio in zip(
            crafted, independent, [("gait", a, b, None) for a, b in gait_pairs])
            for entry in trio]
        self.decode_rate = own_decode_rate([s for pair in gait_pairs for s in pair])
        for _, a, b, _ in self.pool[:3]:
            protocol.run_pair_in_memory(a, b, CFG, seed=0)

    def _session_seed(self, entry: int) -> int:
        return self.seed * STRIDE + entry

    def prepare(self, i: int):
        entry = i % len(self.pool)
        _, seq_a, seq_b, _ = self.pool[entry]
        seed = self._session_seed(entry)
        return lambda: protocol.run_pair_in_memory(seq_a, seq_b, CFG, seed=seed)

    def check(self, i: int, result) -> list[str]:
        entry = i % len(self.pool)
        kind, _, _, message = self.pool[entry]
        res_a, res_b = result
        problems = session_problems(res_a, res_b)
        if kind == "crafted":
            if not res_a.established:
                problems.append(f"crafted pair rejected: {res_a.failure!r}")
            elif not np.array_equal(res_a.key.key_bits, message):
                problems.append("crafted pair established with a wrong key")
        elif kind == "independent" and (res_a.established or res_b.established):
            problems.append("independent pair established")
        outcome = (res_a.established, res_b.established, res_a.secret)
        if self.outcomes.setdefault(entry, outcome) != outcome:
            problems.append("seeded session did not repeat its outcome")
        return problems

    def finish(self) -> list[str]:
        """Byte-scan captured frames for every packed fingerprint and its
        complement: no fingerprint bit pattern may cross the wire."""
        capture: list[bytes] = []
        targets = []
        for entry in range(3 * self.PRIVACY_SAMPLE):
            _, seq_a, seq_b, _ = self.pool[entry]
            for seq in (seq_a, seq_b):
                bits = quantize(seq, average_cycle(seq), CFG.bits_per_cycle).bits
                targets += [np.packbits(bits).tobytes(), np.packbits(1 - bits).tobytes()]
            protocol.run_pair_in_memory(seq_a, seq_b, CFG,
                                        seed=self._session_seed(entry),
                                        capture=capture)
        blob = b"|".join(capture)
        leaks = sum(t in blob for t in targets)
        return [f"{leaks} packed fingerprints found on the wire"] if leaks else []

    def notes(self) -> list[str]:
        """Single-threaded encode and decode times, for comparison with the
        decode spans, which run on two threads at once and include waiting
        for the interpreter lock."""
        times = {"encode": [], "decode crafted": [], "decode gait": []}
        for kind, seq_a, seq_b, message in self.pool:
            seq = seq_b if kind == "crafted" else seq_a  # b carries the flips
            if kind == "crafted":
                t0 = time.perf_counter()
                fuzzy_ecc.encode(message, PARAMS)
                times["encode"].append(time.perf_counter() - t0)
            if kind != "independent":
                fp = quantize(seq, average_cycle(seq), CFG.bits_per_cycle)
                bits = reduce(fp, reliability_order(fp), CFG.cutoff).bits[:PARAMS.n]
                t0 = time.perf_counter()
                try:
                    fuzzy_ecc.decode(bits, PARAMS)
                except DecodeFailure:
                    pass
                times[f"decode {kind}"].append(time.perf_counter() - t0)
        return [f"{name} single-threaded p50 {1e6 * statistics.median(t):.4g} us "
                f"over {len(t)} calls" for name, t in times.items()]

    def behaviour(self) -> dict:
        def rate(kind):
            return mean([a and b for e, (a, b, _) in self.outcomes.items()
                         if self.pool[e][0] == kind])
        return {"intra_establish_rate": rate("gait"),
                "inter_establish_rate": rate("independent"),
                "decode_rate": self.decode_rate}


# -- eval-report ----------------------------------------------------------------------

class EvalReport(Workload):
    """Corpus on disk to report files, through the CLI in-process.

    The ROADMAP baseline corpus: 4 subjects x 3 positions, 300 cycles each
    (12 records of 30,200 samples).  Long records make per-sample cost
    dominate; this is the only workload that reads CSV and rebuilds windows,
    and it never decodes or opens a session.
    """

    name = "eval-report"
    min_ops = 3
    N_CYCLES = 300
    SWEEP_M = [128, 144, 160, 176, 192, 256]  # cutoff 128 plus the default extras
    ANALYSES = ("discriminability", "reliability")
    REPORT_FILES = ("discriminability.json", "discriminability_intra.csv",
                    "discriminability_inter.csv", "reliability.json")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.corpus_dir = workdir / "corpus"
        self.cycles = None
        self.reads = []

    def _eval(self, corpus_dir: Path, out_dir: Path) -> list[int]:
        codes = []
        for analysis in self.ANALYSES:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(["eval", str(corpus_dir), "--analysis", analysis,
                                       "--out", str(out_dir)]))
        return codes

    def setup(self) -> None:
        spec = dataset_io.SyntheticGaitSpec(n_cycles=self.N_CYCLES, n_subjects=4,
                                            rng_seed=self.seed)
        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        dataset_io.save_csv(dataset_io.generate_synthetic(spec), self.corpus_dir)
        warm_dir = self.workdir / "warm"
        shutil.rmtree(warm_dir, ignore_errors=True)
        warm = dataset_io.SyntheticGaitSpec(n_cycles=60, rng_seed=self.seed)
        dataset_io.save_csv(dataset_io.generate_synthetic(warm), warm_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["eval", str(warm_dir), "--analysis", "discriminability",
                      "--out", str(self.workdir / "warm-out")])

    def prepare(self, i: int):
        out_dir = self.workdir / f"out-{i}"
        return lambda: (self._eval(self.corpus_dir, out_dir), out_dir)

    def _detected_cycles(self) -> dict:
        """Cycles ``detect_cycles`` finds in each record of the corpus on disk."""
        cycles = {}
        for rec in dataset_io.load_csv(self.corpus_dir).records:
            sig = signals.preprocess_record(rec, band=CFG.band)
            cycles[rec.subject_id, rec.position] = (
                gait.detect_cycles(sig).minima_indices.shape[0] - 1) // 2
        return cycles

    def check(self, i: int, result) -> list[str]:
        codes, out_dir = result
        try:
            return self._check_reports(codes, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check_reports(self, codes, out_dir: Path) -> list[str]:
        if codes != [0] * len(self.ANALYSES):
            return [f"eval exit codes {codes}"]
        missing = [f for f in self.REPORT_FILES if not (out_dir / f).is_file()]
        if missing:
            return [f"missing reports {missing}"]
        if self.cycles is None:
            self.cycles = self._detected_cycles()
        try:
            disc = json.loads((out_dir / "discriminability.json").read_text())
            sweep = json.loads((out_dir / "reliability.json").read_text())
            rows = {f: _csv_rows(out_dir / f) for f in self.REPORT_FILES[1:3]}
            sweep_rows = {e["M"]: _csv_rows(out_dir / f"reliability_M{e['M']}.csv")
                          for e in sweep["entries"]}
        except (OSError, ValueError, KeyError) as exc:
            return [f"report does not parse: {exc!r}"]

        m = CFG.fingerprint_bits
        problems = []
        want = dict(zip(("n_intra", "n_inter"), implied_pairs(self.cycles, m)))
        got = {"n_intra": disc["n_intra"], "n_inter": disc["n_inter"]}
        if got != want:
            problems.append(f"discriminability counts {got}, corpus implies {want}")
        if (rows["discriminability_intra.csv"], rows["discriminability_inter.csv"]) \
                != (want["n_intra"], want["n_inter"]):
            problems.append("discriminability CSV rows differ from the pair counts")
        if sorted(sweep_rows) != self.SWEEP_M:
            problems.append(f"reliability sizes {sorted(sweep_rows)}, expected {self.SWEEP_M}")
        for entry in sweep["entries"]:
            implied = implied_pairs(self.cycles, entry["M"])[0]
            if (entry["summary"]["count"], sweep_rows[entry["M"]]) != (implied, implied):
                problems.append(f"reliability M={entry['M']} pairs "
                                f"{entry['summary']['count']}, corpus implies {implied}")
        self.reads.append((disc["intra"]["mean"], disc["collision_rate_above_threshold"],
                           disc["n_intra"]))
        if self.reads[-1] != self.reads[0]:
            problems.append("report values changed between runs on one corpus")
        if self.reads[-1][1] != 0.0:
            problems.append(f"inter-body collision rate {self.reads[-1][1]} above 0")
        return problems

    def behaviour(self) -> dict:
        return {"collision_rate": self.reads[0][1] if self.reads else None}

    def notes(self) -> list[str]:
        """The report's intra mean, and records whose detected cycle count is
        off the generated count."""
        if self.cycles is None or not self.reads:
            return []
        off = {k: c for k, c in self.cycles.items() if abs(c - self.N_CYCLES) > 2}
        return [f"discriminability.json intra mean {self.reads[0][0]:.6g} "
                f"over {self.reads[0][2]} pairs",
                f"records with detected cycles off the {self.N_CYCLES} generated: "
                f"{len(off)} of {len(self.cycles)} {off}"]


def implied_pairs(cycles: dict, m: int) -> tuple[int, int]:
    """Intra and inter pair counts that M-bit fingerprints give on records
    with ``cycles[subject, position]`` cycles: half-overlapping windows of
    M / b cycles, paired at equal window index, as many as both sides have."""
    w = m // CFG.bits_per_cycle
    step = max(1, int(round(w * 0.5)))
    windows = {k: (c - w) // step + 1 if c >= w else 0 for k, c in cycles.items()}
    subjects = sorted({s for s, _ in cycles})
    positions = sorted({p for _, p in cycles})
    intra = sum(min(windows[s, a], windows[s, b]) for s in subjects
                for a, b in itertools.combinations(positions, 2))
    inter = sum(min(windows[a, p], windows[b, p]) for p in positions
                for a, b in itertools.combinations(subjects, 2))
    return intra, inter


def _csv_rows(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "similarity":
            raise ValueError(f"{path.name}: unexpected header {header}")
        return sum(1 for row in reader if 0.0 <= float(row[-1]) <= 1.0)


WORKLOADS = {w.name: w for w in (PairAttempt, Handshake, EvalReport)}
