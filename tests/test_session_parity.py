"""Golden outcomes of seeded in-memory sessions.

Each case pins, for both ends, whether the session established, its failure
string and the SHA-256 of its secret, plus the SHA-256 of every frame that
crossed the wire.  The frames are hashed in sorted order: a seeded session
fixes which frames each end sends, not how the two ends' frames interleave.
A change to the session core that alters any seeded session shows here.

The gait case runs the signal front end too, so a change to gravity
alignment, filtering or segmentation numerics also moves its pinned frames.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from gaitpair.dataset_io import SyntheticGaitSpec, generate_synthetic, sliding_windows
from gaitpair.gait import detect_cycles
from gaitpair.protocol import run_pair_in_memory
from gaitpair.signals import preprocess_record

from helpers import craft_codeword_pair, random_delta_sequence


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _frames_sha(frames: list[bytes]) -> str:
    h = hashlib.sha256()
    for frame in sorted(frames):
        h.update(struct.pack(">I", len(frame)) + frame)
    return h.hexdigest()


def _gait_window_pair(cfg):
    records = generate_synthetic(
        SyntheticGaitSpec(n_cycles=52, n_subjects=1, rng_seed=7)).records
    seqs = []
    for rec in records[:2]:  # one body, two positions
        sig = preprocess_record(rec, band=cfg.band)
        wins = sliding_windows(sig, cfg.cycles_per_fingerprint, overlap=0.5,
                               rho=cfg.rho, detection=detect_cycles(sig))
        seqs.append(wins[0].sequence)
    return seqs


# name -> (build(cfg, params) -> (seq_a, seq_b), session seed)
CASES = {
    "crafted-0-flips": (lambda c, p: craft_codeword_pair(10, 0, c, p)[:2], 1),
    "crafted-t-flips": (lambda c, p: craft_codeword_pair(11, p.t, c, p)[:2], 2),
    "crafted-t-flips-reversed":
        (lambda c, p: craft_codeword_pair(11, p.t, c, p)[1::-1], 2),
    "crafted-t+1-flips":
        (lambda c, p: craft_codeword_pair(12, p.t + 1, c, p)[:2], 9),
    "crafted-t+1-flips-reversed":
        (lambda c, p: craft_codeword_pair(12, p.t + 1, c, p)[1::-1], 9),
    "independent-1-2":
        (lambda c, p: (random_delta_sequence(1, c), random_delta_sequence(2, c)), 3),
    "independent-4-3":
        (lambda c, p: (random_delta_sequence(4, c), random_delta_sequence(3, c)), 6),
    "mismatched-keys": (lambda c, p: (craft_codeword_pair(40, 0, c, p)[0],
                                      craft_codeword_pair(41, 0, c, p)[0]), 8),
    "gait-window": (lambda c, p: _gait_window_pair(c), 7),
}

# name -> ((established, failure, secret sha) for A, same for B, frames sha)
GOLDEN = {
    "crafted-0-flips": (
        (True, None, "e07c597049470ee8765f9aa1f2dc397cf36440986ad021b6275a99da81c3b82f"),
        (True, None, "e07c597049470ee8765f9aa1f2dc397cf36440986ad021b6275a99da81c3b82f"),
        "12d1cd230160ac290071646e18aadb00ecf9a9804f12e6bded0beee5d6208b91"),
    "crafted-t+1-flips": (
        (False, "peer abort: decode failure", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "8db79a3a1a2ce88172fe5939f9f8380e14341a69a4ce298f9e86fa85c781ad04"),
    "crafted-t+1-flips-reversed": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "peer abort: decode failure", None),
        "203d366dc1a4bc0aceee80df5f5928c002f14d3437fcbe0d314ca326c1443d18"),
    "crafted-t-flips": (
        (True, None, "f80a130655a44d1651169ddcbc5ab796fcaf5d2da310f4881b2ea5974634de8f"),
        (True, None, "f80a130655a44d1651169ddcbc5ab796fcaf5d2da310f4881b2ea5974634de8f"),
        "69ac22e1c0292a19fe07995261edd5f0850b5b860de8dcfec6a215e5f45772b9"),
    "crafted-t-flips-reversed": (
        (True, None, "e97b64676cce001581bec49f7a665857c6cfbc0c51291de92e9fa90f44c51a79"),
        (True, None, "e97b64676cce001581bec49f7a665857c6cfbc0c51291de92e9fa90f44c51a79"),
        "4c7eead2532fa138af8e395b88afdfc71e2d335c66ea7d8cfda546d71a988169"),
    "gait-window": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "c33685b259c877ffa509a520b6809f6609cb37b81aa0646a19a53ba9c1b00797"),
    "independent-1-2": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "70488c0ef1e061dbea137f3f623abee95fd475376766f9702d96bac18fdb243b"),
    "independent-4-3": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "3c90bf603e0765dfff9a4b6c5d437634e0cb103b31bb97b9a98acd083b56a67f"),
    "mismatched-keys": (
        (False, "PakeFailure: commitment mismatch: passwords differ", None),
        (False, "PakeFailure: commitment mismatch: passwords differ", None),
        "515ba274bf1d9bc0ca8701bc6cacfe4f337d3d0cc46953288def589b33827f1d"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_session_matches_golden(name, cfg, code_params):
    build, seed = CASES[name]
    seq_a, seq_b = build(cfg, code_params)
    capture: list[bytes] = []
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, seed=seed, capture=capture)
    got = tuple((r.established, r.failure, _sha(r.secret)) for r in (res_a, res_b))
    assert got + (_frames_sha(capture),) == GOLDEN[name]
