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
        (True, None, "afd35a7ce21c3cdcb0778727938cf0a643ef359f64abca526ceba16ac916f74d"),
        (True, None, "afd35a7ce21c3cdcb0778727938cf0a643ef359f64abca526ceba16ac916f74d"),
        "67d400c21583261927f807a1da077c893ffcecbdb1d0ef8d42ff289ea967391c"),
    "crafted-t+1-flips": (
        (False, "peer abort: decode failure", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "8b35e39d003c834255b5c634c7562fd3fe80f1756b72c530503889ad6a8a6bc1"),
    "crafted-t+1-flips-reversed": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "peer abort: decode failure", None),
        "b2b45363f049b8785ebec4d9e3238024c862c412ce5d0afd27fa29387554ffe9"),
    "crafted-t-flips": (
        (True, None, "7c1690da66f25ce567f7d042021132b6baa43f355305bd469ca8b9c199fcba43"),
        (True, None, "7c1690da66f25ce567f7d042021132b6baa43f355305bd469ca8b9c199fcba43"),
        "bab1d98bc90c2e39bb8c51ab29b71212c7b88572f5371ef7b4e4220adae6d5d3"),
    "crafted-t-flips-reversed": (
        (True, None, "906b35a271453435b3befafbab2c6e7a4d2e8406bd893cda61feca473623c34c"),
        (True, None, "906b35a271453435b3befafbab2c6e7a4d2e8406bd893cda61feca473623c34c"),
        "3f3c381a671291adf94789b3444d5ef531598d568cfbe6bccbeec6a0cd4fb2f6"),
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
        (False, "ConfirmMismatch: key confirmation MAC mismatch", None),
        (False, "peer abort: key confirmation failed", None),
        "7294c7c0079d695e0dcb64e6d2f6a776cd5c1d38627e007f68fd502edbd581d8"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_session_matches_golden(name, cfg, code_params):
    build, seed = CASES[name]
    seq_a, seq_b = build(cfg, code_params)
    capture: list[bytes] = []
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, seed=seed, capture=capture)
    got = tuple((r.established, r.failure, _sha(r.secret)) for r in (res_a, res_b))
    assert got + (_frames_sha(capture),) == GOLDEN[name]
