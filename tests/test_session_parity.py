"""Golden outcomes of seeded in-memory sessions.

Each case pins, for both ends, whether the session established, its failure
string and the SHA-256 of its secret, plus the SHA-256 of every frame that
crossed the wire.  The frames are hashed in sorted order: a seeded session
fixes which frames each end sends, not how the two ends' frames interleave.
A change to the session core that alters any seeded session shows here.

The gait cases run the signal front end too, so a change to gravity
alignment, filtering or segmentation numerics also moves their pinned
frames.  Of the two, seed 2's windows are within the code's radius of each
other and pair, and seed 7's are not.
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


def _gait_window_pair(cfg, corpus_seed: int):
    records = generate_synthetic(
        SyntheticGaitSpec(n_cycles=52, n_subjects=1, rng_seed=corpus_seed)).records
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
    "gait-window": (lambda c, p: _gait_window_pair(c, 7), 7),
    "gait-window-seed-2": (lambda c, p: _gait_window_pair(c, 2), 7),
}

# name -> ((established, failure, secret sha) for A, same for B, frames sha)
GOLDEN = {
    "crafted-0-flips": (
        (True, None, "6caf04d8c154efdeda8c5fee72dcc6c0f7f403e531ff1d1427cb5f51e7049f88"),
        (True, None, "6caf04d8c154efdeda8c5fee72dcc6c0f7f403e531ff1d1427cb5f51e7049f88"),
        "43c66c4076b8f4c8c8b02ef2e15171bcd6446e09b169aeb264625e19e951c1d6"),
    "crafted-t+1-flips": (
        (False, "peer abort: decode failure", None),
        (False, "decode failure: fingerprint too far from the initiator's", None),
        "a5fcde5c0d4331cdd9b96300e59090838d66c6ad56d1cfa4c1a796ba49c0b99f"),
    "crafted-t+1-flips-reversed": (
        (False, "peer abort: decode failure", None),
        (False, "decode failure: fingerprint too far from the initiator's", None),
        "4c252f4329a123edbd014140194461856c6921123312697c2625c75b8b4edd92"),
    "crafted-t-flips": (
        (True, None, "57ed2a216c9988718e556baa379aa0953544e44b58f0127fa25f4bcaf55fa0c4"),
        (True, None, "57ed2a216c9988718e556baa379aa0953544e44b58f0127fa25f4bcaf55fa0c4"),
        "7edd37aa6658ca3fc19aeb46c3deae6c5c56f6f791213ea538a77600efb62931"),
    "crafted-t-flips-reversed": (
        (True, None, "0ffa3fdb454c9888e329537fb6da99cdad1985076011c5f5f28f8f8e69c41760"),
        (True, None, "0ffa3fdb454c9888e329537fb6da99cdad1985076011c5f5f28f8f8e69c41760"),
        "8f571018e6aee2f1da77c080b01f905aa5c256132b7bcef85a13b383f2ad61a6"),
    "gait-window": (
        (False, "peer abort: decode failure", None),
        (False, "decode failure: fingerprint too far from the initiator's", None),
        "55acdcca3ca97b8c7047ada5193ed829b498e8ec71cd79af5c156cfa82211c6c"),
    "gait-window-seed-2": (
        (True, None, "cbff6b5e21268abf3b81d6ba88273ce6931d06f5cfe462eb5558fd0e16ea80a5"),
        (True, None, "cbff6b5e21268abf3b81d6ba88273ce6931d06f5cfe462eb5558fd0e16ea80a5"),
        "786cfb218cc45d0a300e77cea7e0f29f86348733d38a329219ecd139f1d07b97"),
    "independent-1-2": (
        (False, "peer abort: decode failure", None),
        (False, "decode failure: fingerprint too far from the initiator's", None),
        "7cf5e09765b19b5a699c256b860d5e2e12755ca0af71cefdcfc09031bf875d7b"),
    "independent-4-3": (
        (False, "peer abort: decode failure", None),
        (False, "decode failure: fingerprint too far from the initiator's", None),
        "91c0f60f09e64ab0c6d503901f4ea05fb78efb32b029a94137e6054bf91437c1"),
    "mismatched-keys": (
        (False, "ConfirmMismatch: key confirmation MAC mismatch", None),
        (False, "peer abort: key confirmation failed", None),
        "acbaf0e64ae0e87114cf7d92c616e674f0cd640b5a385aa601ca3d7c42adf01d"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_session_matches_golden(name, cfg, code_params):
    build, seed = CASES[name]
    seq_a, seq_b = build(cfg, code_params)
    capture: list[bytes] = []
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, seed=seed, capture=capture)
    got = tuple((r.established, r.failure, _sha(r.secret)) for r in (res_a, res_b))
    assert got + (_frames_sha(capture),) == GOLDEN[name]
