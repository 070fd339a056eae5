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
        (True, None, "43074c54145c7cb0495c37d89ba9642eff63f85d8b657fd174e6b28b055febaa"),
        (True, None, "43074c54145c7cb0495c37d89ba9642eff63f85d8b657fd174e6b28b055febaa"),
        "0140bfb9452eaff7e604c07e8b790c045865511a88af50de7d94f9e4b020b50f"),
    "crafted-t+1-flips": (
        (False, "peer abort: decode failure", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "84e9a0693d1890911187e7e3c87fea5a8a755b79aee1927b2506b2485b3d96f6"),
    "crafted-t+1-flips-reversed": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "peer abort: decode failure", None),
        "499b6f0ff88c5397a62d290a20168ba86b0427374e8113c6e8d099427155ed8c"),
    "crafted-t-flips": (
        (True, None, "e861179dec7169160a5c8277269fee04c5ffdd3dd75079eba34d4084f24d3d57"),
        (True, None, "e861179dec7169160a5c8277269fee04c5ffdd3dd75079eba34d4084f24d3d57"),
        "4cfef772c8133b196f7c93843b880d56350b2fb57c73347b4e1077d14e61f304"),
    "crafted-t-flips-reversed": (
        (True, None, "b4f710a21bfafa53f6c3e58f208ee498e5a622af77d86c9d23b086affff3b77d"),
        (True, None, "b4f710a21bfafa53f6c3e58f208ee498e5a622af77d86c9d23b086affff3b77d"),
        "448f4964c1ae7a06f3db1b5a52b1bb85b4b079caa5d29157d7a4c347f01dda88"),
    "gait-window": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "99acf2c2725731f1a5590f07a5c1c9e5d2e259690dbab7917d30c378a1482ca7"),
    "independent-1-2": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "c2dfa0e851b078707334cc7407fa55e517e569523b5861bc6b2eedc54d912de6"),
    "independent-4-3": (
        (False, "decode failure: fingerprint too far from the codespace", None),
        (False, "decode failure: fingerprint too far from the codespace", None),
        "89ab7a2d0b518283f4808e35e134361635d929f38c4b9ec0ec94969900e4fcfc"),
    "mismatched-keys": (
        (False, "PakeFailure: commitment mismatch: passwords differ", None),
        (False, "PakeFailure: commitment mismatch: passwords differ", None),
        "5d1c6b027bc3e8d142ace548c0897c1c31b3410270d60cfd8908108bf853773d"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_session_matches_golden(name, cfg, code_params):
    build, seed = CASES[name]
    seq_a, seq_b = build(cfg, code_params)
    capture: list[bytes] = []
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, seed=seed, capture=capture)
    got = tuple((r.established, r.failure, _sha(r.secret)) for r in (res_a, res_b))
    assert got + (_frames_sha(capture),) == GOLDEN[name]
