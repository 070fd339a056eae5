"""Golden outputs of the signal front end on seeded synthetic records.

Each case pins, for every record of a seeded corpus, the SHA-256 of the
half-cycle boundaries that ``detect_cycles`` finds on the preprocessed signal
and of the quantized fingerprint bits of each of its windows.  A change to
gravity alignment, filtering or segmentation that moves any boundary or any
bit shows here, record by record.

The seeded corpora hold each device at one fixed pose, so they barely
exercise the gyro.  The swinging cases add records whose device swings like a
limb while the walker turns, where a wrong orientation filter moves every
boundary and bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from gaitpair.dataset_io import SyntheticGaitSpec, generate_synthetic, sliding_windows
from gaitpair.fingerprint import average_cycle, quantize
from gaitpair.gait import detect_cycles
from gaitpair.signals import preprocess_record

from helpers import swinging_record


def _sha(arr: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


def _record_digests(rec, cfg) -> tuple[str, str]:
    sig = preprocess_record(rec, band=cfg.band)
    det = detect_cycles(sig)
    wins = sliding_windows(sig, cfg.cycles_per_fingerprint, overlap=0.5,
                           rho=cfg.rho, detection=det)
    bits = [quantize(w.sequence, average_cycle(w.sequence), cfg.bits_per_cycle).bits
            for w in wins]
    return _sha(det.minima_indices, "<i8"), _sha(np.concatenate(bits), "u1")


def _front_end_digests(seed: int, cfg) -> dict[str, tuple[str, str]]:
    records = generate_synthetic(
        SyntheticGaitSpec(n_cycles=52, n_subjects=2, rng_seed=seed)).records
    return {f"{rec.subject_id}_{rec.position}": _record_digests(rec, cfg)
            for rec in records}


# seed -> record -> (minima_indices sha, fingerprint bits sha)
GOLDEN = {
    7: {
        "s00_chest": (
            "dc4a2b36b83881f4585cb1ff59541039d7b541682b1eddc0345d55abdf3bc179",
            "e4745e405e28146aa7abb992cd0bb893ae83cc0c1b1afeaedf1e6e2972e8cb99"),
        "s00_forearm": (
            "4a253745c9117c5db90e7571c6bc509ada4f5d60a6cfebf3c842f5be9e810a77",
            "916f8dae7f99d616f640538b19738c35bd8fc9cdb78f037ec8df7aa3c9c88424"),
        "s00_waist": (
            "35c558ef69c60bea4c4661239201d02242c7c7d09962c061a243c3fd85ed8e25",
            "9aab11ffe5e16fd6824e50e7e77a3ade9fd8a9bebac2e756434855c5a45ad772"),
        "s01_chest": (
            "e9870a3c9365335b04625b3e43dc6332d8a444b2ba0128ec977d122f81a4de0a",
            "719d006991dfd850fa0baf0daa4413ec64025cfecd0b8929742575d2b4a2eef2"),
        "s01_forearm": (
            "dd497c7e50830c8400afc5d68e55b93adfe27104a5385fa20ba03d42f4fff34d",
            "1ca3cff9f47d6a41bb2b5a23d78bcc17de35e6a286cc4e2812c4361c57aad26e"),
        "s01_waist": (
            "7e95e3bb455c77e54e3b78564ca083902eb7bcd01f94384e79e112ce06030b8c",
            "c2672406e671802f6eadeacb2634b775c356fc0559f635fcb5f236fc9994a013"),
    },
    1001: {
        "s00_chest": (
            "382d6b5e84b037eeba9a2a6220eec3bab43561ec3bf5afcdacd8165aa24628f5",
            "e01a5487fc0f8848e8e8ac495ff6e647c1d3c98b3bb78670643f988be44b7cf4"),
        "s00_forearm": (
            "3de381d4b53e214bcd6cb832013718cc4b1fd56cbc8d648ba3ab6485f5a84e30",
            "76fab8a2467b6feb894e7f183834e19d11ab2d15aebba842ee68a62dc377abd4"),
        "s00_waist": (
            "38149eb96ceeddf4946cf2b0237ade1961fce97f53f66d4de1c58221c04ac8cc",
            "180c1cbd8b835bb35e5b1ab19b131e5d7b45ffb4de7baec08c08648bbea2d78f"),
        "s01_chest": (
            "f6a65297d16781d01045c6fd446b45393c9c562fe5f80807cbf8abf392e33c2f",
            "1ab7120db69e0f80d774dd9567a01cfad35b788b4cf9b9caa69dfdb40fa7799d"),
        "s01_forearm": (
            "4e60e6b2eae2a6fe0ebaab5bb050242eb5e3729d50da5d96ca4a16ce17dc6ea6",
            "43711c8d466ec4e9cb32b06b084c0e015ff233589bfc76db5d7af511d16f5266"),
        "s01_waist": (
            "382af9e5313f563f94a722b2116f2955da327bb5411780c8a6420911a67aeff0",
            "c1c07d6890f2c7d59382d33acbfdd99882b991f12b72e5066d430f14fe24e3ae"),
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_front_end_matches_golden(seed, cfg):
    assert _front_end_digests(seed, cfg) == GOLDEN[seed]


# swinging_record(seed, 60 cycles, 30 degrees, 1 rad/s turn) -> (minima sha, bits sha)
SWINGING_GOLDEN = {
    0: ("22a326d4fd9f22aa609d60e50f44ca40189efbc2b5c34f0c088b8ea8d7366013",
        "7de00f84d32cbd2c9dcb1e386d90a028676516533db2749b5c59ad59ed224282"),
    1: ("35a0d00b88282cdcf99677a3cb312e4cfa236077ff4a3106f3c0c453b477139e",
        "d6378bb37da1b6398a9bac37c767e0ed1d69b08e0df170d4ad55041505550fc0"),
    2: ("d75f0746ebea7baad7d9e4a6b204d8d6c25eccce22b4233d1345e881d2639b03",
        "6652e61d617043b06409b8df45ad939bcf8ce9f7ed948f0c09dbaf9194483af4"),
    3: ("41b2d5967e14c5d6fbcd59d5e44e0c99c816e87b4fa5ca14414f18bf2374a5d9",
        "af82c0585233594504aa41594160574735aa5229538ea55cca26be0425dca473"),
}


@pytest.mark.parametrize("seed", sorted(SWINGING_GOLDEN))
def test_swinging_front_end_matches_golden(seed, cfg):
    rec, _ = swinging_record(seed, 60, 30.0, 1.0)
    assert _record_digests(rec, cfg) == SWINGING_GOLDEN[seed]
