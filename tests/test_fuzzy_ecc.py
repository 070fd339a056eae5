import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpair.errors import DecodeFailure, LengthMismatch, NoSuitableCode
from gaitpair.fuzzy_ecc import (
    _PRIMITIVE_POLY,
    CodeParams,
    FuzzyKey,
    _decoder,
    _gf2_poly_mod,
    choose_params,
    code_table,
    decode,
    encode,
)

P15 = choose_params(15, 0.2)
P127 = choose_params(128, 0.2)


def all_messages(k):
    for value in range(1 << k):
        yield np.array([(value >> (k - 1 - i)) & 1 for i in range(k)],
                       dtype=np.uint8)


# -- construction -------------------------------------------------------------------

def test_choose_params_small():
    assert (P15.n, P15.k, P15.t) == (15, 5, 3)
    # canonical generator x^10+x^8+x^5+x^4+x^2+x+1
    assert P15.generator == 0b10100110111


def test_choose_params_deployment():
    # fingerprint cutoff 128 -> length-127 code; the largest t that stays
    # within the 20% error budget (floor(127*0.2) = 25) is 23
    assert (P127.n, P127.k, P127.t) == (127, 22, 23)


def test_code_table_matches_standard_reference():
    expected = [(1, 120), (2, 113), (3, 106), (4, 99), (5, 92), (6, 85),
                (7, 78), (9, 71), (10, 64), (11, 57), (13, 50), (14, 43),
                (15, 36), (21, 29), (23, 22), (27, 15), (31, 8), (63, 1)]
    assert [(p.t, p.k) for p in code_table(127)] == expected


def test_generator_divides_x_n_plus_one():
    # construction oracle: g(x) | x^n + 1 for a cyclic code
    for params in (P15, P127):
        x_n_1 = (1 << params.n) | 1
        assert _gf2_poly_mod(x_n_1, params.generator) == 0
        assert params.k == params.n - (params.generator.bit_length() - 1)


def test_min_distance_brute_force_n15():
    weights = [int(encode(m, P15).sum()) for m in all_messages(5)
               if int(m.sum()) > 0]
    assert min(weights) == 7  # >= 2t+1 with t=3


@pytest.mark.parametrize("bad_rate", [0.0, -0.1, 0.5, 0.7])
def test_choose_params_rejects_degenerate_rate(bad_rate):
    with pytest.raises(NoSuitableCode):
        choose_params(128, bad_rate)


def test_choose_params_rejects_tiny_length():
    with pytest.raises(NoSuitableCode):
        choose_params(6, 0.2)


def test_choose_params_falls_back_to_smallest_t():
    # budget below one correctable bit: closest achievable code is t=1
    params = choose_params(127, 0.001)
    assert params.t == 1 and params.n == 127


# -- encoding ------------------------------------------------------------------------

def test_all_zero_message_encodes_to_zero():
    assert not encode(np.zeros(5, dtype=np.uint8), P15).any()


def test_encoding_is_systematic():
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 2, size=P127.k).astype(np.uint8)
    cw = encode(msg, P127)
    assert np.array_equal(cw[: P127.k], msg)


def test_codewords_closed_under_xor():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = encode(rng.integers(0, 2, P15.k).astype(np.uint8), P15)
        b = encode(rng.integers(0, 2, P15.k).astype(np.uint8), P15)
        assert _decoder(P15).syndromes(a ^ b) == 0


def test_encode_length_mismatch():
    with pytest.raises(LengthMismatch):
        encode(np.zeros(6, dtype=np.uint8), P15)


# -- decoding ------------------------------------------------------------------------

def test_decode_codeword_zero_corrections():
    rng = np.random.default_rng(2)
    msg = rng.integers(0, 2, P127.k).astype(np.uint8)
    key = decode(encode(msg, P127), P127)
    assert np.array_equal(key.key_bits, msg)
    assert key.corrected_errors == 0


def test_exhaustive_small_code_weight_up_to_t():
    patterns = [c for w in (1, 2, 3)
                for c in itertools.combinations(range(15), w)]
    assert len(patterns) == 575
    for msg in all_messages(5):
        cw = encode(msg, P15)
        for combo in patterns:
            r = cw.copy()
            r[list(combo)] ^= 1
            key = decode(r, P15)
            assert np.array_equal(key.key_bits, msg)
            assert key.corrected_errors == len(combo)


def test_random_error_roundtrip_deployment_code():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        msg = rng.integers(0, 2, P127.k).astype(np.uint8)
        cw = encode(msg, P127)
        n_err = int(rng.integers(0, P127.t + 1))
        pos = rng.choice(P127.n, size=n_err, replace=False)
        r = cw.copy()
        r[pos] ^= 1
        key = decode(r, P127)
        assert np.array_equal(key.key_bits, msg)
        assert key.corrected_errors == n_err


def test_same_sphere_vectors_decode_identically():
    rng = np.random.default_rng(4)
    for _ in range(200):
        msg = rng.integers(0, 2, P127.k).astype(np.uint8)
        cw = encode(msg, P127)
        keys = []
        for _ in range(2):
            n_err = int(rng.integers(0, P127.t + 1))
            pos = rng.choice(P127.n, size=n_err, replace=False)
            r = cw.copy()
            r[pos] ^= 1
            keys.append(decode(r, P127))
        assert np.array_equal(keys[0].key_bits, keys[1].key_bits)


def test_decode_honesty_on_arbitrary_inputs():
    # whenever decode returns a key, re-encoding it lands within t of the
    # input; otherwise DecodeFailure must be raised
    rng = np.random.default_rng(5)
    successes = 0
    for _ in range(2000):
        r = rng.integers(0, 2, P15.n).astype(np.uint8)
        try:
            key = decode(r, P15)
        except DecodeFailure:
            continue
        successes += 1
        dist = int(np.count_nonzero(encode(key.key_bits, P15) ^ r))
        assert dist <= P15.t
        assert key.corrected_errors == dist
    assert successes > 0  # decoding spheres are non-trivial at n=15


def test_far_word_raises_decode_failure():
    rng = np.random.default_rng(6)
    failures = 0
    for _ in range(50):
        r = rng.integers(0, 2, P127.n).astype(np.uint8)
        try:
            decode(r, P127)
        except DecodeFailure:
            failures += 1
    # at n=127 the decoding spheres cover a ~2^-21 fraction of the space
    assert failures == 50


def test_decode_length_mismatch():
    with pytest.raises(LengthMismatch):
        decode(np.zeros(126, dtype=np.uint8), P127)


# -- reference decoder -----------------------------------------------------------------
# The direct decoder: all 2t syndromes evaluated at the received bits, the full
# 2t-step Berlekamp-Massey iteration, and a Chien search that makes one pass
# per locator coefficient.  ``decode`` must agree with it on every outcome.

def _ref_field(m):
    n = (1 << m) - 1
    exp, log = [0] * (2 * n), [0] * (n + 1)
    x = 1
    for i in range(n):
        exp[i] = exp[i + n] = x
        log[x] = i
        x <<= 1
        if x >> m:
            x ^= _PRIMITIVE_POLY[m]
    return exp, log


def _ref_syndromes(bits, params, exp):
    n = params.n
    positions = np.flatnonzero(bits)
    if positions.size == 0:
        return np.zeros(2 * params.t, dtype=np.int64)
    exponents = (n - 1 - positions).astype(np.int64)
    j = np.arange(1, 2 * params.t + 1, dtype=np.int64)
    powers = (j[:, None] * exponents[None, :]) % n
    return np.bitwise_xor.reduce(np.array(exp[:n])[powers], axis=1)


def _ref_berlekamp_massey(syndromes, exp, log, n, t):
    C, B, L, shift, b = [1], [1], 0, 1, 1
    for i, s in enumerate(syndromes):
        d = s
        for j in range(1, min(L, len(C) - 1) + 1):
            if C[j] and syndromes[i - j]:
                d ^= exp[log[C[j]] + log[syndromes[i - j]]]
        if d == 0:
            shift += 1
            continue
        coef_log = (log[d] - log[b]) % n
        if len(B) + shift > len(C):
            C = C + [0] * (len(B) + shift - len(C))
        T = C.copy()
        for j, Bj in enumerate(B):
            if Bj:
                C[j + shift] ^= exp[coef_log + log[Bj]]
        if 2 * L <= i:
            L, B, b, shift = i + 1 - L, T, d, 1
        else:
            shift += 1
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    degree = len(C) - 1
    return None if degree != L or degree > t else C


def _ref_chien_roots(locator, exp, log, n):
    s = np.arange(n, dtype=np.int64)
    vals = np.full(n, locator[0], dtype=np.int64)
    exp_np = np.array(exp[:n], dtype=np.int64)
    for deg in range(1, len(locator)):
        if locator[deg]:
            vals ^= exp_np[(log[locator[deg]] + deg * s) % n]
    return np.flatnonzero(vals == 0)


def _ref_decode(bits, params):
    """(key bits, corrected errors) or the DecodeFailure message."""
    exp, log = _ref_field(params.m)
    n = params.n
    syn = _ref_syndromes(bits, params, exp)
    if not syn.any():
        return bits[: params.k].copy(), 0
    locator = _ref_berlekamp_massey([int(v) for v in syn], exp, log, n, params.t)
    if locator is None:
        return "no codeword within the correction radius"
    roots = _ref_chien_roots(locator, exp, log, n)
    if roots.size != len(locator) - 1:
        return "error locator does not split over the field"
    corrected = bits.copy()
    corrected[(n - 1 - (n - roots) % n).astype(int)] ^= 1
    if _ref_syndromes(corrected, params, exp).any():
        return "corrected word fails re-verification"
    return corrected[: params.k].copy(), int(roots.size)


def _outcome(bits, params):
    try:
        key = decode(bits, params)
    except DecodeFailure as exc:
        return str(exc)
    return key.key_bits, key.corrected_errors


EQUIVALENCE_CODES = [(127, 22, 23), (15, 5, 3), (63, 16, 11), (127, 57, 11)]


@pytest.mark.parametrize("n,k,t", EQUIVALENCE_CODES)
def test_decode_matches_reference_decoder(n, k, t):
    # 5,000 words per code: codewords with 0..t+3 flips, then uniform words
    params = next(p for p in code_table(n) if p.t == t)
    assert params.k == k
    rng = np.random.default_rng(n * 1000 + t)
    outcomes = set()
    for i in range(5000):
        if i < 2500:
            word = encode(rng.integers(0, 2, k).astype(np.uint8), params)
            word[rng.choice(n, size=i % (t + 4), replace=False)] ^= 1
        else:
            word = rng.integers(0, 2, n).astype(np.uint8)
        got, want = _outcome(word, params), _ref_decode(word, params)
        if isinstance(want, str):
            assert got == want, (i, word)
        else:
            assert not isinstance(got, str), (i, word, got)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], (i, word)
        outcomes.add(want if isinstance(want, str) else "key")
    assert {"key", "no codeword within the correction radius",
            "error locator does not split over the field"} <= outcomes


@given(st.integers(min_value=0, max_value=(1 << P127.k) - 1),
       st.sets(st.integers(min_value=0, max_value=P127.n - 1), max_size=P127.t + 8))
@settings(max_examples=200, deadline=None)
def test_decoded_key_reencodes_within_t(message, flips):
    msg = np.array([(message >> i) & 1 for i in range(P127.k)], dtype=np.uint8)
    word = encode(msg, P127)
    word[sorted(flips)] ^= 1
    try:
        key = decode(word, P127)
    except DecodeFailure:
        assert len(flips) > P127.t
        return
    dist = int(np.count_nonzero(encode(key.key_bits, P127) ^ word))
    assert dist <= P127.t
    assert key.corrected_errors == dist


# -- serialization ---------------------------------------------------------------------

def test_key_bytes_msb_first_zero_padded():
    key = FuzzyKey(key_bits=np.array([1, 0, 1], dtype=np.uint8), params=P15,
                   corrected_errors=0)
    assert key.to_bytes() == b"\xa0"
    key22 = FuzzyKey(key_bits=np.ones(22, dtype=np.uint8), params=P127,
                     corrected_errors=0)
    raw = key22.to_bytes()
    assert len(raw) == 3
    assert raw == b"\xff\xff\xfc"
