import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpair.errors import (
    CutoffTooLarge,
    IndivisibleSegments,
    LengthMismatch,
    TooFewCycles,
)
from gaitpair.fingerprint import (
    Fingerprint,
    average_cycle,
    quantize,
    reduce,
    reliability_order,
    similarity,
)
from gaitpair.gait import GaitSequence

from helpers import delta_to_sequence


def seq_from(cycles):
    cycles = np.asarray(cycles, dtype=float)
    return GaitSequence(cycles=cycles, rho=cycles.shape[-1])


#: leading shapes: one window's (q, rho) cycles, and a batch of 3 such windows
LEADS = ((), (3,))


# -- average cycle -----------------------------------------------------------------

def test_average_of_identical_cycles():
    cyc = np.tile(np.arange(8.0), (5, 1))
    assert np.array_equal(average_cycle(seq_from(cyc)), np.arange(8.0))


def test_average_two_constant_cycles():
    avg = average_cycle(seq_from([[1, 1, 1, 1], [3, 3, 3, 3]]))
    assert np.array_equal(avg, [2.0, 2.0, 2.0, 2.0])


def test_average_matches_column_mean_oracle():
    rng = np.random.default_rng(0)
    cyc = rng.standard_normal((48, 40))
    avg = average_cycle(seq_from(cyc))
    oracle = np.array([np.mean(cyc[:, j]) for j in range(40)])
    assert np.allclose(avg, oracle, atol=1e-12)


def test_average_needs_two_cycles():
    for lead in LEADS:
        with pytest.raises(TooFewCycles):
            average_cycle(seq_from(np.ones((*lead, 1, 4))))


# -- quantization -------------------------------------------------------------------

def test_quantize_hand_example():
    # A=(2,2,2,2), Z=((1,1,3,3)), b=2: segment sums are +2 and -2
    seq = seq_from([[1, 1, 3, 3]])
    avg = np.array([2.0, 2.0, 2.0, 2.0])
    fp = quantize(seq, avg, b=2)
    assert np.array_equal(fp.deltas, [2.0, -2.0])
    assert np.array_equal(fp.bits, [1, 0])


def test_quantize_zero_delta_maps_to_zero_bit():
    cyc = np.tile(np.arange(8.0), (4, 1))
    seq = seq_from(cyc)
    fp = quantize(seq, average_cycle(seq), b=2)
    assert np.array_equal(fp.deltas, np.zeros(8))
    assert np.array_equal(fp.bits, np.zeros(8, dtype=np.uint8))


def test_quantize_matches_per_sample_oracle():
    rng = np.random.default_rng(1)
    q, rho, b = 12, 40, 4
    cyc = rng.standard_normal((q, rho))
    seq = seq_from(cyc)
    avg = average_cycle(seq)
    fp = quantize(seq, avg, b)
    seg = rho // b
    oracle = np.empty((q, b))
    for i in range(q):
        for j in range(b):
            total = 0.0
            for k in range(seg):
                total += avg[j * seg + k] - cyc[i, j * seg + k]
            oracle[i, j] = total
    assert np.allclose(fp.deltas, oracle.ravel(), atol=1e-12)
    assert np.array_equal(fp.bits, (oracle.ravel() > 0).astype(np.uint8))
    assert fp.bits.size == q * b


def test_quantize_deployment_shape():
    rng = np.random.default_rng(2)
    seq = seq_from(rng.standard_normal((48, 40)))
    fp = quantize(seq, average_cycle(seq), b=4)
    assert fp.bits.shape == fp.deltas.shape == (192,)


def test_quantize_rejects_indivisible_segments():
    for lead in LEADS:
        seq = seq_from(np.ones((*lead, 4, 40)))
        with pytest.raises(IndivisibleSegments):
            quantize(seq, np.ones((*lead, 40)), b=3)


def test_quantize_rejects_wrong_average_length():
    for lead in LEADS:
        seq = seq_from(np.ones((*lead, 4, 40)))
        with pytest.raises(LengthMismatch):
            quantize(seq, np.ones((*lead, 20)), b=4)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_sign_bit_consistency(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 10))
    b = int(rng.choice([1, 2, 4, 5]))
    rho = b * int(rng.integers(2, 8))
    seq = seq_from(rng.standard_normal((q, rho)))
    fp = quantize(seq, average_cycle(seq), b)
    assert np.array_equal(fp.bits == 1, fp.deltas > 0)


# -- reliability ordering ----------------------------------------------------------------

def fp_from_deltas(deltas):
    deltas = np.asarray(deltas, dtype=float)
    return Fingerprint(bits=(deltas > 0).astype(np.uint8), deltas=deltas)


def test_reliability_order_example():
    order = reliability_order(fp_from_deltas([0.1, -5.0, 2.0]))
    assert np.array_equal(order, [1, 2, 0])


def test_reliability_order_stable_on_ties():
    order = reliability_order(fp_from_deltas([1.0, -1.0, 1.0, -1.0]))
    assert np.array_equal(order, [0, 1, 2, 3])


def test_reliability_order_matches_sort_oracle():
    rng = np.random.default_rng(3)
    deltas = rng.standard_normal(64)
    order = reliability_order(fp_from_deltas(deltas))
    oracle = sorted(range(64), key=lambda i: (-abs(deltas[i]), i))
    assert np.array_equal(order, oracle)


# -- reduction ----------------------------------------------------------------------------

def test_reduce_identity_full_length():
    fp = fp_from_deltas(np.arange(1.0, 9.0))
    red = reduce(fp, np.arange(8), 8)
    assert np.array_equal(red.bits, fp.bits)


def test_reduce_drops_least_reliable():
    rng = np.random.default_rng(4)
    deltas = rng.standard_normal(32)
    fp = fp_from_deltas(deltas)
    red = reduce(fp, reliability_order(fp), 24)
    dropped = set(range(32)) - set(reliability_order(fp)[:24].tolist())
    smallest = set(np.argsort(np.abs(deltas), kind="stable")[:8].tolist())
    assert dropped == smallest
    assert red.bits.size == 24


def test_reduce_keeps_the_kept_deltas_in_the_applied_order():
    fp = fp_from_deltas([0.5, -3.0, 0.0, 2.0, -1.0])
    red = reduce(fp, np.array([3, 1, 4, 0, 2]), 3)
    assert np.array_equal(red.deltas, [2.0, -3.0, -1.0])
    assert np.array_equal(red.bits, [1, 0, 0])


def test_reduce_deployment_shape():
    rng = np.random.default_rng(5)
    fp = fp_from_deltas(rng.standard_normal(192))
    red = reduce(fp, reliability_order(fp), 128)
    assert red.bits.shape == (128,)


def test_reduce_cutoff_too_large():
    fp = fp_from_deltas(np.ones(8))
    with pytest.raises(CutoffTooLarge):
        reduce(fp, reliability_order(fp), 9)


def test_reduce_rejects_non_permutation():
    fp = fp_from_deltas(np.ones(8))
    with pytest.raises(ValueError):
        reduce(fp, np.zeros(8, dtype=int), 4)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_reduce_permutation_safety(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 64))
    n_keep = int(rng.integers(1, m + 1))
    deltas = rng.standard_normal(m)
    fp = fp_from_deltas(deltas)
    order = reliability_order(fp)
    red = reduce(fp, order, n_keep)
    for out_i in range(n_keep):
        assert red.bits[out_i] == fp.bits[order[out_i]]


# -- similarity ---------------------------------------------------------------------------

def _reduced(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    return Fingerprint(bits=bits, deltas=np.zeros(bits.shape))


def test_similarity_identical():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, 128).astype(np.uint8)
    assert similarity(_reduced(bits), _reduced(bits.copy())) == 1.0


def test_similarity_complementary():
    bits = np.zeros(64, dtype=np.uint8)
    assert similarity(_reduced(bits), _reduced(1 - bits)) == 0.0


def test_similarity_just_below_threshold():
    # 26 disagreements out of 128 is 0.796875, below the 80% bar
    a = np.zeros(128, dtype=np.uint8)
    b = a.copy()
    b[:26] ^= 1
    assert similarity(_reduced(a), _reduced(b)) == pytest.approx(0.796875, abs=0)


def test_similarity_length_mismatch():
    with pytest.raises(LengthMismatch):
        similarity(_reduced(np.zeros(8)), _reduced(np.zeros(9)))


# -- statistical behavior of the reduction -----------------------------------------------

def _noisy_pair(rng, M, sigma):
    """Crafted same-body pair: shared zero-column-mean deltas plus noise."""
    q, b = M // 4, 4
    base = rng.normal(size=(q, b))
    base -= base.mean(axis=0, keepdims=True)
    out = []
    for _ in range(2):
        d = base + sigma * rng.normal(size=(q, b))
        d -= d.mean(axis=0, keepdims=True)
        seq = delta_to_sequence(d, rho=40, b=b)
        from gaitpair.fingerprint import quantize as qz
        out.append(qz(seq, average_cycle(seq), b))
    return out


def test_reliability_reduction_improves_same_body_similarity():
    rng = np.random.default_rng(7)
    N = 128
    means = {}
    for extra in (0, 64):
        sims = []
        for _ in range(150):
            fa, fb = _noisy_pair(rng, N + extra, sigma=0.45)
            order = reliability_order(fa)
            sims.append(similarity(reduce(fa, order, N), reduce(fb, order, N)))
        means[extra] = float(np.mean(sims))
    assert means[64] > means[0]


def test_independent_pairs_agree_half_the_time():
    rng = np.random.default_rng(8)
    sims = []
    for _ in range(400):
        fa = _noisy_pair(rng, 192, sigma=0.3)[0]
        fb = _noisy_pair(rng, 192, sigma=0.3)[1]
        order = reliability_order(fa)
        sims.append(similarity(reduce(fa, order, 128), reduce(fb, order, 128)))
    assert abs(float(np.mean(sims)) - 0.5) < 0.02
