import hashlib
import hmac
import itertools
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from gaitpair import protocol
from gaitpair.config import Config
from gaitpair.dataset_io import SyntheticGaitSpec, generate_synthetic, sliding_windows
from gaitpair.errors import ConfigError, ConfirmMismatch, MalformedMessage
from gaitpair.fingerprint import compute_fingerprint
from gaitpair.fuzzy_ecc import encode
from gaitpair.gait import detect_cycles
from gaitpair.protocol import (
    ABORT_REASONS,
    MSG_ABORT,
    MSG_CONFIRM,
    MSG_NONCE,
    MSG_RELIABILITY_ORDER,
    Session,
    confirm_key,
    decode_frame,
    decode_reliability_payload,
    encode_frame,
    encode_reliability_payload,
    run_pair_in_memory,
    session_code_params,
    verify_confirm,
)
from gaitpair.signals import preprocess_record

from helpers import craft_codeword_pair, delta_to_sequence, random_delta_sequence


# -- wire format -------------------------------------------------------------------

def test_frame_encoding_byte_exact():
    frame = encode_frame(MSG_RELIABILITY_ORDER, b"xy")
    assert frame == b"\x01\x02\x00\x02xy"
    msg_type, payload = decode_frame(frame)
    assert msg_type == MSG_RELIABILITY_ORDER and payload == b"xy"


def test_frame_rejects_bad_version():
    with pytest.raises(MalformedMessage):
        decode_frame(b"\x02\x01\x00\x00")


def test_frame_rejects_truncation():
    with pytest.raises(MalformedMessage):
        decode_frame(b"\x01\x01\x00\x05abc")


def test_reliability_payload_layout():
    # N = 3 indices of an M = 4 bit fingerprint, then a 1-byte helper
    payload = encode_reliability_payload(np.array([2, 0, 3]), b"\xa5")
    assert payload == b"\x00\x03" + b"\x02\x00\x03" + b"\xa5"
    indices, helper = decode_reliability_payload(payload, 4, 3, 1)
    assert np.array_equal(indices, [2, 0, 3]) and helper == b"\xa5"
    for bad in (payload[:-1], payload + b"\x00", payload[:1]):
        with pytest.raises(MalformedMessage):
            decode_reliability_payload(bad, 4, 3, 1)


def test_reliability_payload_bytes_are_pinned():
    # one index byte per entry, in order, then the helper: the first 128 of
    # orders of M = 128, 192, 256 and an order that opens with index 255;
    # the digest pins the bytes of the per-entry encoder
    digest = hashlib.sha256()
    helper = bytes(range(14))
    orders = [np.random.default_rng(m).permutation(m)[:128] for m in (128, 192, 256)]
    for order in orders + [np.r_[255, np.arange(127)]]:
        payload = encode_reliability_payload(order, helper)
        assert payload == (struct.pack(">H", 128) + bytes(int(v) for v in order)
                           + helper)
        digest.update(payload)
    assert digest.hexdigest() == (
        "44589767909c8009fb921f4f18dd228a8780250fbac1a5fdc4b92ecde925b1e3")


def test_reliability_payload_rejects_non_permutation():
    # N = 3 distinct indices below M = 4 and a 1-byte helper, or malformed
    for payload, message in [
            (b"\x00\x02\x00\x01\xff", "2 reliability indices, not N=3"),
            (b"\x00\x03\x00\x00\x01\xff", "repeated reliability index"),
            (b"\x00\x03\x00\x04\x01\xff", "reliability index 4 >= M=4"),
            (b"\x00\x03\x00\x02\x01", "reliability payload length 5 != 6")]:
        with pytest.raises(MalformedMessage, match=f"^{re.escape(message)}$"):
            decode_reliability_payload(payload, 4, 3, 1)


def test_wire_format_doc_matches_the_code():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "wire-format.md").read_text(
        encoding="utf-8")
    # the table names a type in CamelCase, the constant in UPPER_SNAKE case
    types = {re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper(): int(value, 16)
             for value, name in re.findall(r"^\| `0x([0-9a-f]{2})` \| (\w+)", doc, re.M)}
    constants = {name[len("MSG_"):]: value for name, value in vars(protocol).items()
                 if name.startswith("MSG_")}
    assert types == constants
    section = doc.split("## Abort payload", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^- `([^`]+)`$", section, re.M)) == ABORT_REASONS


# -- sessions ------------------------------------------------------------------------

def test_identical_decodable_inputs_establish(cfg, code_params):
    seq_a, _, msg = craft_codeword_pair(10, 0, cfg, code_params)
    res_a, res_b = run_pair_in_memory(seq_a, seq_a, cfg, seed=1)
    assert res_a.established and res_b.established
    assert res_a.secret == res_b.secret
    assert len(res_a.secret) == 32
    assert np.array_equal(res_a.key.key_bits, msg)
    assert res_b.key.corrected_errors == 0


def test_flipped_reliable_bits_still_establish(cfg, code_params):
    seq_a, seq_b, msg = craft_codeword_pair(11, code_params.t, cfg, code_params)
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, seed=2)
    assert res_a.established and res_b.established
    assert res_a.secret == res_b.secret
    # the initiator does not decode; the responder corrects its t flips
    assert (res_a.key.corrected_errors, res_b.key.corrected_errors) == (0, code_params.t)
    assert np.array_equal(res_b.key.key_bits, msg)


def test_independent_inputs_fail(cfg):
    res_a, res_b = run_pair_in_memory(random_delta_sequence(1, cfg),
                                      random_delta_sequence(2, cfg),
                                      cfg, seed=3)
    assert not res_a.established and not res_b.established
    assert res_a.secret is None and res_b.secret is None


def test_different_keys_fail_at_confirmation_not_silently(cfg, code_params):
    # the responder decodes cleanly, but to its own codeword's message, not
    # the initiator's key: key confirmation must fail, never hand out
    # unequal secrets
    seq_a, _, msg_a = craft_codeword_pair(40, 0, cfg, code_params)
    seq_b, _, msg_b = craft_codeword_pair(41, 0, cfg, code_params)
    assert not np.array_equal(msg_a, msg_b)
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, seed=8)
    assert not res_a.established and not res_b.established
    assert res_a.secret is None and res_b.secret is None
    assert res_a.failure == "ConfirmMismatch: key confirmation MAC mismatch"
    assert res_b.failure == "peer abort: key confirmation failed"


def test_order_agreement_instrumentation(cfg, code_params):
    seq_a, seq_b, _ = craft_codeword_pair(12, 5, cfg, code_params)
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, seed=4)
    assert res_a.applied_order.shape == (cfg.cutoff,)
    assert np.array_equal(res_a.applied_order, res_b.applied_order)
    # both ends apply the first N entries of the initiator's own order,
    # whichever record opens
    pair = [random_delta_sequence(i, cfg) for i in (1, 2)]
    for seq_a, seq_b in (pair, pair[::-1]):
        own_a, own_b = (compute_fingerprint(seq, cfg.bits_per_cycle)[1]
                        for seq in (seq_a, seq_b))
        assert not np.array_equal(own_a, own_b)
        for seed in range(4):
            for res in run_pair_in_memory(seq_a, seq_b, cfg, seed=seed):
                assert np.array_equal(res.applied_order, own_a[:cfg.cutoff])


def test_role_symmetry(cfg, code_params):
    seq_a, seq_b, _ = craft_codeword_pair(13, 7, cfg, code_params)
    fwd = run_pair_in_memory(seq_a, seq_b, cfg, seed=5)
    rev = run_pair_in_memory(seq_b, seq_a, cfg, seed=5)
    assert fwd[0].established == rev[0].established == True  # noqa: E712
    ind_fwd = run_pair_in_memory(random_delta_sequence(3, cfg),
                                 random_delta_sequence(4, cfg), cfg, seed=6)
    ind_rev = run_pair_in_memory(random_delta_sequence(4, cfg),
                                 random_delta_sequence(3, cfg), cfg, seed=6)
    assert ind_fwd[0].established == ind_rev[0].established == False  # noqa: E712


def _gait_windows(seed: int, cfg) -> dict:
    """Every record's windows in the 4-subject, 300-cycle corpus of ``seed``,
    keyed by (subject, position)."""
    spec = SyntheticGaitSpec(n_cycles=300, n_subjects=4, rng_seed=seed)
    windows = {}
    for rec in generate_synthetic(spec).records:
        sig = preprocess_record(rec, band=cfg.band)
        windows[rec.subject_id, rec.position] = sliding_windows(
            sig, cfg.cycles_per_fingerprint, overlap=0.5, rho=cfg.rho,
            detection=detect_cycles(sig))
    return windows


# seed 1001 is left out: cycle detection locks onto a harmonic on its s03
# body, whose windows then repeat one fixed pattern and inflate its rate
@pytest.mark.parametrize("seed, same_body", [(7, 166), (11, 221)])
def test_gait_sessions_establish_exactly_within_t(cfg, code_params, seed, same_body):
    # one seeded session on every directed pair of same-index windows of one
    # body at two positions, and of two bodies at one position
    windows = _gait_windows(seed, cfg)
    established = {True: 0, False: 0}
    sessions = {True: 0, False: 0}
    for key_a, key_b in itertools.permutations(windows, 2):
        same = key_a[0] == key_b[0]
        if not same and key_a[1] != key_b[1]:
            continue
        for w, (win_a, win_b) in enumerate(zip(windows[key_a], windows[key_b])):
            res_a, res_b = run_pair_in_memory(win_a.sequence, win_b.sequence, cfg,
                                              seed=w)
            (fp_a, order), (fp_b, _) = (
                compute_fingerprint(win.sequence, cfg.bits_per_cycle)
                for win in (win_a, win_b))
            top = order[:code_params.n]
            distance = int(np.count_nonzero(fp_a.bits[top] != fp_b.bits[top]))
            assert res_a.established == res_b.established == (distance <= code_params.t)
            established[same] += res_a.established
            sessions[same] += 1
    assert (established[True], sessions[True]) == (same_body, 264)
    assert (established[False], sessions[False]) == (0, 396)


def shuttle(a: Session, b: Session) -> tuple[list[bytes], list[bytes]]:
    """Hand frames between two sessions until neither has one to send, and
    return the frames each one sent."""
    to_b, to_a = a.start(), b.start()
    sent = (list(to_b), list(to_a))
    while to_a or to_b:
        to_a, to_b = ([out for frame in to_b for out in b.receive(frame)],
                      [out for frame in to_a for out in a.receive(frame)])
        sent[0].extend(to_b)
        sent[1].extend(to_a)
    return sent


# name -> (build(cfg, params) -> (initiator's sequence, responder's sequence),
#          frames and bytes both ends send)
SESSION_KINDS = {
    "established": (lambda c, p: craft_codeword_pair(11, p.t, c, p)[:2], 5, 260),
    "responder fails decode":
        (lambda c, p: craft_codeword_pair(12, p.t + 1, c, p)[:2], 3, 186),
    "initiator holds the flips":
        (lambda c, p: craft_codeword_pair(12, p.t + 1, c, p)[1::-1], 3, 186),
    "independent":
        (lambda c, p: (random_delta_sequence(1, c), random_delta_sequence(2, c)), 3, 186),
    "mismatched keys": (lambda c, p: (craft_codeword_pair(40, 0, c, p)[0],
                                      craft_codeword_pair(41, 0, c, p)[0]), 5, 251),
}


@pytest.mark.parametrize("kind", sorted(SESSION_KINDS))
def test_frames_a_session_sends(cfg, code_params, kind):
    build, n_frames, n_bytes = SESSION_KINDS[kind]
    seq_a, seq_b = build(cfg, code_params)
    sent_a, sent_b = shuttle(Session(seq_a, cfg, initiator=True),
                             Session(seq_b, cfg, initiator=False))
    # the initiator's order opens the session, and it is the only one sent
    types_a = [decode_frame(f)[0] for f in sent_a]
    assert types_a[0] == MSG_RELIABILITY_ORDER
    assert MSG_RELIABILITY_ORDER not in types_a[1:] + [decode_frame(f)[0] for f in sent_b]
    frames = sent_a + sent_b
    assert (len(frames), sum(len(f) for f in frames)) == (n_frames, n_bytes)


def test_in_memory_end_left_waiting_times_out(cfg, code_params, monkeypatch):
    # the initiator's final Confirm is lost, so the responder waits for a
    # confirmation that never comes
    class DropsFinalConfirm(Session):
        def receive(self, frame):
            out = super().receive(frame)
            if self._initiator:  # the initiator's only Confirm is the final one
                out = [f for f in out if decode_frame(f)[0] != MSG_CONFIRM]
            return out

    monkeypatch.setattr(protocol, "Session", DropsFinalConfirm)
    seq_a, seq_b, _ = craft_codeword_pair(19, 0, cfg, code_params)
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, seed=9)
    assert res_a.established
    assert res_b.failure == "peer stopped sending"


def test_initiator_answers_a_wrong_confirm_with_an_abort_not_its_own(cfg, code_params):
    seq_a, _, _ = craft_codeword_pair(18, 0, cfg, code_params)
    a = Session(seq_a, cfg, initiator=True)
    sent = a.start()
    sent += a.receive(encode_frame(MSG_NONCE, bytes(range(16))))
    sent += a.receive(encode_frame(MSG_CONFIRM, b"\x5a" * 32))
    assert [decode_frame(f)[0] for f in sent] == [MSG_RELIABILITY_ORDER, MSG_NONCE,
                                                  MSG_ABORT]
    assert decode_frame(sent[-1])[1] == b"key confirmation failed"
    assert not a.result.established
    assert a.result.failure == "ConfirmMismatch: key confirmation MAC mismatch"


def test_no_fingerprint_bits_on_the_wire(cfg, code_params):
    from gaitpair.fingerprint import average_cycle, quantize
    seq_a, seq_b, _ = craft_codeword_pair(15, 9, cfg, code_params)
    capture = []
    run_pair_in_memory(seq_a, seq_b, cfg, seed=7, capture=capture)
    assert len(capture) == 5
    blob = b"|".join(capture)
    for seq in (seq_a, seq_b):
        fp = quantize(seq, average_cycle(seq), cfg.bits_per_cycle)
        packed = np.packbits(fp.bits).tobytes()
        assert packed not in blob
        assert np.packbits(1 - fp.bits).tobytes() not in blob


def _transcript_entry(label: bytes, value: bytes) -> bytes:
    return struct.pack(">H", len(label)) + label + struct.pack(">I", len(value)) + value


def test_brute_force_of_a_captured_transcript_succeeds_today():
    # Without a PAKE, a passive listener who knows only docs/wire-format.md
    # tries every key against the responder's Confirm and recovers the
    # session secret.  A PAKE must make this search fail; this test then
    # flips to assert that it does.
    cfg = Config(threshold=0.75)
    params = session_code_params(cfg)
    assert params.k == 8
    seq_a, seq_b, _ = craft_codeword_pair(16, params.t, cfg, params)
    capture = []
    res_a, res_b = run_pair_in_memory(seq_a, seq_b, cfg, capture=capture)
    assert res_a.established and res_b.established

    # frame = version, type, 2-byte length, payload; the order frame enters
    # the transcript whole, the nonces as payloads, initiator's first
    order = next(f for f in capture if f[1] == 0x02)
    nonce_a, nonce_b = (f[4:] for f in capture if f[1] == 0x03)
    confirm_b = next(f[4:] for f in capture if f[1] == 0x04)
    digest = hashlib.sha256(_transcript_entry(b"order", order)
                            + _transcript_entry(b"nonce-A", nonce_a)
                            + _transcript_entry(b"nonce-B", nonce_b)).digest()
    recovered = []
    for bits in itertools.product((0, 1), repeat=params.k):
        key = np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
        secret = hashlib.sha256(b"gaitpair-secret-v1" + key + digest).digest()
        mac_key = hashlib.sha256(b"gaitpair-confirm-v1" + secret).digest()
        if hmac.compare_digest(
                hmac.new(mac_key, b"B" + digest, hashlib.sha256).digest(), confirm_b):
            recovered.append(secret)
    assert recovered == [res_a.secret]


def _order_frame(seq, cfg) -> bytes:
    """The opening frame of an initiator on ``seq``."""
    return Session(seq, cfg, initiator=True).start()[0]


def test_opening_frame_carries_the_initiators_indices_and_helper(cfg, code_params):
    seq = random_delta_sequence(5, cfg)
    fp, order = compute_fingerprint(seq, cfg.bits_per_cycle)
    word = fp.bits[order[:code_params.n]]
    k = code_params.k
    msg_type, payload = decode_frame(_order_frame(seq, cfg))
    assert msg_type == MSG_RELIABILITY_ORDER and len(payload) == 2 + 128 + 14
    indices, helper = decode_reliability_payload(payload, fp.bits.size, cfg.cutoff, 14)
    assert np.array_equal(indices, order[:cfg.cutoff])
    syndrome = np.unpackbits(np.frombuffer(helper, dtype=np.uint8))
    assert np.array_equal(syndrome[:105], encode(word[:k], code_params)[k:] ^ word[k:])
    assert not syndrome[105:].any()


@pytest.mark.parametrize("edit, reason", [
    (lambda p: b"\x00\x7f" + p[2:129] + p[130:], "127 reliability indices, not N=128"),
    (lambda p: p[:3] + p[2:3] + p[4:], "repeated reliability index"),
    (lambda p: p[:2] + b"\xc0" + p[3:], "reliability index 192 >= M=192"),
    (lambda p: p[:-1], "reliability payload length 143 != 144"),
])
def test_an_opening_that_is_not_n_indices_and_a_helper_is_malformed(
        cfg, code_params, edit, reason):
    seq_b, _, _ = craft_codeword_pair(17, 0, cfg, code_params)
    payload = decode_frame(_order_frame(seq_b, cfg))[1]
    b = Session(seq_b, cfg, initiator=False)
    out = b.receive(encode_frame(MSG_RELIABILITY_ORDER, edit(payload)))
    assert b.result.failure == f"malformed message: {reason}"
    assert b.result.applied_order is None
    assert out == [encode_frame(MSG_ABORT, b"malformed message")]


def test_malformed_message_fails_session(cfg, code_params):
    seq_b, _, _ = craft_codeword_pair(17, 0, cfg, code_params)
    b = Session(seq_b, cfg, initiator=False)
    assert b.start() == []
    assert b.receive(_order_frame(seq_b, cfg)) == []  # it answers the nonce, not the order
    out = b.receive(encode_frame(0x7F, b"junk"))
    assert not b.result.established
    assert "malformed" in b.result.failure
    assert [decode_frame(f)[0] for f in out] == [MSG_ABORT]


def test_a_nonce_of_the_wrong_size_is_malformed(cfg, code_params):
    seq_b, _, _ = craft_codeword_pair(17, 0, cfg, code_params)
    b = Session(seq_b, cfg, initiator=False)
    b.receive(_order_frame(seq_b, cfg))
    out = b.receive(encode_frame(MSG_NONCE, bytes(15)))
    assert b.result.failure == "malformed message: nonce of 15 bytes, not 16"
    assert out == [encode_frame(MSG_ABORT, b"malformed message")]


def test_opening_type_0x01_is_malformed(cfg, code_params):
    seq_b, _, _ = craft_codeword_pair(17, 0, cfg, code_params)
    b = Session(seq_b, cfg, initiator=False)
    out = b.receive(encode_frame(0x01))
    assert b.result.failure == "malformed message: expected message type 2, got 1"
    assert b.result.applied_order is None
    assert out == [encode_frame(MSG_ABORT, b"malformed message")]


def test_initiator_rejects_an_order(cfg, code_params):
    seq_a, _, _ = craft_codeword_pair(17, 0, cfg, code_params)
    a = Session(seq_a, cfg, initiator=True)
    assert [decode_frame(f)[0] for f in a.start()] == [MSG_RELIABILITY_ORDER, MSG_NONCE]
    out = a.receive(_order_frame(seq_a, cfg))
    assert a.result.failure == "malformed message: expected message type 3, got 2"
    assert out == [encode_frame(MSG_ABORT, b"malformed message")]


def test_peer_abort_text_is_bounded(cfg, code_params):
    seq_b, _, _ = craft_codeword_pair(17, 0, cfg, code_params)
    b = Session(seq_b, cfg, initiator=False)
    b.receive(_order_frame(seq_b, cfg))
    control = bytes(i % 32 for i in range(60_000))
    assert b.receive(encode_frame(MSG_ABORT, control)) == []
    failure = b.result.failure
    assert failure == "peer abort: unrecognised reason (60000 bytes)"
    assert len(failure) <= 64 and failure.isprintable()


@pytest.mark.parametrize("initiator", [True, False])
@pytest.mark.parametrize("cycles,message", [
    (65, "M=260 exceeds the wire encoding limit of 256"),
    (24, "need M >= cutoff, got M=96, cutoff=128"),
])
def test_session_rejects_a_window_of_the_wrong_size(cfg, initiator, cycles, message):
    delta = np.random.default_rng(cycles).normal(size=(cycles, cfg.bits_per_cycle))
    seq = delta_to_sequence(delta - delta.mean(axis=0), cfg.rho, cfg.bits_per_cycle)
    with pytest.raises(ConfigError, match=message):
        Session(seq, cfg, initiator=initiator)


# -- key confirmation ---------------------------------------------------------------

def test_confirm_roundtrip():
    secret = b"\x11" * 32
    transcript = b"transcript-bytes"
    mac = confirm_key(secret, transcript, "A")
    verify_confirm(secret, transcript, "A", mac)
    assert len(mac) == 32


def test_confirm_rejects_one_bit_secret_change():
    transcript = b"t"
    mac = confirm_key(b"\x00" * 32, transcript, "A")
    with pytest.raises(ConfirmMismatch):
        verify_confirm(b"\x01" + b"\x00" * 31, transcript, "A", mac)


def test_confirm_rejects_tampered_transcript():
    rng = np.random.default_rng(1)
    secret = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
    transcript = bytes(rng.integers(0, 256, 200, dtype=np.uint8))
    mac = confirm_key(secret, transcript, "B")
    false_accepts = 0
    for _ in range(10_000):
        pos = int(rng.integers(0, len(transcript)))
        delta = int(rng.integers(1, 256))
        tampered = bytearray(transcript)
        tampered[pos] ^= delta
        try:
            verify_confirm(secret, bytes(tampered), "B", mac)
            false_accepts += 1
        except ConfirmMismatch:
            pass
    assert false_accepts == 0


def test_confirm_role_separation():
    secret = b"\x22" * 32
    mac = confirm_key(secret, b"tr", "A")
    with pytest.raises(ConfirmMismatch):
        verify_confirm(secret, b"tr", "B", mac)
