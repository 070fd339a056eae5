"""Property tests: the wire decoders and the session machine on arbitrary input.

Decoders either return a value or raise ``MalformedMessage``.  A ``Session``
fed any sequence of frames never raises, never establishes, and only ever
emits well-formed frames.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpair.config import Config
from gaitpair.errors import MalformedMessage
from gaitpair.fingerprint import ReliabilityOrder
from gaitpair.protocol import (
    MSG_ABORT,
    MSG_AUTH_REQUEST,
    MSG_CONFIRM,
    MSG_PAKE,
    MSG_RELIABILITY_EXCHANGE,
    NONCE_BITS,
    Session,
    compute_fingerprint,
    decode_frame,
    decode_reliability_payload,
    encode_frame,
    encode_reliability_payload,
    session_code_params,
)

from helpers import craft_codeword_pair

CFG = Config()
# a gait sequence whose own reduced fingerprint decodes, so a session on it
# reaches the PAKE whenever its own ordering wins
SEQ = craft_codeword_pair(21, 0, CFG, session_code_params(CFG))[0]


def exchange_payload(order, nonce: int) -> bytes:
    return encode_reliability_payload(ReliabilityOrder(order=np.asarray(order)), nonce)


OWN_ORDER = compute_fingerprint(SEQ, CFG)[1].order
payloads = st.one_of(
    st.binary(max_size=64),
    st.builds(exchange_payload,
              st.one_of(st.just(OWN_ORDER), st.permutations(range(CFG.fingerprint_bits))),
              st.integers(0, (1 << NONCE_BITS) - 1)),
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=32, max_size=32),
)
msg_types = st.one_of(
    st.sampled_from([MSG_AUTH_REQUEST, MSG_RELIABILITY_EXCHANGE, MSG_PAKE,
                     MSG_CONFIRM, MSG_ABORT]),
    st.integers(0, 255))
frames = st.one_of(st.builds(encode_frame, msg_types, payloads),
                   st.binary(max_size=300))


@given(st.binary(max_size=300))
def test_decode_frame_returns_or_raises_malformed(data):
    try:
        msg_type, payload = decode_frame(data)
    except MalformedMessage:
        return
    assert encode_frame(msg_type, payload) == data


@given(st.binary(max_size=300))
def test_decode_reliability_payload_returns_or_raises_malformed(data):
    try:
        order, nonce = decode_reliability_payload(data)
    except MalformedMessage:
        return
    assert np.array_equal(np.sort(order), np.arange(order.shape[0]))
    assert 0 <= nonce < (1 << NONCE_BITS)


def plausible_opening(initiator: bool) -> list[bytes]:
    """Frames that take the session to its PAKE salt round: the auth request
    (to a responder), an exchange with a smaller value, so the session's own
    ordering wins and its key decodes, and a PAKE commitment."""
    opening = [] if initiator else [encode_frame(MSG_AUTH_REQUEST)]
    return opening + [
        encode_frame(MSG_RELIABILITY_EXCHANGE, exchange_payload(OWN_ORDER, 0)),
        encode_frame(MSG_PAKE, bytes(32))]


@settings(deadline=None)
@given(st.booleans(), st.integers(0, 3), st.lists(frames, max_size=8))
def test_session_on_arbitrary_frames_never_raises_or_establishes(
        initiator, n_opening, inbound):
    session = Session(SEQ, CFG, initiator=initiator, nonce_rng=np.random.default_rng(0))
    sent = session.start()
    for frame in plausible_opening(initiator)[:n_opening] + inbound:
        sent += session.receive(frame)
        assert session.result is None or not session.result.established
    for frame in sent:
        decode_frame(frame)
