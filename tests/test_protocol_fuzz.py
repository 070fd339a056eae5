"""Property tests: the wire decoders and the session machine on arbitrary input.

Decoders either return a value or raise ``MalformedMessage``.  A ``Session``
fed any sequence of frames never raises, never establishes, and only ever
emits well-formed frames.  Two sessions talking through a relay that drops,
duplicates, reorders and truncates frames never raise, only emit well-formed
frames, and any end that establishes holds the undisturbed run's secret.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpair.config import Config
from gaitpair.errors import MalformedMessage
from gaitpair.fingerprint import compute_fingerprint
from gaitpair.protocol import (
    MSG_ABORT,
    MSG_CONFIRM,
    MSG_NONCE,
    MSG_RELIABILITY_ORDER,
    Session,
    decode_frame,
    decode_reliability_payload,
    encode_frame,
    encode_reliability_payload,
    run_pair_in_memory,
    session_code_params,
)

from helpers import craft_codeword_pair

CFG = Config()
# a gait sequence whose own reduced fingerprint decodes, so a session on it
# reaches the nonce exchange whenever its own ordering applies
SEQ = craft_codeword_pair(21, 0, CFG, session_code_params(CFG))[0]


def order_payload(order) -> bytes:
    return encode_reliability_payload(np.asarray(order))


OWN_ORDER = compute_fingerprint(SEQ, CFG.bits_per_cycle)[1]
payloads = st.one_of(
    st.binary(max_size=64),
    st.builds(order_payload,
              st.one_of(st.just(OWN_ORDER), st.permutations(range(CFG.fingerprint_bits)))),
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=32, max_size=32),
)
msg_types = st.one_of(
    st.sampled_from([MSG_RELIABILITY_ORDER, MSG_NONCE, MSG_CONFIRM, MSG_ABORT]),
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
        order = decode_reliability_payload(data)
    except MalformedMessage:
        return
    assert np.array_equal(np.sort(order), np.arange(order.shape[0]))
    assert encode_reliability_payload(order) == data


def plausible_opening(initiator: bool) -> list[bytes]:
    """Frames that take the session to its confirmation: the session's own
    ordering (to a responder), so its key decodes, and a 16-byte nonce."""
    opening = [] if initiator else [
        encode_frame(MSG_RELIABILITY_ORDER, order_payload(OWN_ORDER))]
    return opening + [encode_frame(MSG_NONCE, bytes(16))]


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


# crafted pairs that establish (0 and t flips) and one that fails (t + 1 flips)
PARAMS = session_code_params(CFG)
PAIRS = [craft_codeword_pair(30 + i, flips, CFG, PARAMS)[:2]
         for i, flips in enumerate((0, PARAMS.t, PARAMS.t + 1))]


@lru_cache(maxsize=None)
def undisturbed(pair: int, seed: int):
    return run_pair_in_memory(*PAIRS[pair], CFG, seed=seed)


relay_ops = st.lists(st.tuples(
    st.integers(0, 9),      # frames delivered cleanly first, so any phase is hit
    st.sampled_from(["drop", "duplicate", "reorder", "truncate"]),
    st.booleans(),          # the end whose inbound queue the op acts on
    st.integers(0, 300)),   # kept length for a truncation
    max_size=6)


@settings(deadline=None)
@given(st.integers(0, len(PAIRS) - 1), st.integers(0, 7), relay_ops)
def test_two_sessions_through_a_mangling_relay(pair, seed, ops):
    rng = np.random.default_rng(seed)  # as run_pair_in_memory seeds both ends
    ends = (Session(PAIRS[pair][0], CFG, initiator=True, nonce_rng=rng),
            Session(PAIRS[pair][1], CFG, initiator=False, nonce_rng=rng))
    inbound = (deque(), deque())  # frames in flight to end 0 and to end 1

    def send(sender: int, frames: list[bytes]) -> None:
        for frame in frames:
            decode_frame(frame)
        inbound[1 - sender].extend(frames)

    def feed(end: int, frame: bytes) -> None:
        send(end, ends[end].receive(frame))

    def deliver_clean(n: int) -> None:
        while n > 0 and (inbound[0] or inbound[1]):
            for end in (0, 1):
                if inbound[end] and n > 0:
                    feed(end, inbound[end].popleft())
                    n -= 1

    send(0, ends[0].start())
    send(1, ends[1].start())
    for clean, op, to_b, keep in ops:
        deliver_clean(clean)
        end = int(to_b) if inbound[int(to_b)] else 1 - int(to_b)
        queue = inbound[end]
        if not queue:
            break
        if op == "reorder":
            queue.rotate(-1)
            continue
        frame = queue.popleft()
        if op == "truncate":
            frame = frame[:keep % len(frame)]
        if op != "drop":
            feed(end, frame)
        if op == "duplicate":
            feed(end, frame)
    deliver_clean(float("inf"))  # then the relay behaves

    for end, reference in zip(ends, undisturbed(pair, seed)):
        if end.result is not None and end.result.established:
            assert end.result.secret == reference.secret
