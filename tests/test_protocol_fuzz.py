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
PARAMS = session_code_params(CFG)
HELPER_SIZE = (PARAMS.n - PARAMS.k + 7) // 8
# a gait sequence that a responder on it decodes when its own opening frame
# arrives, so the session reaches the nonce exchange
SEQ = craft_codeword_pair(21, 0, CFG, PARAMS)[0]
OWN_OPENING = Session(SEQ, CFG, initiator=True).start()[0]


def order_payload(order, helper: bytes) -> bytes:
    return encode_reliability_payload(np.asarray(order[:CFG.cutoff]), helper)


payloads = st.one_of(
    st.binary(max_size=64),
    st.just(decode_frame(OWN_OPENING)[1]),
    st.builds(order_payload, st.permutations(range(CFG.fingerprint_bits)),
              st.binary(min_size=HELPER_SIZE, max_size=HELPER_SIZE)),
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


# N = 3 indices of an M = 5 bit fingerprint and a 1-byte helper, with
# index bytes near the bounds, so that some inputs are opening payloads
@given(st.one_of(st.binary(max_size=300),
                 st.builds(lambda count, indices, helper: count + bytes(indices) + helper,
                           st.sampled_from([b"\x00\x03", b"\x00\x02"]),
                           st.lists(st.integers(0, 5), min_size=3, max_size=3),
                           st.binary(min_size=1, max_size=1))))
def test_decode_reliability_payload_returns_or_raises_malformed(data):
    try:
        indices, helper = decode_reliability_payload(data, 5, 3, 1)
    except MalformedMessage:
        return
    assert indices.shape == (3,) and len(set(indices.tolist())) == 3
    assert indices.max() < 5 and len(helper) == 1
    assert encode_reliability_payload(indices, helper) == data


def plausible_opening(initiator: bool) -> list[bytes]:
    """Frames that take the session to its confirmation: the session's own
    opening frame (to a responder), so its key decodes, and a 16-byte nonce."""
    opening = [] if initiator else [OWN_OPENING]
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
