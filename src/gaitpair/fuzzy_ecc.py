"""Fuzzy key extraction: map a bit vector to the nearest codeword's message.

Binary BCH codes over GF(2) provide the quantization of the fingerprint space:
any two vectors within Hamming distance t of the same codeword decode to the
same k-bit key, so near-identical fingerprints yield identical keys without
any helper data crossing the channel.  Decoding is strict bounded-distance
(syndromes, Berlekamp-Massey, Chien search, then re-verification); an input
farther than t from every codeword raises DecodeFailure rather than returning
an unvetted key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DecodeFailure, LengthMismatch, NoSuitableCode

# primitive polynomials for GF(2^m), LSB = constant term
_PRIMITIVE_POLY = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}


@dataclass(frozen=True)
class CodeParams:
    """Parameters of one binary BCH code.

    n          code length, 2^m - 1
    k          message length
    t          guaranteed correctable errors (designed)
    m          field extension degree
    generator  generator polynomial over GF(2) as an int, LSB = x^0
    """

    n: int
    k: int
    t: int
    m: int
    generator: int

    @property
    def rate(self) -> float:
        return self.k / self.n


@dataclass
class FuzzyKey:
    """Error-corrected key recovered from a fingerprint."""

    key_bits: np.ndarray
    params: CodeParams
    corrected_errors: int

    def to_bytes(self) -> bytes:
        """Serialize MSB-first, zero-padded at the tail."""
        return np.packbits(self.key_bits).tobytes()


# -- GF(2^m) arithmetic ----------------------------------------------------------

class _Field:
    """Log/antilog tables for GF(2^m)."""

    def __init__(self, m: int):
        if m not in _PRIMITIVE_POLY:
            raise NoSuitableCode(f"unsupported field degree m={m}")
        self.m = m
        self.n = (1 << m) - 1
        exp = [0] * (2 * self.n)
        log = [0] * (self.n + 1)
        x = 1
        for i in range(self.n):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= _PRIMITIVE_POLY[m]
        for i in range(self.n, 2 * self.n):
            exp[i] = exp[i - self.n]
        self.exp = exp
        self.log = log
        self.exp_np = np.array(exp[: self.n], dtype=np.int64)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def alpha_pow(self, e: int) -> int:
        return self.exp[e % self.n]


@lru_cache(maxsize=None)
def _field(m: int) -> _Field:
    return _Field(m)


# -- generator polynomial construction --------------------------------------------

def _gf2_poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials packed into ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _gf2_poly_mod(a: int, g: int) -> int:
    """Remainder of a(x) divided by g(x) over GF(2)."""
    dg = g.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dg:
        a ^= g << (da - dg)
        da = a.bit_length() - 1
    return a


def _cyclotomic_coset(i: int, n: int) -> list[int]:
    coset = [i]
    j = (i * 2) % n
    while j != i:
        coset.append(j)
        j = (j * 2) % n
    return coset


def _minimal_polynomial(field: _Field, coset: list[int]) -> int:
    """Product of (x - alpha^j) over the coset; coefficients land in GF(2)."""
    poly = [1]  # poly[d] = coefficient of x^d, elements of GF(2^m)
    for j in coset:
        root = field.alpha_pow(j)
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            if c:
                nxt[d + 1] ^= c
                nxt[d] ^= field.mul(c, root)
        poly = nxt
    out = 0
    for d, c in enumerate(poly):
        if c not in (0, 1):
            raise AssertionError("minimal polynomial has non-binary coefficient")
        if c:
            out |= 1 << d
    return out


def _generator_polynomial(m: int, t: int) -> int:
    """LCM of the minimal polynomials of alpha^1 .. alpha^2t."""
    field = _field(m)
    n = field.n
    seen: set[int] = set()
    g = 1
    for i in range(1, 2 * t + 1):
        if i in seen:
            continue
        coset = _cyclotomic_coset(i, n)
        seen.update(coset)
        g = _gf2_poly_mul(g, _minimal_polynomial(field, coset))
    return g


@lru_cache(maxsize=None)
def code_table(n: int) -> tuple[CodeParams, ...]:
    """All achievable (n, k, t) combinations at length n = 2^m - 1.

    Enumerates designed correction capacities bottom-up; consecutive designed
    values that produce the same generator collapse into the larger t.
    """
    m = n.bit_length()
    if (1 << m) - 1 != n or m not in _PRIMITIVE_POLY:
        raise NoSuitableCode(f"n={n} is not 2^m - 1 for a supported m")
    by_generator: dict[int, int] = {}
    for t in range(1, (n - 1) // 2 + 1):
        g = _generator_polynomial(m, t)
        k = n - (g.bit_length() - 1)
        if k < 1:
            break
        by_generator[g] = t
    table = []
    for g, t in by_generator.items():
        k = n - (g.bit_length() - 1)
        table.append(CodeParams(n=n, k=k, t=t, m=m, generator=g))
    table.sort(key=lambda p: p.t)
    return tuple(table)


def choose_params(N: int, error_rate: float) -> CodeParams:
    """Pick the code for an N-bit fingerprint tolerating the given error rate.

    The code length is the largest 2^m - 1 not exceeding N.  Among achievable
    codes, the one with the largest t that still keeps t/n within the error
    budget is selected, so the similarity threshold implied by the code is
    never looser than requested; if even t=1 exceeds the budget, the closest
    achievable (t=1) is reported.
    """
    if not 0.0 < error_rate < 0.5:
        raise NoSuitableCode(f"error_rate must be in (0, 0.5), got {error_rate}")
    n = 0
    for m in sorted(_PRIMITIVE_POLY):
        if (1 << m) - 1 <= N:
            n = (1 << m) - 1
    if n == 0:
        raise NoSuitableCode(f"no supported code length <= N={N}")
    budget = int(np.floor(n * error_rate + 1e-12))
    table = code_table(n)
    fitting = [p for p in table if p.t <= budget]
    if fitting:
        return max(fitting, key=lambda p: p.t)
    return min(table, key=lambda p: p.t)


# -- encode / decode ---------------------------------------------------------------

def _bits_to_int(bits: np.ndarray) -> int:
    """bits[0] is the highest-degree coefficient."""
    if bits.size == 0:
        return 0
    packed = np.packbits(bits)
    return int.from_bytes(packed.tobytes(), "big") >> ((-bits.size) % 8)


def _int_to_bits(value: int, width: int) -> np.ndarray:
    raw = value.to_bytes((width + 7) // 8, "big")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[-width:]


def encode(message: np.ndarray, params: CodeParams) -> np.ndarray:
    """Systematic encoding: message bits first, parity appended."""
    message = np.asarray(message).astype(np.uint8).ravel()
    if message.shape[0] != params.k:
        raise LengthMismatch(
            f"message length {message.shape[0]} != k={params.k}")
    shifted = _bits_to_int(message) << (params.n - params.k)
    parity = _gf2_poly_mod(shifted, params.generator)
    return _int_to_bits(shifted | parity, params.n)


def _syndromes(bits: np.ndarray, params: CodeParams) -> np.ndarray:
    """S_j = r(alpha^j) for j = 1..2t; all-zero iff r is a codeword."""
    field = _field(params.m)
    n = params.n
    positions = np.flatnonzero(bits)
    if positions.size == 0:
        return np.zeros(2 * params.t, dtype=np.int64)
    exponents = (n - 1 - positions).astype(np.int64)
    j = np.arange(1, 2 * params.t + 1, dtype=np.int64)
    powers = (j[:, None] * exponents[None, :]) % n
    return np.bitwise_xor.reduce(field.exp_np[powers], axis=1)


def _berlekamp_massey(syndromes: list[int], field: _Field, t: int) -> list[int] | None:
    """Error-locator polynomial (coefficients, index = degree), or None."""
    exp = field.exp
    log = field.log
    C = [1]
    B = [1]
    L = 0
    shift = 1
    b = 1
    for i, s in enumerate(syndromes):
        d = s
        for j in range(1, min(L, len(C) - 1) + 1):
            cj = C[j]
            if cj:
                sij = syndromes[i - j]
                if sij:
                    d ^= exp[log[cj] + log[sij]]
        if d == 0:
            shift += 1
            continue
        coef_log = (log[d] - log[b]) % field.n
        update_len = len(B) + shift
        if update_len > len(C):
            C = C + [0] * (update_len - len(C))
        if 2 * L <= i:
            T = C.copy()
            for j, Bj in enumerate(B):
                if Bj:
                    C[j + shift] ^= exp[coef_log + log[Bj]]
            L = i + 1 - L
            B = T
            b = d
            shift = 1
        else:
            for j, Bj in enumerate(B):
                if Bj:
                    C[j + shift] ^= exp[coef_log + log[Bj]]
            shift += 1
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    degree = len(C) - 1
    if degree != L or degree > t:
        return None
    return C


def _chien_roots(locator: list[int], field: _Field) -> np.ndarray:
    """Exponents s in 0..n-1 with locator(alpha^s) == 0."""
    n = field.n
    s = np.arange(n, dtype=np.int64)
    vals = np.full(n, locator[0], dtype=np.int64)
    for deg in range(1, len(locator)):
        c = locator[deg]
        if c:
            vals ^= field.exp_np[(field.log[c] + deg * s) % n]
    return np.flatnonzero(vals == 0)


def decode(bits: np.ndarray, params: CodeParams) -> FuzzyKey:
    """Bounded-distance decode of a received bit vector of length ``params.n``.

    Returns the message of the unique codeword within Hamming distance t of
    the input.  If no such codeword exists the input is rejected; the caller
    treats that as a failed pairing attempt and starts over with fresh gait
    data.
    """
    bits = np.asarray(bits).astype(np.uint8).ravel()
    if bits.shape[0] != params.n:
        raise LengthMismatch(
            f"fingerprint length {bits.shape[0]} != code length n={params.n}")
    field = _field(params.m)
    syn = _syndromes(bits, params)
    if not syn.any():
        return FuzzyKey(key_bits=bits[: params.k].copy(), params=params,
                        corrected_errors=0)

    locator = _berlekamp_massey([int(v) for v in syn], field, params.t)
    if locator is None:
        raise DecodeFailure("no codeword within the correction radius")
    roots = _chien_roots(locator, field)
    if roots.size != len(locator) - 1:
        raise DecodeFailure("error locator does not split over the field")
    n = params.n
    error_exponents = (n - np.asarray(roots)) % n
    error_positions = (n - 1 - error_exponents).astype(int)
    corrected = bits.copy()
    corrected[error_positions] ^= 1
    if _syndromes(corrected, params).any():
        raise DecodeFailure("corrected word fails re-verification")
    return FuzzyKey(key_bits=corrected[: params.k].copy(), params=params,
                    corrected_errors=int(roots.size))
