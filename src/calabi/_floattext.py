"""Shortest round-trip text of float64 arrays, computed on numpy integer lanes.

``join_floats(x)`` returns exactly ``",".join(map(repr, x.tolist()))`` for a
float64 array ``x``, and ``float_pieces(x)`` yields the same text in pieces of
at most ``PIECE`` values, so ``",".join(float_pieces(x)) == join_floats(x)``.

The digits are those of Python's ``repr``: the shortest decimal that reads
back as the same double, and of those the closest, ties to even.  They come
from Giulietti's Schubfach algorithm (R. Giulietti, "The Schubfach way to
render doubles", 2020; OpenJDK's ``DoubleToDecimal``), which needs a fixed
number of 64-bit multiplies per value and no digit loop, so every step is an
elementwise ``uint64``/``int64`` operation over a whole piece.  Zeros take
the kernel too; subnormals, infinities and NaNs take ``repr``, one by one.

No expression mixes signed and unsigned integer operands, and every Python
int that meets an unsigned array is non-negative: under numpy 1.x, mixing
``uint64`` with ``int64`` silently gives ``float64``.

The digits are laid out by Python's ``'r'`` rules: exponent form (``1e-05``,
``1.5e+16``) when the decimal point position ``decpt`` is ``<= -4`` or
``> 16``, else fixed form with ``.0`` after integers.  Each value's
characters are gathered through one row of a layout table keyed by sign, form,
digit count and ``decpt`` (or the exponent's sign and width).  That table and
the table of powers of ten the scaling multiplies by are built whole, once,
the first time a value is formatted, so importing this module builds nothing.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

__all__ = ["PIECE", "float_pieces", "join_floats"]

# Values formatted by one pass of the kernel, and so per piece.
PIECE = 4096

_U64 = np.uint64
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_FRACTION = (1 << 52) - 1
_HIDDEN = 1 << 52
_ONE = _U64(1023 << 52)  # the bits of 1.0

# k = floor(log10(2^q)) for every normal double lies in [_K_MIN, _K_MAX].
_K_MIN, _K_MAX = -324, 292

# The characters of a piece's values are gathered from eight little-endian
# words per value, stored word by word: word w of value i is element (w, i)
# of an (8, PIECE) array.  Words 0-4 hold the value's 17 significant digits
# as "000d", then four groups of four; word 5 holds its exponent as "0ddd";
# words 6 and 7 hold the symbols "0.-e" and "+,\0\0".  A layout row lists
# byte offsets into those words for value 0; value i adds 4 i.  The zero
# byte _PAD fills a row's unused slots.
_NDIG = 17
_WORD_BYTES = 4 * PIECE
_DIGIT = [3] + [_WORD_BYTES * (1 + j // 4) + j % 4 for j in range(16)]
_EXP_H, _EXP_T, _EXP_O = (5 * _WORD_BYTES + b for b in (1, 2, 3))
_ZERO, _DOT, _MINUS, _E, _PLUS, _COMMA, _PAD = (_WORD_BYTES * (6 + j // 4) + j % 4 for j in range(7))
_SYMBOLS = np.frombuffer(b"0.-e+,\0\0", dtype="<u4")
# A comma, then at most '-', 17 digits, '.', 'e', a sign and 3 exponent digits.
_WIDTH = 25
# Layout forms: 0..19 are fixed with decpt = form - 3; 20..23 are exponent
# forms, 20 + 2 * (exponent < 0) + (three exponent digits).
_FORMS = 24


def _scale_row(i: int) -> list[int]:
    """``g = floor(10^-k / 2^(e2 - 125)) + 1`` for ``k = i + _K_MIN`` as its
    top and bottom 63 bits, where ``e2 = floor(log2(10^-k))``."""
    k = i + _K_MIN
    e2 = (-k * 913124641741) >> 38
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    shift = 125 - e2
    g = ((num << shift) // den if shift >= 0 else num // (den << -shift)) + 1
    return [g >> 63, g & _M63]


def _layout_row(key: int) -> list[int]:
    """Byte offsets of the characters of value 0 with layout ``key``,
    starting with the comma before it."""
    neg, rest = divmod(key, _NDIG * _FORMS)
    n, form = divmod(rest, _FORMS)
    n += 1
    digits = _DIGIT[:n]
    chars = [_MINUS] if neg else []
    if form < 20:
        decpt = form - 3
        if decpt <= 0:
            chars += [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < n:
            chars += digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            chars += digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
    else:
        exp_neg, three = divmod(form - 20, 2)
        chars += digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        chars += [_E, _MINUS if exp_neg else _PLUS] + [_EXP_H] * three + [_EXP_T, _EXP_O]
    return [_COMMA] + chars + [_PAD] * (_WIDTH - 1 - len(chars))


@functools.cache
def _scales() -> np.ndarray:
    """The table of ``_scale_row(i)`` for every ``k`` in [_K_MIN, _K_MAX]."""
    return np.array([_scale_row(i) for i in range(_K_MAX - _K_MIN + 1)], dtype=_U64)


@functools.cache
def _layouts() -> np.ndarray:
    """The table of ``_layout_row(key)`` for every layout key."""
    return np.array([_layout_row(key) for key in range(2 * _NDIG * _FORMS)], dtype=np.intp)


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """For each of 0..9999: its four ASCII digits as one little-endian word,
    and its number of trailing zero digits in that four-digit form."""
    i = np.arange(10000)
    chars = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    words = np.ascontiguousarray(chars, dtype=np.uint8).view("<u4").ravel()
    zeros = (i % 10 == 0).astype(np.intp) + (i % 100 == 0) + (i % 1000 == 0) + (i == 0)
    return words, zeros


def _mul_hi(ah, al, bh, bl) -> np.ndarray:
    """Top 64 bits of the 128-bit products ``a * b`` of ``uint64`` arrays
    given as 32-bit halves, for ``b < 2^60``."""
    hl = ah * bl
    mid = ((al * bl) >> 32) + al * bh + (hl & _M32)
    return ah * bh + (hl >> 32) + (mid >> 32)


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """``g * cp / 2^127`` rounded to odd, ``g`` given as its 63-bit halves."""
    ch, cl = cp >> 32, cp & _M32
    x1 = _mul_hi(g0 >> 32, g0 & _M32, ch, cl)
    y1 = _mul_hi(g1 >> 32, g1 & _M32, ch, cl)
    z = ((g1 * cp) >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimal ``f * 10^k`` of each normal double's magnitude."""
    bq = (bits >> 52) & 2047
    t = bits & _FRACTION
    c = t | _HIDDEN
    q = bq.astype(np.int64) - 1075
    regular = (t != 0) | (bq == 1)
    k = (q * 661971961083 - 274743187321 * ~regular) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U64)
    g1, g0 = np.ascontiguousarray(np.take(_scales(), k - _K_MIN, axis=0).T)
    # the value and the two ends of its rounding interval, scaled by 4 and 2^h;
    # cp < 2^60, as _mul_hi needs
    cp = np.empty((3, len(bits)), dtype=_U64)
    cp[0] = c << 2
    cp[1] = cp[0] - 1
    cp[1] -= regular
    cp[2] = cp[0] + 2
    cp <<= h
    vb, vbl, vbr = _rop(g1, g0, cp)
    out = c & 1
    vbl += out
    vbr -= out

    # s has 16 or 17 digits.  Take the one multiple of 10 next to s that lies
    # in the interval, if exactly one does; else the one of s and s + 1 that
    # does, or the closer, ties to even.
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    mid = (s << 2) + 2
    closer_w = (vb > mid) | ((vb == mid) & (s & 1 == 1))
    f = s + np.where(uin != win, win, closer_w)
    f = np.where(upin != wpin, sp10 + wpin * _U64(10), f)
    return f, k


def _text(x: np.ndarray) -> str:
    """``",".join(map(repr, x.tolist()))`` for at most ``PIECE`` float64 values."""
    m = len(x)
    bits = x.view(_U64)
    bq = (bits >> 52) & 2047
    zero = (bits << 1) == 0
    other = ((bq == 0) | (bq == 2047)) & ~zero
    # zeros are laid out as 1.0 with the digit 0; subnormals, infinities and
    # NaNs as 1.0, then overwritten with their repr
    f, k = _decimal(np.where(zero | other, _ONE, bits))
    long = f >= 10**16
    full = np.where(long, f, f * 10)
    decpt = k + 16 + long
    # full has 17 digits: one, then four groups of four
    lead = full // 10**16
    rest = full - lead * 10**16
    high = rest // 10**8
    low = (rest - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = lead.astype(np.uint32)
    lead[zero] = 0
    b, d = high // 10**4, low // 10**4
    c, e = high - b * 10**4, low - d * 10**4
    exp = decpt - 1
    mag = np.abs(exp)
    words, zeros = _digit_groups()
    src = np.empty((8, PIECE), dtype="<u4")
    for w, group in enumerate([lead, b, c, d, e, mag]):
        np.take(words, group, out=src[w, :m])
    src[6:, :m] = _SYMBOLS[:, None]
    tz = zeros[e] + (e == 0) * (zeros[d] + (d == 0) * (zeros[c] + (c == 0) * zeros[b]))
    fixed = (decpt > -4) & (decpt <= 16)
    form = np.where(fixed, decpt + 3, 20 + 2 * (exp < 0) + (mag >= 100))
    key = ((bits >> 63).astype(np.intp) * _NDIG + _NDIG - 1 - tz) * _FORMS + form
    index = np.take(_layouts(), key, axis=0)
    index += np.arange(0, 4 * m, 4)[:, None]
    chars = np.take(src.view(np.uint8).ravel(), index)
    for i in np.flatnonzero(other).tolist():
        chars[i] = np.frombuffer(("," + repr(float(x[i]))).ljust(_WIDTH, "\0").encode(), dtype=np.uint8)
    chars = chars.ravel()
    return chars[chars != 0][1:].tobytes().decode("ascii")


def float_pieces(x: np.ndarray) -> Iterator[str]:
    """Yield the comma-joined shortest round-trip text of the values of ``x``
    in pieces of at most ``PIECE`` values each."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    for start in range(0, len(x), PIECE):
        yield _text(x[start : start + PIECE])


def join_floats(x: np.ndarray) -> str:
    """``",".join(map(repr, x.tolist()))`` for a float64 array ``x``."""
    return ",".join(float_pieces(x))
