"""CSV lines whose numbers read exactly as ``'%.17g' % x``, built from array operations.

A value costs about 0.15 us where ``%`` takes 0.4-0.5 us; ``%`` itself runs
only for the values named below (about 4e-5 of the benchmark's values).

``fields`` converts a value x with 1e-280 <= |x| <= 1e280 in five steps:

- k = floor(log10 |x|) estimates the decimal exponent;
- y = |x| 10^(16-k) is formed as a double-double hi + lo from a table of
  pairs (h_j, l_j) with h_j + l_j = 10^j to 2^-106 relative, built with
  exact integer arithmetic: Dekker's exact split product |x| h_j plus
  fl(|x| l_j), renormalised;
- k moves by one where y leaves [10^16, 10^17), at most twice;
- D = round(y) is the 17-digit integer, with the carry to 10^17 taken
  into k; its digits come from a table of 4-digit groups;
- a template per layout, fixed by ``%g``'s choice of fixed or exponent
  form, the exponent and the count of trailing zeros of D, gathers the
  value's bytes, and ``text`` drops the pad bytes.

Error bound: |h_j + l_j - 10^j| <= 2^-106 10^j, the split product is exact,
|x l_j| <= 2^-53 y is rounded with error 2^-106 y, and adding it to the
product's error term rounds with error below 2^-105 y; so hi + lo is
within 2^-104 y < 5e-15 of y on [10^16, 10^17).  Rounding reads only the
fraction of y, so a value whose computed fraction lies further than
``_TIE_MARGIN`` (1e-6) from 1/2 rounds as its exact value does; the exact
ties of 17-digit rounding (such as 800043207057026.375) lie inside the
margin.  Those values, values whose exponent needed more than two
corrections and every non-zero |x| outside [1e-280, 1e280] (subnormals
among them) are formatted by ``'%.17g' %`` itself; 0, -0, +-inf and NaN
take templates.  The table holds 10^-266 .. 10^299, which those exponents
need, and neither its splits nor its low parts leave the normal range.
"""
from __future__ import annotations

import numpy as np

PAD = 0  # fill byte of a field, dropped by ``text``
WIDTH = 24  # the longest number, as in '-2.2250738585072014e-308'
_GATHER = 2048  # values per byte gather in ``fields``
_TIE_MARGIN = 1e-6
_LO, _HI = 1e-280, 1e280
_J0, _J1 = -266, 299  # exponents j of the power table


def _powers() -> np.ndarray:
    """Rows (h, l) with h the double nearest 10^j and l the double nearest 10^j - h."""
    table = []
    for j in range(_J0, _J1 + 1):
        if j >= 0:
            h = float(10 ** j)
            table.append((h, float(10 ** j - int(h))))
        else:  # int / int is correctly rounded
            d = 10 ** -j
            h = 1 / d
            num, den = h.as_integer_ratio()
            table.append((h, (den - num * d) / (den * d)))
    return np.array(table)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of ``a`` into two 26-bit halves with a = hi + lo exactly."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW_H, _POW_L = _powers().T
_POW_HH, _POW_HL = _split(_POW_H)

# a value's 32 source bytes, as 8 words: its leading digit and '.', '0', 'e'; its other
# 16 digits; the exponent's sign and digits; its sign and 'inf'; 'a', a pad byte and ','
_DOT, _ZERO, _E, _EXP, _SIGN, _I, _N, _F, _A, _PADB, _COMMA = 1, 2, 3, 20, 24, 25, 26, 27, 28, 29, 30


def _words(rows) -> np.ndarray:
    """Rows of 4 bytes as one native uint32 word each."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint32).ravel()


_GROUP = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # the digits of 0000..9999
_DIGITS4 = _words(_GROUP + ord("0"))
_ZEROS4 = np.logical_and.accumulate(_GROUP[:, ::-1] == 0, axis=1).sum(axis=1, dtype=np.int8)
_LEAD = _words([[ord("0") + i, ord("."), ord("0"), ord("e")] for i in range(10)])
_K0 = 400  # exponent words for k in [-_K0, _K0)
_MAG = np.abs(np.arange(-_K0, _K0))
_EXPONENT = _words(np.stack([np.r_[[ord("-")] * _K0, [ord("+")] * _K0],
                             np.where(_MAG >= 100, _MAG // 100 + ord("0"), PAD),
                             _MAG // 10 % 10 + ord("0"), _MAG % 10 + ord("0")], 1))
_SIGNS = _words([[PAD, ord("i"), ord("n"), ord("f")], [ord("-"), ord("i"), ord("n"), ord("f")]])
_TAIL = _words([[ord("a"), PAD, ord(","), PAD]])[0]

# layout classes: 21 fixed layouts (exponent -4..16) and the exponent layout, each for
# 1..17 significant digits; then zero, infinity, NaN and the fallback's empty template
_EXP_LAYOUT = 21
_ZERO_CLASS, _INF_CLASS, _NAN_CLASS, _FALLBACK_CLASS = range(22 * 17, 22 * 17 + 4)


def _layout(layout: int, s: int) -> list[int]:
    """Source byte positions of a value with exponent ``layout`` - 4 and ``s`` significant digits."""
    digits = [0, *range(4, 3 + s)]
    if layout == _EXP_LAYOUT:
        frac = [_DOT, *digits[1:]] if s > 1 else []
        return [_SIGN, digits[0], *frac, _E, _EXP, _EXP + 1, _EXP + 2, _EXP + 3]
    x = layout - 4
    if x < 0:
        return [_SIGN, _ZERO, _DOT, *[_ZERO] * (-x - 1), *digits]
    whole = [0, *range(4, 4 + x)]
    return [_SIGN, *whole, *([_DOT, *digits[x + 1:]] if s > x + 1 else [])]


def _templates() -> np.ndarray:
    rows = [_layout(layout, s) for layout in range(22) for s in range(1, 18)]
    rows += [[_SIGN, _ZERO], [_SIGN, _I, _N, _F], [_N, _A, _N], []]
    out = np.full((len(rows), WIDTH + 1), _PADB, dtype=np.intp)
    out[:, WIDTH] = _COMMA
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


_TEMPLATES = _templates()


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo = ax 10^(16-k) as a double-double (see the module docstring)."""
    j = (16 - _J0) - k
    p = ax * _POW_H[j]
    xh, xl = _split(ax)
    hh, hl = _POW_HH[j], _POW_HL[j]
    e = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + ax * _POW_L[j]
    hi = p + e
    return hi, e - (hi - p)


def _outside(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where hi + lo < 10^16, and where hi + lo >= 10^17."""
    return (hi < 1e16) | ((hi == 1e16) & (lo < 0.0)), (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, D, k): where the kernel formats x, and there x's 17-digit integer D and exponent k."""
    ax = np.abs(x)
    ok = (ax >= _LO) & (ax <= _HI)
    a = np.where(ok, ax, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k)
    for _ in range(2):
        low, high = _outside(hi, lo)
        moved = (low | high).nonzero()[0]
        if not moved.size:
            break
        k[moved] += high[moved].astype(np.int64) - low[moved]
        hi[moved], lo[moved] = _scaled(a[moved], k[moved])
    else:
        low, high = _outside(hi, lo)
        ok &= ~(low | high)
    down = np.floor(lo)
    frac = lo - down
    ok &= np.abs(frac - 0.5) >= _TIE_MARGIN
    d = hi.astype(np.int64) + down.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry
    return ok, d, k


def _source(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(words, cls): each value's 32 source bytes as 8 words, and its layout class."""
    ok, d, k = _decimal(x)
    words = np.empty((x.size, 8), dtype=np.uint32)
    top, bottom = np.divmod(d, 10 ** 8)
    top, g1 = np.divmod(top, 10 ** 4)
    first, g0 = np.divmod(top, 10 ** 4)
    g2, g3 = np.divmod(bottom, 10 ** 4)
    words[:, 0] = _LEAD[np.where(ok, first, 0)]
    for i, g in enumerate((g0, g1, g2, g3), 1):
        words[:, i] = _DIGITS4[g]
    words[:, 5] = _EXPONENT[k + _K0]
    words[:, 6] = _SIGNS[np.signbit(x).view(np.uint8)]
    words[:, 7] = _TAIL
    zeros = _ZEROS4[g3]  # trailing zeros of d, below its leading digit
    for i, g in enumerate((g2, g1, g0), 1):
        z = (zeros == 4 * i).nonzero()[0]
        zeros[z] += _ZEROS4[g[z]]
    cls = np.where((k >= -4) & (k < 17), k + 4, _EXP_LAYOUT) * 17 + (16 - zeros)
    odd = (~ok).nonzero()[0]
    if odd.size:
        xo = x[odd]
        cls[odd] = np.select([xo == 0.0, np.isinf(xo), np.isnan(xo)],
                             [_ZERO_CLASS, _INF_CLASS, _NAN_CLASS], _FALLBACK_CLASS)
    return words, cls


def fields(table: np.ndarray) -> np.ndarray:
    """The CSV fields of an (n, columns) float table, as an (n, columns, WIDTH + 1) byte array.

    Each field holds the bytes of ``'%.17g' % value``, padded with ``PAD``,
    then ',' or, in the last column, '\\n'; ``text`` joins them into lines.
    The byte gather runs ``_GATHER`` values at a time, which bounds its
    index array.
    """
    n, columns = table.shape
    x = np.asarray(table, dtype=np.float64).ravel()
    words, cls = _source(x)
    source = words.view(np.uint8).ravel()
    out = np.empty((x.size, WIDTH + 1), dtype=np.uint8)
    for start in range(0, x.size, _GATHER):
        index = _TEMPLATES[cls[start:start + _GATHER]]
        index += np.arange(32 * start, 32 * (start + len(index)), 32)[:, None]
        out[start:start + _GATHER] = source.take(index)
    fallback = (cls == _FALLBACK_CLASS).nonzero()[0]
    if fallback.size:
        numbers = b"".join(b"%-*.17g" % (WIDTH, v) for v in x[fallback].tolist()).replace(b" ", bytes([PAD]))
        out[fallback, :WIDTH] = np.frombuffer(numbers, dtype=np.uint8).reshape(-1, WIDTH)
    out = out.reshape(n, columns, WIDTH + 1)
    out[:, -1, WIDTH] = ord("\n")
    return out


def text_fields(texts) -> np.ndarray:
    """ASCII ``texts`` as ``fields`` rows, each with its ',' after the text and pad bytes."""
    out = np.full((len(texts), WIDTH + 1), PAD, dtype=np.uint8)
    out[:, WIDTH] = ord(",")
    for i, t in enumerate(texts):
        out[i, :len(t)] = np.frombuffer(t.encode("ascii"), dtype=np.uint8)
    return out


def text(cells: np.ndarray) -> str:
    """The CSV lines of an array of ``fields``: its bytes without the pad bytes."""
    return cells.tobytes().translate(None, bytes([PAD])).decode("ascii")
