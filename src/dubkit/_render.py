"""float64 arrays as JSON text: the characters of ``json.dumps(a.tolist())``,
rendered a block of values at a time in numpy.

``json`` writes a finite float as ``float.__repr__`` does: the shortest
digits that read back as the same double, the nearest such to the value,
in exponent form below 1e-4 and from 1e16, with ``.0`` on an integral
value; and NaN and the infinities as ``NaN``, ``Infinity`` and
``-Infinity``. ``repr`` takes its digits from David Gay's dtoa, one value
at a time and in big integers for most doubles. Ryū (Ulf Adams, "Ryū: fast
float-to-string conversion", PLDI 2018) finds the same digits in a fixed
number of integer steps, so here its steps run on uint64 arrays: the
mantissa times a 125-bit power of 5 as 32-bit limbs, the bounds of the
rounding interval from the same product, and the digit removal as whole-
array steps. Only Ryū's common case runs on arrays: a value whose bounds
may end in zeros (Ryū's general case: an integral value, a short dyadic
fraction, nearly every value from about 2**48 to about 10**22) takes
``float.__repr__`` itself, as feature arrays seldom hold one. Each block's
text is a byte table with a column per character slot (sign, leading
``0.``, each digit, the point after each digit, exponent, separator); the
slots a value does not use hold zero bytes, and one ``bytes.translate``
deletes them.
"""

import json

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_32 = _U(32)
_TEN = _U(10)
_MANTISSA = _U((1 << 52) - 1)
_POW5_BITS = 125  # bits of each power-of-5 multiplier, as in Ryū's tables
# values per block: about 2 MiB of uint64 temporaries
_BLOCK = 1 << 14


def _exponent_tables():
    """Ryū's step 3 for each biased exponent ex (0 for subnormals), with
    e2 = max(ex, 1) - 1077 the binary exponent of the mantissa times 4:
    vr = (mv * C) >> (64 + s) is mv * 2**e2 / 10**e10, to the digit.

    Returns C as four 32-bit limbs, s, e10, the halves of (1 + m) * C above
    and below bit 64 for m in (0, 1) (row 2 * ex + m), and a mask with which
    mv & mask == 0 marks a value whose bounds may end in zeros (Ryū's
    general case, which _decimal leaves to float.__repr__).
    """
    cs, shift, e10, trailing = [], [], [], []
    for ex in range(2048):
        e2 = max(ex, 1) - 1077
        if e2 >= 0:
            q = (e2 * 78913 >> 18) - (e2 > 3)  # floor(log10(2**e2)), less one from e2 = 4
            power = 5**q
            c = (1 << (power.bit_length() - 1 + _POW5_BITS)) // power + 1
            s = q - e2 + power.bit_length() - 1 + _POW5_BITS - 64
            e10.append(q)
            mask = 0 if q <= 21 else (1 << 64) - 1
        else:
            q = (-e2 * 732923 >> 20) - (-e2 > 1)  # floor(log10(5**-e2)), less one from e2 = -2
            power = 5 ** (-e2 - q)
            c = power << _POW5_BITS >> power.bit_length()
            s = q - power.bit_length() + _POW5_BITS - 64
            e10.append(q + e2)
            mask = (1 << min(q, 64)) - 1
        cs.append(c)
        shift.append(s % 64)  # ex 2047 (NaN, infinities) is never used
        trailing.append(mask)
    # C and (1 + m) * C as little-endian 128-bit words, cut into 32-bit limbs
    # and 64-bit halves; one 1-D table per column: a gather from each is
    # cheaper than from a 2-D table
    words = b"".join(c.to_bytes(16, "little") for c in cs)
    limbs = tuple(np.frombuffer(words, "<u4").reshape(-1, 4).T.astype(_U, order="C"))
    words = b"".join((k * c).to_bytes(16, "little") for c in cs for k in (1, 2))
    low, high = np.frombuffer(words, "<u8").reshape(-1, 2).T.astype(_U, order="C")
    return limbs, np.array(shift, _U), np.array(e10, np.int64), (high, low), np.array(trailing, _U)


(_LIMBS, _SHIFT, _E10, _MULTIPLES, _TRAILING) = _exponent_tables()
_POW10 = np.array([10**k for k in range(18)], dtype=_U)


def _bounds(mv, m_shift, ex):
    """Ryū's mulShiftAll64: (vr, vp, vm), the products of mv, mv + 2 and
    mv - 1 - m_shift with C, each >> (64 + s). Only mv * C is multiplied
    out, in 32-bit limbs; the other two follow from its low 64 + s bits,
    since (mv + 2) * C and (mv - 1 - m_shift) * C differ from it by 2 * C
    and (1 + m_shift) * C."""
    c0, c1, c2, c3 = (limb[ex] for limb in _LIMBS)
    s = _SHIFT[ex]
    # column k sums the halves of a0 * c_k and a0 * c_(k-1) that fall in
    # bits 32k to 32k + 31, a1 * c_(k-1) whole (a1 < 2**23, as mv < 2**55)
    # and the carry, all below 2**57
    a0, a1 = mv & _LOW32, mv >> _32
    t = a0 * c0
    low = t & _LOW32
    p = a0 * c1
    t = (t >> _32) + (p & _LOW32) + a1 * c0
    low |= t << _32  # bits 0-63 of the product
    q = a0 * c2
    t = (t >> _32) + (p >> _32) + (q & _LOW32) + a1 * c1
    mid = t & _LOW32
    p = a0 * c3
    t = (t >> _32) + (q >> _32) + (p & _LOW32) + a1 * c2
    mid |= t << _32  # bits 64-127
    high = (t >> _32) + (p >> _32) + a1 * c3  # bits 128 on
    vr = (mid >> s) | ((high << _U(1)) << (_U(63) - s))  # s = 0 shifts high out
    # with f = the product's bits 64 to 64 + s - 1, (P + X) >> (64 + s) - vr
    # is (f + X_high + carry(low + X_low)) >> s, and for -X the same in int64
    f = mid & ((_U(1) << s) - _U(1))
    twice = 2 * ex + 1
    up_high, up_low = (half[twice] for half in _MULTIPLES)
    vp = vr + ((f + up_high + ((low + up_low) < low)) >> s)
    down_high, down_low = (half[twice - 1 + m_shift] for half in _MULTIPLES)
    d = (f - down_high - (low < down_low)).view(np.int64)
    vm = vr + (d >> s.view(np.int64)).view(_U)
    return vr, vp, vm


def _shortest(vr, vp, vm):
    """Ryū's step 4 where neither bound ends in zeros: (digits, digits
    removed). A digit comes off while vp // 10 > vm // 10, and the last one
    removed rounds; vr is taken up when it equals vm."""
    out = vr + (vr == vm)
    removed = np.zeros(len(vr), np.int64)
    _strip(vr, vp // _TEN, vm, out, removed)
    return out, removed


def _strip(vr, vp, vm, out, removed):
    """_shortest's loop, with vp already divided by ten; out and removed are
    updated in place. Each pass divides every value; once at most a
    quarter still lose a digit, they go on alone, in a call of their own."""
    while True:
        vm_next = vm // _TEN
        go = vp > vm_next
        going = np.count_nonzero(go)
        if going * 4 <= len(go):  # an empty array stops here too
            if going:
                keep = np.flatnonzero(go)
                part_out, part_removed = out[keep], removed[keep]
                _strip(vr[keep], vp[keep], vm[keep], part_out, part_removed)
                out[keep], removed[keep] = part_out, part_removed
            return
        vr_next = vr // _TEN
        out += (vr_next + ((vr_next == vm_next) | (vr - vr_next * _TEN >= _U(5))) - out) * go
        removed += go
        vr, vp, vm = vr_next, vp // _TEN, vm_next


def _decimal(bits):
    """(digits, exponent) with digits * 10**exponent the shortest decimal
    that reads back as each value of ``bits``, finite and nonzero float64
    bits; digits is the nearest such to the value and ends in no zero.
    Values whose bounds may end in zeros (Ryū's general case) take
    float.__repr__ instead, all through one tolist(): a numpy scalar at a
    time costs about half as much again per value."""
    ex = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    mantissa = bits & _MANTISSA
    mv = (mantissa | ((ex != 0).astype(_U) << _U(52))) << _U(2)
    m_shift = ((mantissa != 0) | (ex <= 1)).astype(np.intp)
    digits, removed = _shortest(*_bounds(mv, m_shift, ex))
    exponent = _E10[ex] + removed
    general = np.flatnonzero((mv & _TRAILING[ex]) == 0)
    if general.size:
        values = np.abs(bits[general].view(np.float64)).tolist()
        digits[general], exponent[general] = zip(*map(_repr_decimal, values))
    return digits, exponent


def _repr_decimal(value):
    """(digits, exponent) of float.__repr__(value), for a positive finite
    value, with the trailing zeros of its digits moved to the exponent."""
    text, _, power = float.__repr__(value).partition("e")
    whole, _, fraction = text.partition(".")
    digits = (whole + fraction).rstrip("0")
    return int(digits), int(power or 0) + len(whole) - len(digits)


# what follows each value: within a row, at the end of a row, after the last
_SEPARATORS = np.array([list(b", \0\0"), list(b"], ["), [0, 0, 0, 0]], dtype=np.uint8)


def _text(x, separator):
    """The text of each value of x (contiguous float64) followed by
    _SEPARATORS[separator]."""
    bits = x.view(_U)
    finite = (bits & _U(0x7FF << 52)) != _U(0x7FF << 52)
    regular = finite & ((bits << _U(1)) != 0)  # not zero
    if regular.all():
        digits, exponent = _decimal(bits)
    else:
        digits, exponent = np.zeros(len(x), _U), np.zeros(len(x), np.int64)
        at = np.flatnonzero(regular)
        digits[at], exponent[at] = _decimal(bits[at])
    # a zero is digits 0 at exponent 0: one digit, the point after it
    length = (np.searchsorted(_POW10[1:], digits, side="right") + 1).astype(np.int16)
    point = exponent.astype(np.int16) + length  # the value is 0.<digits> * 10**point
    scientific = ((point <= -4) | (point > 16)) & regular
    fixed = finite & ~scientific
    whole = fixed & (point >= 1)
    # digits left-aligned in 17 places: an integral value's zeros are there
    digits *= _POW10[17 - length]
    # how many digits show, the digit the point follows (-1: none), and how
    # many characters of "0.000" come first
    shown = np.maximum(length, (point + 1) * whole) * finite
    after = whole * point + (scientific & (length > 1)) - 1
    lead = (fixed & (point <= 0)) * (2 - point)
    nan = ~finite & ((bits << _U(12)) != 0)
    slots = []

    def slot(char, used):
        if used.any():
            slots.append(used * np.uint8(char))

    slot(ord("-"), (bits >> _U(63)).astype(bool) & ~nan)
    for k in range(lead.max(initial=0)):
        slot(b"0.000"[k], lead > k)
    for k, column in enumerate(_digit_columns(digits, shown.max(initial=0))):
        slots.append(np.multiply(column, shown > k, out=column))
        slot(ord("."), after == k)
    if scientific.any():
        power = np.abs(point - 1)
        slot(ord("e"), scientific)
        slot(ord("-"), scientific & (point < 1))
        slot(ord("+"), scientific & (point >= 1))
        for k, used in ((100, power >= 100), (10, True), (1, True)):
            slots.append(((power // k % 10 + 48) * (scientific & used)).astype(np.uint8))
    if not finite.all():
        for char in b"NaN":
            slot(char, nan)
        for char in b"Infinity":
            slot(char, ~finite & ~nan)
    slots += (column[separator] for column in _SEPARATORS.T)
    table = np.ascontiguousarray(np.array(slots).T)
    return table.tobytes().translate(None, b"\0").decode("ascii")


def _digit_columns(digits, n):
    """The first n of the 17 ASCII digit columns of ``digits`` (< 10**17)."""
    high = (digits // _U(10**8)).astype(np.uint32)
    low = (digits - high * _U(10**8)).astype(np.uint32)
    columns = []
    for part, places in ((high, 9), (low, 8)):
        for k in range(places - 1, -1, -1):
            power = np.uint32(10**k)
            digit = part // power
            columns.append(digit.astype(np.uint8) + np.uint8(48))
            part = part - digit * power
    return columns[:n]


def float_pieces(a):
    """json.dumps(a.tolist()) in pieces, for a 1-D or 2-D float64 array:
    the opening brackets, the text of each block of values (whole rows of
    a 2-D array), then the closing brackets."""
    if a.size == 0:
        yield json.dumps(a.tolist())
        return
    n_cols = a.shape[-1]
    step = _BLOCK if a.ndim == 1 else max(1, _BLOCK // n_cols)
    yield "[" * a.ndim
    for lo in range(0, len(a), step):
        block = np.ascontiguousarray(a[lo : lo + step]).reshape(-1)
        first = lo if a.ndim == 1 else lo * n_cols  # the flat index of block[0]
        separator = np.zeros(len(block), np.intp)
        separator[n_cols - 1 - first % n_cols :: n_cols] = 1  # a row's last value
        if lo + step >= len(a):
            separator[-1] = 2
        yield _text(block, separator)
    yield "]" * a.ndim
