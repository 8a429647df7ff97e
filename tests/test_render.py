"""_render.float_pieces against its oracle: each value as float.__repr__
writes it (json's NaN, Infinity and -Infinity when not finite), joined as
json.dumps joins a list; and which values it leaves to float.__repr__."""

import json
import math
from unittest import mock

import numpy as np
import pytest

from dubkit import _render, cli
from dubkit._render import float_pieces

from helpers import make_sawtooth, write_pcm16_wav

TINY = 5e-324
EDGES = [
    # subnormals, from the least up, and the least normal
    TINY, 2 * TINY, 3 * TINY, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
    2.2250738585072014e-308 * (1 + 2**-52), 1e-310, 4.9406564584124654e-300,
    # the largest finite, and powers of two at both ends
    1.7976931348623157e308, 8.98846567431158e307, 2.0**-1022, 2.0**1023, 2.0**-1074,
    # the switch to exponent form below 1e-4 and from 1e16
    1e-4, 9.999999999999999e-05, 1.0000000000000001e-4, 1e-5, 0.00012345,
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1e15, 123456789012345680.0,
    # integral values, with .0, around 2**53, and 10**22 (exact) and 10**23 (not)
    2.0**53, 2.0**53 + 2, 2.0**53 - 1, 2.0**54, 9007199254740992.0, 1e22, 1e23, 123.0,
    1.0, 2.0, 10.0, 100.0, 4294967296.0,
    # short decimals, halfway cases, and the value of 17 significant digits
    0.1, 0.2, 0.3, 0.1 + 0.2, 440.25, 0.5, 2.5, 1.5e300, 1.2345678901234567,
    5e-324 * 2**52, 9.5367431640625e-07, 0.000123, 1234.5678, 86.1328125,
    # zeros and the values that are not finite
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
]


def oracle(values) -> str:
    def one(v):
        if v != v:
            return "NaN"
        if v in (math.inf, -math.inf):
            return "Infinity" if v > 0 else "-Infinity"
        return float.__repr__(v)
    return "[" + ", ".join(map(one, values)) + "]"


def rows_oracle(a) -> str:
    return "[" + ", ".join(oracle(row) for row in a.tolist()) + "]"


def rendered(a) -> str:
    return "".join(float_pieces(a))


def test_every_edge_class_and_its_negation():
    a = np.array(EDGES + [-v for v in EDGES])
    assert rendered(a) == oracle(a.tolist())


def test_every_power_of_two_and_ten_and_their_neighbours():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    for a in (powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0)):
        a = a[np.isfinite(a)]
        assert rendered(a) == oracle(a.tolist())


def test_integers_and_short_decimals():
    ints = np.arange(-20000, 20000, dtype=np.float64)
    for a in (ints, ints / 8, ints / 100, ints / 1000, ints * 1e17, ints * 1e-7,
              ints[1:] * 10.0 ** np.arange(-300, 300).repeat(67)[: len(ints) - 1]):
        assert rendered(a) == oracle(a.tolist())


def test_a_million_random_bit_patterns():
    rng = np.random.default_rng(20181201)
    for _ in range(10):
        a = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
        assert rendered(a) == oracle(a.tolist())


@pytest.mark.parametrize("low,high", [(1076, 1150), (1070, 1081)])
def test_random_mantissas_where_the_bounds_may_end_in_zeros(low, high):
    # biased exponents 1077-1147 hold the values from 2**54 to about 10**22,
    # 1074-1076 those where q <= 1: Ryu's general case, so these values now
    # test the float.__repr__ fallback
    rng = np.random.default_rng(low)
    exponent = rng.integers(low, high, 200_000, dtype=np.uint64)
    mantissa = rng.integers(0, 2**52, 200_000, dtype=np.uint64)
    mantissa[::4] &= ~np.uint64(0xFFFFFFF)  # few set bits: short decimals
    a = ((exponent << np.uint64(52)) | mantissa).view(np.float64)
    assert rendered(a) == oracle(a.tolist())


def repr_calls(render):
    """How many values render() sends to the float.__repr__ fallback."""
    with mock.patch.object(_render, "_repr_decimal", wraps=_render._repr_decimal) as spy:
        render()
    return spy.call_count


def test_common_values_and_a_features_document_take_no_repr(tmp_path, capsys):
    rng = np.random.default_rng(20180618)
    a = rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 9, 100_000)
    assert repr_calls(lambda: rendered(a)) == 0
    wav = str(tmp_path / "voiced.wav")
    write_pcm16_wav(wav, [make_sawtooth(220.0, 0.5, 22050)], 22050)
    with mock.patch.object(_render, "_decimal", wraps=_render._decimal) as decimal:
        assert repr_calls(lambda: cli.run(["features", wav])) == 0
    assert decimal.call_count > 0 and capsys.readouterr().err == ""


@pytest.mark.parametrize("value", [600.0, 0.5, 123.0, 2.0**54, 1e22])
def test_values_whose_bounds_may_end_in_zeros_take_repr(value):
    assert repr_calls(lambda: rendered(np.array([value, -value]))) == 2


@pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 14])
@pytest.mark.parametrize("shape", ["1-D", "2-D", "column", "row", "strided-rows",
                                   "strided-1-D", "ragged-rows"])
def test_rows_and_blocks(block, shape):
    rng = np.random.default_rng(7)
    n = 240 - len(EDGES)
    values = np.concatenate([EDGES, rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)])
    a = {"1-D": values, "2-D": values.reshape(16, 15), "column": values.reshape(-1, 1),
         "row": values.reshape(1, -1), "strided-rows": values.reshape(16, 15)[::3, 1:12:2],
         "strided-1-D": values[::7], "ragged-rows": values[:238].reshape(14, 17)}[shape]
    with mock.patch.object(_render, "_BLOCK", block):
        expected = oracle(a.tolist()) if a.ndim == 1 else rows_oracle(a)
        assert rendered(a) == expected


@pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0)])
def test_empty_arrays(shape):
    assert rendered(np.empty(shape)) == json.dumps(np.empty(shape).tolist())
