"""Bit-level IEEE helpers: encode/decode, arithmetic, edge cases."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fpbits import ieee, narrow


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)
any_doubles = st.floats(allow_nan=True, allow_infinity=True)
finite_singles = st.floats(
    allow_nan=False, allow_infinity=False, width=32, allow_subnormal=True
)


class TestConversions:
    def test_double_roundtrip_one(self):
        assert ieee.bits_to_double(0x3FF0000000000000) == 1.0
        assert ieee.double_to_bits(1.0) == 0x3FF0000000000000

    def test_double_roundtrip_negative_zero(self):
        bits = ieee.double_to_bits(-0.0)
        assert bits == 0x8000000000000000
        assert math.copysign(1.0, ieee.bits_to_double(bits)) == -1.0

    @given(finite_doubles)
    def test_double_bits_roundtrip(self, x):
        assert ieee.bits_to_double(ieee.double_to_bits(x)) == x

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_bits_double_bits_roundtrip(self, bits):
        x = ieee.bits_to_double(bits)
        if x == x:  # NaN payloads may not round-trip through pack
            assert ieee.double_to_bits(x) == bits or x != x

    @given(finite_singles)
    def test_single_bits_roundtrip(self, x):
        assert ieee.bits_to_single(ieee.single_to_bits(x)) == x

    def test_single_overflow_is_inf(self):
        assert ieee.bits_to_single(ieee.single_to_bits(1e300)) == math.inf
        assert ieee.bits_to_single(ieee.single_to_bits(-1e300)) == -math.inf

    def test_single_rounding_matches_numpy(self):
        for x in (0.1, 1.0 / 3.0, 1e-40, math.pi, 2.0**-149, 1.0000000596046448):
            expected = struct.unpack("<I", np.float32(x).tobytes())[0]
            assert ieee.single_to_bits(x) == expected


class TestNanPredicates:
    def test_canonical_nan64(self):
        assert ieee.is_nan_bits64(ieee.double_to_bits(math.nan))

    def test_inf_is_not_nan(self):
        assert not ieee.is_nan_bits64(ieee.double_to_bits(math.inf))
        assert not ieee.is_nan_bits32(0x7F800000)

    def test_replacement_sentinel_is_nan_in_both_widths(self):
        # The whole design hinges on this property.
        assert ieee.is_nan_bits64(0x7FF4DEAD00000000)
        assert ieee.is_nan_bits32(0x7FF4DEAD)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_nan32_agrees_with_float(self, bits):
        value = ieee.bits_to_single(bits)
        assert ieee.is_nan_bits32(bits) == (value != value)


class TestDoubleArithmetic:
    @given(finite_doubles, finite_doubles)
    def test_add_matches_host(self, a, b):
        got = ieee.bits_to_double(
            ieee.double_add(ieee.double_to_bits(a), ieee.double_to_bits(b))
        )
        want = a + b
        assert got == want or (got != got and want != want)

    @given(finite_doubles, finite_doubles)
    def test_mul_matches_host(self, a, b):
        got = ieee.bits_to_double(
            ieee.double_mul(ieee.double_to_bits(a), ieee.double_to_bits(b))
        )
        want = a * b
        assert got == want or (got != got and want != want)

    def test_div_by_zero_gives_inf(self):
        one = ieee.double_to_bits(1.0)
        zero = ieee.double_to_bits(0.0)
        assert ieee.bits_to_double(ieee.double_div(one, zero)) == math.inf
        neg = ieee.double_to_bits(-1.0)
        assert ieee.bits_to_double(ieee.double_div(neg, zero)) == -math.inf

    def test_zero_div_zero_is_nan(self):
        zero = ieee.double_to_bits(0.0)
        assert ieee.is_nan_bits64(ieee.double_div(zero, zero))

    def test_sqrt_negative_is_nan(self):
        assert ieee.is_nan_bits64(ieee.double_sqrt(ieee.double_to_bits(-4.0)))

    def test_sqrt_positive(self):
        assert ieee.bits_to_double(ieee.double_sqrt(ieee.double_to_bits(9.0))) == 3.0

    def test_neg_flips_sign_only(self):
        bits = ieee.double_to_bits(5.5)
        assert ieee.bits_to_double(ieee.double_neg(bits)) == -5.5
        nan = 0x7FF4DEAD00000000
        assert ieee.double_neg(nan) == 0xFFF4DEAD00000000

    def test_abs_clears_sign(self):
        assert ieee.bits_to_double(ieee.double_abs(ieee.double_to_bits(-2.5))) == 2.5

    def test_minsd_semantics_nan_returns_second(self):
        nan = ieee.double_to_bits(math.nan)
        two = ieee.double_to_bits(2.0)
        assert ieee.double_min(nan, two) == two
        assert ieee.double_min(two, nan) == nan

    @given(finite_doubles, finite_doubles)
    def test_min_max_ordering(self, a, b):
        bits_a, bits_b = ieee.double_to_bits(a), ieee.double_to_bits(b)
        lo = ieee.bits_to_double(ieee.double_min(bits_a, bits_b))
        hi = ieee.bits_to_double(ieee.double_max(bits_a, bits_b))
        assert lo <= hi


class TestCommutativeNan:
    """A sum or product with a NaN operand carries the first NaN
    operand's payload, quieted, on every call.  CPython's float ``+``
    and ``*`` choose the operand by code path, and a call site's first
    calls take another path than its specialized later ones."""

    @pytest.mark.parametrize(
        "fn,a,b,want",
        [
            (ieee.double_add, 0x7FF8000000000001, 0xFFF8000000000002, 0x7FF8000000000001),
            (ieee.double_mul, 0x7FF0000000000001, 0x7FF8000000000002, 0x7FF8000000000001),
            (ieee.double_add, 0x3FF0000000000000, 0xFFF0000000000003, 0xFFF8000000000003),
            (ieee.single_add, 0x7FC00001, 0xFFC00002, 0x7FC00001),
            (ieee.single_mul, 0xFF800001, 0x7FC00002, 0xFFC00001),
            (narrow.bf16_add, 0x7FC1, 0xFFC2, 0x7FC1),
            (narrow.bf16_mul, 0xFF81, 0x7FC2, 0xFFC1),
            (narrow.f16_add, 0xFE01, 0x7E02, 0xFE00),
            (narrow.f16_mul, 0x7E01, 0xFE02, 0x7E00),
        ],
        ids=lambda v: getattr(v, "__name__", None) or hex(v),
    )
    def test_first_nan_operand_wins_on_every_call(self, fn, a, b, want):
        assert [fn(a, b) for _ in range(20)] == [want] * 20


class TestSingleArithmetic:
    @given(finite_singles, finite_singles)
    def test_add_matches_numpy_float32(self, a, b):
        got = ieee.single_add(ieee.single_to_bits(a), ieee.single_to_bits(b))
        want = np.float32(a) + np.float32(b)
        want_bits = struct.unpack("<I", np.float32(want).tobytes())[0]
        if want == want:
            assert got == want_bits
        else:
            assert ieee.is_nan_bits32(got)

    @given(finite_singles, finite_singles)
    def test_mul_matches_numpy_float32(self, a, b):
        got = ieee.single_mul(ieee.single_to_bits(a), ieee.single_to_bits(b))
        want = np.float32(a) * np.float32(b)
        if want == want:
            assert got == struct.unpack("<I", np.float32(want).tobytes())[0]
        else:
            assert ieee.is_nan_bits32(got)

    @given(finite_singles, finite_singles)
    def test_div_matches_numpy_float32(self, a, b):
        with np.errstate(all="ignore"):
            want = np.divide(np.float32(a), np.float32(b), dtype=np.float32)
        got = ieee.single_div(ieee.single_to_bits(a), ieee.single_to_bits(b))
        if want == want:
            assert got == struct.unpack("<I", np.float32(want).tobytes())[0]
        else:
            assert ieee.is_nan_bits32(got)

    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, width=32))
    def test_sqrt_matches_numpy_float32(self, a):
        got = ieee.single_sqrt(ieee.single_to_bits(a))
        want = np.sqrt(np.float32(a), dtype=np.float32)
        assert got == struct.unpack("<I", np.float32(want).tobytes())[0]

    def test_single_nan_propagation(self):
        nan32 = 0x7FC00000
        one = ieee.single_to_bits(1.0)
        assert ieee.is_nan_bits32(ieee.single_add(nan32, one))
        assert ieee.is_nan_bits32(ieee.single_mul(nan32, one))


class TestTranscendentals:
    def test_double_sin_cos_identity(self):
        x = ieee.double_to_bits(0.7)
        s = ieee.bits_to_double(ieee.double_sin(x))
        c = ieee.bits_to_double(ieee.double_cos(x))
        assert abs(s * s + c * c - 1.0) < 1e-15

    def test_double_exp_log_roundtrip(self):
        x = ieee.double_to_bits(3.25)
        y = ieee.double_log(ieee.double_exp(x))
        assert abs(ieee.bits_to_double(y) - 3.25) < 1e-14

    def test_log_of_negative_is_nan(self):
        assert ieee.is_nan_bits64(ieee.double_log(ieee.double_to_bits(-1.0)))

    def test_log_of_zero_is_neg_inf(self):
        assert ieee.bits_to_double(ieee.double_log(0)) == -math.inf

    def test_exp_overflow_is_inf(self):
        assert ieee.bits_to_double(ieee.double_exp(ieee.double_to_bits(1e4))) == math.inf

    def test_sin_of_inf_is_nan(self):
        assert ieee.is_nan_bits64(ieee.double_sin(ieee.double_to_bits(math.inf)))

    def test_single_variants_round_to_single(self):
        x = ieee.single_to_bits(0.5)
        got = ieee.single_exp(x)
        assert got == ieee.single_to_bits(math.exp(0.5))
