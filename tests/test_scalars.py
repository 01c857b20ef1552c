import json
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from aqbernstein.scalars import (
    MixedModeError,
    coerce,
    common_mode,
    format_scalar,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
)


class TestParsing:
    def test_fraction_text(self):
        assert parse_scalar("3/7") == Fraction(3, 7)
        assert parse_scalar("-3/7") == Fraction(-3, 7)
        assert parse_scalar(" 2 ") == Fraction(2)

    def test_decimal_is_exact(self):
        assert parse_scalar("0.4") == Fraction(2, 5)
        assert parse_scalar("0.1") == Fraction(1, 10)  # not the float 0.1

    def test_float_mode(self):
        assert parse_scalar("0.4", "float") == 0.4
        assert parse_scalar("1/2", "float") == 0.5

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_scalar("two fifths")
        for text in ["inf", "-inf", "nan", "1e400", "1/0", "1" + "0" * 400 + "/3"]:
            with pytest.raises(ValueError):
                parse_scalar(text, "float")
        for text in ["inf", "nan", "1/0"]:
            with pytest.raises(ValueError):
                parse_scalar(text)

    def test_exact_exponent_bound(self):
        # exponents up to the int/str digit cap parse exactly; a larger one
        # is refused before Fraction builds 10**|exponent|, which took
        # 12 s at 1e-10000000
        assert parse_scalar("1e-4300") == Fraction(1, 10**4300)
        assert parse_scalar(" 3E+4_300 ") == 3 * 10**4300
        assert parse_scalar("2.5e-0004300") == Fraction(5, 2 * 10**4300)
        for text in ["1e-4301", "1e-1000000", "1.5E+1_000_000", "1e" + "9" * 5000]:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"^exponent beyond \+-4300 in "):
                parse_scalar(text)
            assert time.perf_counter() - start < 0.1, text
        # float mode reads such texts as before
        assert parse_scalar("1e-1000000", "float") == 0.0
        with pytest.raises(ValueError, match="must be finite"):
            parse_scalar("1e1000000", "float")


class TestModes:
    def test_mode_tags(self):
        assert common_mode(Fraction(1, 2)) == "exact"
        assert common_mode(3) is None  # ints take the mode of their company
        assert common_mode(0.5) == "float"
        with pytest.raises(TypeError):
            common_mode("0.5")

    def test_common_mode_rejects_mixture(self):
        with pytest.raises(MixedModeError):
            common_mode(Fraction(1, 2), 0.5)

    def test_ints_are_neutral(self):
        assert common_mode(1, 2) is None
        assert common_mode(1, 0.5) == "float"
        assert common_mode(1, Fraction(1, 2)) == "exact"

    def test_coerce(self):
        assert coerce(2, "exact") == Fraction(2)
        assert coerce(2, "float") == 2.0
        with pytest.raises(MixedModeError):
            coerce(0.5, "exact")
        with pytest.raises(MixedModeError):
            coerce(Fraction(1, 2), "float")


class TestComparison:
    def test_float_uses_tolerance(self):
        # the comparison the README documents for float results
        assert math.isclose(1.0, 1.0 + 1e-12, rel_tol=1e-10, abs_tol=1e-12)
        assert not math.isclose(1.0, 1.0 + 1e-8, rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(1.0, 1.0 + 1e-7, rel_tol=1e-6, abs_tol=1e-6)


class TestSerialization:
    def test_exact_roundtrip(self):
        x = Fraction(-(10**40) + 1, 3**30)
        encoded = json.loads(json.dumps(scalar_to_json(x)))
        assert scalar_from_json(encoded) == x

    def test_float_roundtrip(self):
        x = math.pi
        assert scalar_from_json(json.loads(json.dumps(scalar_to_json(x)))) == x

    def test_zero_denominator_refused(self):
        with pytest.raises(ValueError, match="zero denominator"):
            scalar_from_json({"num": "1", "den": "0"})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", pytest.param(
        "1" + "0" * 400, id="integer-past-float-range")])
    def test_non_finite_float_refused(self, text):
        # json.loads reads the non-standard tokens as floats; parse_scalar
        # refuses them, and so does the JSON reader. It refuses a JSON
        # integer past float range the same way (it raised OverflowError)
        with pytest.raises(ValueError, match="must be finite"):
            scalar_from_json(json.loads(text))
        assert scalar_from_json(json.loads("1e308")) == 1e308

    def test_past_the_digit_cap(self):
        # numerator and denominator of about 5000 digits, past the default
        # int/str cap of 4300; x is close to -7/3
        x = Fraction(-(7**5916) - 1, 3 * 7**5915)
        assert len(str(Decimal(x.numerator))) > sys.get_int_max_str_digits()
        encoded = json.loads(json.dumps(scalar_to_json(x)))
        assert encoded["num"] == str(Decimal(x.numerator))
        assert scalar_from_json(encoded) == x
        text = format_scalar(x)
        assert text == f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
        assert parse_scalar(text) == x
        assert parse_scalar(f"  {text} ") == x
        assert parse_scalar(encoded["num"]) == x.numerator
        assert parse_scalar(text, "float") == float(x) == -7 / 3
        # malformed long texts are refused as before, and the cap stays
        for bad in (f"{text}/2", f"{text}x", text.replace("/", "/-"), "1" * 5000 + ".5/3"):
            with pytest.raises(ValueError):
                parse_scalar(bad)
        with pytest.raises(ValueError):
            scalar_from_json({"num": "1" * 5000 + "x", "den": "1"})
        assert sys.get_int_max_str_digits() == 4300

    def test_bytes_below_the_cap_unchanged(self):
        for x in (Fraction(-(10**40) + 1, 3**30), Fraction(10**4299), Fraction(0)):
            assert scalar_to_json(x) == {"num": str(x.numerator), "den": str(x.denominator)}
            assert format_scalar(x) == str(x)

    def test_formats(self):
        assert format_scalar(Fraction(1, 3)) == "1/3"
        assert format_scalar(Fraction(4)) == "4"
        assert format_scalar(-0.0) == "0"
        assert float(format_scalar(math.sqrt(2))) == math.sqrt(2)
