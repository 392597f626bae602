import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qperturb.errors import NonHermitianInput, NotNormalized, ParseError
from qperturb.fileio import (
    format_complex,
    format_matrix,
    format_real,
    format_vector,
    parse_matrix,
    parse_vector,
)
from qperturb.models import random_hermitian
from qperturb.perturbation import StateVector


class TestParseMatrix:
    def test_complex_tokens(self):
        m = parse_matrix("2\n(0,0) (0,1)\n(0,-1) (0,0)\n")
        np.testing.assert_array_equal(m.array, np.array([[0, 1j], [-1j, 0]]))

    def test_real_shorthand(self):
        m = parse_matrix("2\n0 1\n1 0\n")
        np.testing.assert_array_equal(m.array, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianInput):
            parse_matrix("2\n0 1\n0 0\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "% a matrix\n\n2\n% row one\n0 1\n1 0\n"
        m = parse_matrix(text)
        np.testing.assert_array_equal(m.array, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_free_token_layout(self):
        # tokens may wrap lines arbitrarily
        m = parse_matrix("2 0 1\n1 0")
        assert m.dim == 2

    def test_bad_token_reports_line(self):
        # float() would read the underscore and the Arabic-Indic digits as 10 and 12
        for parse, text in [
            (parse_matrix, "2\n0 1\n1 oops\n"),
            (parse_matrix, "2\n0 1\n1 1_0\n"),
            (parse_matrix, "2\n0 1\n1 (1_0,0)\n"),
            (parse_matrix, "2\n0 1\n1 (0,1_0)\n"),
            (parse_matrix, "2\n0 1\n1 \u0661\u0662\n"),
            (parse_vector, "2\n% comment\n1 0_0\n"),
            (parse_vector, "2\n% comment\n1 \u0660\n"),
        ]:
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.line == 3, text

    def test_bad_complex_token(self):
        with pytest.raises(ParseError):
            parse_matrix("2\n(0,0) (0,1,2)\n(0,-1) (0,0)\n")

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("2\n0 1 1 0 5\n")
        assert (exc.value.reason, exc.value.line) == ("expected 4 entries for dim 2, got 5", 2)
        with pytest.raises(ParseError) as exc:
            parse_matrix("3\n0 1\n1 0\n")
        assert (exc.value.reason, exc.value.line) == ("expected 9 entries for dim 3, got 4", 3)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_matrix("two\n0 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_matrix("0\n")
        with pytest.raises(ParseError):
            parse_matrix("")
        # int() would read these as 2
        for header in ("0_2", "\u0662", "\uff12"):
            with pytest.raises(ParseError) as exc:
                parse_matrix(f"% comment\n{header}\n0 1\n1 0\n")
            assert exc.value.line == 2, header
            with pytest.raises(ParseError):
                parse_vector(f"{header}\n1 0\n")

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("2\n0 inf\ninf 0\n")


class TestMatrixRoundTrip:
    def test_values_survive_exactly(self):
        for seed in range(100):
            n = 1 + seed % 8
            m = random_hermitian(seed, n)
            again = parse_matrix(format_matrix(m))
            assert np.abs(again.array - m.array).max() <= 1e-15

    def test_formatting_is_deterministic(self):
        m = random_hermitian(3, 4)
        assert format_matrix(m) == format_matrix(m)

    def test_real_matrix_uses_shorthand(self):
        from qperturb.numkernel import HermitianMatrix

        text = format_matrix(HermitianMatrix([[0.5, 1.25], [1.25, -2.0]]))
        assert text == "2\n0.5 1.25\n1.25 -2\n"


class TestParseVector:
    def test_basis_vector(self):
        v = parse_vector("2\n1 0\n")
        np.testing.assert_array_equal(v.coefficients, [1.0, 0.0])

    def test_equal_superposition(self):
        v = parse_vector("2\n0.7071067811865476 0.7071067811865476\n")
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(v.coefficients, [s, s], atol=1e-15)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized) as exc:
            parse_vector("2\n1 1\n")
        assert exc.value.norm == pytest.approx(math.sqrt(2))

    def test_slightly_off_norm_is_renormalized(self):
        v = parse_vector(f"2\n{1 + 1e-8} 0\n")
        assert np.linalg.norm(v.coefficients) == pytest.approx(1.0, rel=1e-15)

    def test_one_hot_file_is_exactly_the_basis_state(self):
        # Divided by its norm as numpy does it, through the reciprocal, about one
        # such file in eight read 0.9999999999999999 where 1 was meant.
        want = StateVector.basis_state(3, 1).coefficients.tobytes()
        for v in [0.99999999235, *np.linspace(0.9999991, 1.0000009, 401).tolist()]:
            assert parse_vector(f"3\n0 {v!r} 0\n").coefficients.tobytes() == want

    def test_complex_coefficients(self):
        v = parse_vector("2\n(0,1) 0\n")
        np.testing.assert_array_equal(v.coefficients, [1j, 0.0])

    def test_wrong_count(self):
        with pytest.raises(ParseError) as exc:
            parse_vector("3\n1 0\n")
        assert str(exc.value) == "line 2: expected 3 entries for dim 3, got 2"
        with pytest.raises(ParseError) as exc:
            parse_vector("% header only\n2\n")
        assert (exc.value.reason, exc.value.line) == ("expected 2 entries for dim 2, got 0", 2)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        raw /= np.linalg.norm(raw)
        again = parse_vector(format_vector(raw))
        assert np.abs(again.coefficients - raw).max() <= 1e-15


class TestTokenFormatting:
    def test_real_token_17_digits(self):
        assert format_real(0.1) == "0.10000000000000001"
        assert format_real(2.0) == "2"

    def test_complex_token_shape(self):
        assert format_complex(1.5 - 0.25j) == "(1.5,-0.25)"
        assert format_complex(3.0 + 0j) == "3"

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_real_round_trip_is_exact(self, value):
        assert float(format_real(value)) == value

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    def test_complex_token_round_trip_through_matrix(self, re, im):
        from qperturb.numkernel import HermitianMatrix

        z = complex(re, im)
        m = HermitianMatrix(np.array([[0.0, z], [np.conj(z), 0.0]]))
        again = parse_matrix(format_matrix(m))
        assert np.abs(again.array - m.array).max() <= 1e-15
