"""Plain-text matrix and vector formats.

Grammar: lines starting with '%' are comments; the first token is the
dimension N; a matrix file then carries N*N tokens (row-major), a vector
file N tokens.  A token is either a plain decimal real or '(re,im)' with no
interior whitespace.  Values are rendered with 17 significant digits, so
format -> parse is the identity on every stored value.
"""

from __future__ import annotations

import numpy as np

from .errors import NotNormalized, ParseError
from .numkernel import HermitianMatrix
from .perturbation import StateVector

# Vector files may be off unit norm by this much and are then renormalized.
VECTOR_NORM_ATOL = 1e-6


def format_real(value: float) -> str:
    return "%.17g" % float(value)


def _pair(z: complex) -> str:
    """Always the ``(re,im)`` token, even for a real value."""
    return f"({format_real(z.real)},{format_real(z.imag)})"


def format_complex(value: complex) -> str:
    z = complex(value)
    if z.imag == 0.0:
        return format_real(z.real)
    return _pair(z)


def _tokens_with_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        out.extend((lineno, tok) for tok in stripped.split())
    return out


def _plain(token: str) -> str:
    """The token, or ``ValueError`` unless it is ASCII without ``_``: ``int``
    and ``float`` also read digit-group underscores and non-ASCII digits,
    which the grammar does not allow."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return token


def _parse_number(token: str, lineno: int) -> float:
    try:
        value = float(_plain(token))
    except ValueError:
        raise ParseError(f"bad numeric token {token!r}", lineno) from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", lineno)
    return value


def _parse_token(token: str, lineno: int) -> complex:
    if token.startswith("("):
        if not token.endswith(")") or token.count(",") != 1:
            raise ParseError(f"bad complex token {token!r}", lineno)
        re_part, im_part = token[1:-1].split(",")
        return complex(_parse_number(re_part, lineno), _parse_number(im_part, lineno))
    return complex(_parse_number(token, lineno), 0.0)


def _parse_entries(text: str, what: str, rank: int) -> np.ndarray:
    """The header N, then exactly N**rank tokens, returned shaped ``(N,) * rank``."""
    tokens = _tokens_with_lines(text)
    if not tokens:
        raise ParseError(f"empty {what} input")
    lineno, token = tokens[0]
    try:
        dim = int(_plain(token))
    except ValueError:
        raise ParseError(f"dimension header must be an integer, got {token!r}", lineno) from None
    if dim < 1:
        raise ParseError(f"dimension must be >= 1, got {dim}", lineno)
    body = tokens[1:]
    if len(body) != dim**rank:
        lineno = body[-1][0] if body else lineno
        raise ParseError(f"expected {dim**rank} entries for dim {dim}, got {len(body)}", lineno)
    entries = [_parse_token(tok, lineno) for lineno, tok in body]
    return np.array(entries, dtype=np.complex128).reshape((dim,) * rank)


def parse_matrix(text: str) -> HermitianMatrix:
    """Parse, validate hermiticity and symmetrize a matrix file."""
    return HermitianMatrix(_parse_entries(text, "matrix", 2))


def format_matrix(matrix: HermitianMatrix) -> str:
    rows = [str(matrix.dim)]
    for row in matrix.array:
        rows.append(" ".join(format_complex(z) for z in row))
    return "\n".join(rows) + "\n"


def parse_vector(text: str) -> StateVector:
    """Parse a state-coefficient file; renormalize if close to unit norm.

    Renormalized by :meth:`StateVector.from_unnormalized`, so a file with
    one nonzero entry reads as exactly that basis state.
    """
    coeffs = _parse_entries(text, "vector", 1)
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > VECTOR_NORM_ATOL:
        raise NotNormalized(norm)
    return StateVector.from_unnormalized(coeffs)


def format_vector(coefficients) -> str:
    coeffs = np.asarray(coefficients, dtype=np.complex128)
    tokens = " ".join(format_complex(z) for z in coeffs)
    return f"{coeffs.shape[0]}\n{tokens}\n"
