"""Homogeneous polynomial systems: parsing, norms, evaluation, derivatives.

A system f = (f_1, ..., f_n) lives in R[X_0, ..., X_n] with f_i homogeneous
of degree d_i.  Monomials are stored sparsely and sorted lexicographically
by exponent vector, which makes iteration deterministic and duplicate
detection trivial.  Evaluation is monomial-wise, matching the cost model of
the round-off analysis: each term c_J X^J is its rounded coefficient times
d rounded factors, read from a factor table built once per polynomial and
per derivative, and the terms are added in the provider's one summation
order.  Every operation routes through an arithmetic provider, one call per
whole array, so the same code runs in exact and rounded mode.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .rounding import EXACT


class SystemFormatError(ValueError):
    """Raised when an input document violates the system schema."""


def _integer(value, what: str) -> int:
    """A JSON integer (an integral float too); bools and fractions are schema errors."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise SystemFormatError(f"{what} must be an integer, got {value!r}")
    return int(value)


class Monomial:
    """A coefficient attached to a multi-index J with |J| = degree."""

    __slots__ = ("exponents", "coefficient")

    def __init__(self, exponents, coefficient):
        exps = tuple(_integer(e, "exponent") for e in exponents)
        if any(e < 0 for e in exps):
            raise SystemFormatError(f"negative exponent in {exps}")
        if isinstance(coefficient, bool) or not isinstance(coefficient, numbers.Real):
            raise SystemFormatError(
                f"coefficient of monomial {exps} must be a number, got {coefficient!r}"
            )
        try:
            c = float(coefficient)
        except OverflowError:  # an integer beyond the double range
            c = math.inf
        if not math.isfinite(c):
            raise SystemFormatError(f"non-finite coefficient {c} for monomial {exps}")
        self.exponents = exps
        self.coefficient = c

    def __repr__(self):
        return f"Monomial({self.exponents}, {self.coefficient})"


def _factor_table(exponents: np.ndarray, degree: int) -> np.ndarray:
    """(S, degree) indices of the variables each term multiplies, in order.

    Row s lists X_0 J_0 times, then X_1 J_1 times, and so on, for the
    exponent vector J of term s; every term of a homogeneous polynomial of
    degree d has exactly d factors.
    """
    S, n_vars = exponents.shape
    return np.repeat(np.tile(np.arange(n_vars), S), exponents.ravel()).reshape(S, degree)


def multinomial(d: int, J) -> int:
    """Exact integer multinomial coefficient d! / (J_0! ... J_n!)."""
    out = 1
    total = d
    for e in J:
        out *= math.comb(total, e)
        total -= e
    return out


class Polynomial:
    """One homogeneous polynomial: sorted sparse monomials plus cached data."""

    __slots__ = ("degree", "exponents", "coefficients", "multinomials", "factors")

    def __init__(self, degree: int, monomials: list[Monomial], n_vars: int, index: int = 0):
        self.degree = int(degree)
        seen = {}
        for m in monomials:
            if len(m.exponents) != n_vars:
                raise SystemFormatError(
                    f"polynomial {index}: exponent vector {m.exponents} has length "
                    f"{len(m.exponents)}, expected {n_vars}"
                )
            if sum(m.exponents) != self.degree:
                raise SystemFormatError(
                    f"polynomial {index}: monomial {m.exponents} has total degree "
                    f"{sum(m.exponents)}, expected {self.degree} (homogeneity violation)"
                )
            if m.exponents in seen:
                raise SystemFormatError(
                    f"polynomial {index}: duplicate monomial {m.exponents}"
                )
            seen[m.exponents] = m.coefficient
        ordered = sorted(seen.items())
        if len(ordered) * self.degree > 10**8:
            raise SystemFormatError(
                f"polynomial {index}: {len(ordered)} terms of degree {self.degree} need "
                f"{len(ordered) * self.degree:,} factor-table entries, more than 10^8 (800 MB)"
            )
        try:
            multinomials = [float(multinomial(self.degree, J)) for J, _ in ordered]
        except OverflowError as exc:
            raise SystemFormatError(
                f"polynomial {index}: a multinomial coefficient is too large ({exc})"
            ) from exc
        exponents = np.array([J for J, _ in ordered], dtype=np.int64)
        self.exponents = exponents.reshape(len(ordered), n_vars)
        self.coefficients = np.array([c for _, c in ordered], dtype=np.float64)
        self.multinomials = np.array(multinomials, dtype=np.float64)
        self.factors = _factor_table(self.exponents, self.degree)

    @property
    def n_monomials(self) -> int:
        return len(self.coefficients)


def _exponent(coefficients: np.ndarray) -> int:
    """e with max|c| = m 2^e, 1/2 <= m < 1 (0 when every c is 0).

    Scaling by 2^-e is exact and brings the largest coefficient into
    [1/2, 1), where squares and reciprocals stay in the double range.
    """
    return int(np.frexp(np.max(np.abs(coefficients), initial=0.0))[1])


def _weyl_norm(coefficients: np.ndarray, multinomials: np.ndarray) -> float:
    return float(np.sqrt(np.sum(coefficients**2 / multinomials)))


def weyl_norm(poly: Polynomial) -> float:
    """sqrt( sum_J c_J^2 / (d choose J) ): the orthogonally invariant norm.

    Summed over the coefficients prescaled by 2^-e (see `_exponent`), so the
    largest square lies in [1/4, 1) for any finite coefficients; when every
    square is a normal double the result is bit-identical to the unscaled sum.
    A norm beyond the double range is inf, silently (documents print it as
    null); `normalized` still scales such a system correctly.
    """
    e = _exponent(poly.coefficients)
    scaled = _weyl_norm(np.ldexp(poly.coefficients, -e), poly.multinomials)
    with np.errstate(over="ignore"):
        return float(np.ldexp(scaled, e))


class PolynomialSystem:
    """A square system of n homogeneous polynomials in n+1 variables."""

    def __init__(self, degrees, polynomials: list[Polynomial], original_norm: float | None = None):
        self.degrees = tuple(int(d) for d in degrees)
        self.n = len(self.degrees)
        if self.n == 0:
            raise SystemFormatError("empty system (n = 0)")
        if any(d < 1 for d in self.degrees):
            raise SystemFormatError(f"degrees must be positive, got {self.degrees}")
        if len(polynomials) != self.n:
            raise SystemFormatError(
                f"{len(polynomials)} polynomials for {self.n} degrees"
            )
        self.polynomials = polynomials
        self.D = max(self.degrees)
        self.S = max(max(p.n_monomials, 1) for p in polynomials)
        self.weyl_norms = tuple(weyl_norm(p) for p in polynomials)
        self.norm = max(self.weyl_norms)
        # Norm of the system this one was scaled from; equals .norm when unscaled.
        self.original_norm = self.norm if original_norm is None else float(original_norm)
        self._derivatives = None

    @property
    def n_vars(self) -> int:
        return self.n + 1

    def normalized(self) -> "PolynomialSystem":
        """Rescale so max_i ||f_i|| = 1, remembering the original norm."""
        if self.norm == 0:
            raise SystemFormatError("cannot normalize the zero system")
        if self.norm == 1.0:
            return self
        # Scale the coefficients prescaled by 2^-e by the reciprocal of their
        # norm, which stays finite at both ends of the double range; for
        # normal-range systems each product equals c * (1 / ||f||) bit for bit.
        e = max(_exponent(p.coefficients) for p in self.polynomials)
        prescaled = [np.ldexp(p.coefficients, -e) for p in self.polynomials]
        factor = 1.0 / max(
            _weyl_norm(c, p.multinomials) for c, p in zip(prescaled, self.polynomials)
        )
        polys = [
            Polynomial(
                p.degree,
                [Monomial(J, c) for J, c in zip(p.exponents.tolist(), (cs * factor).tolist())],
                self.n_vars,
            )
            for cs, p in zip(prescaled, self.polynomials)
        ]
        return PolynomialSystem(self.degrees, polys, original_norm=self.norm)

    def derivative_tables(self):
        """Per (i, k): (coefficients, factor table) of dX_k f_i, built on first use."""
        if self._derivatives is None:
            tables = []
            for poly in self.polynomials:
                row = []
                for k in range(self.n_vars):
                    keep = poly.exponents[:, k] > 0
                    exps = poly.exponents[keep]  # a copy, so the decrement below is local
                    coeffs = poly.coefficients[keep] * exps[:, k]
                    exps[:, k] -= 1
                    row.append((coeffs, _factor_table(exps, poly.degree - 1)))
                tables.append(row)
            self._derivatives = tables
        return self._derivatives

    def __repr__(self):
        return f"PolynomialSystem(n={self.n}, degrees={self.degrees})"


def parse_system(document) -> PolynomialSystem:
    """Parse the JSON input schema into a validated PolynomialSystem.

    Schema: {"n": int, "degrees": [int], "polys": [[{"J": [int], "c": num}]]}.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SystemFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SystemFormatError("top level must be an object")
    try:
        n = _integer(document["n"], "n")
        degrees = [_integer(d, "degree") for d in document["degrees"]]
        polys = document["polys"]
    except (KeyError, TypeError) as exc:
        raise SystemFormatError(f"missing or invalid field: {exc}") from exc
    if n < 1:
        raise SystemFormatError(f"n must be >= 1, got {n}")
    if len(degrees) != n:
        raise SystemFormatError(f"{len(degrees)} degrees for n = {n}")
    if not isinstance(polys, list) or len(polys) != n:
        raise SystemFormatError(f"'polys' must be a list of {n} monomial lists")
    polynomials = []
    for i, (d, mons) in enumerate(zip(degrees, polys)):
        if not isinstance(mons, list):
            raise SystemFormatError(f"polynomial {i}: monomial list expected")
        if not mons:
            raise SystemFormatError(
                f"polynomial {i}: empty monomial list (the zero polynomial "
                "has no well-defined zero set on the sphere)"
            )
        monomials = []
        for entry in mons:
            try:
                monomials.append(Monomial(entry["J"], entry["c"]))
            except (KeyError, TypeError) as exc:
                raise SystemFormatError(
                    f"polynomial {i}: bad monomial entry {entry!r}"
                ) from exc
        polynomials.append(Polynomial(d, monomials, n + 1, index=i))
    return PolynomialSystem(degrees, polynomials)


def system_to_document(f: PolynomialSystem) -> dict:
    """Inverse of parse_system (used by fixtures and the CLI)."""
    return {
        "n": f.n,
        "degrees": list(f.degrees),
        "polys": [
            [
                {"J": list(J), "c": c}
                for J, c in zip(p.exponents.tolist(), p.coefficients.tolist())
            ]
            for p in f.polynomials
        ],
    }


def _eval_monomials(coeffs, factors, X, ar):
    """Sum of c_J * X^J over the terms of a factor table, one rounded op per array.

    X has shape (m, n+1); returns shape (m,).  The (S, m) array of terms
    starts at the rounded coefficients and is multiplied by one factor
    column of the table at a time, so term s of point j is
    ((c_s x_a) x_b) ... in the table's order; `Arithmetic.sum` then adds the
    rows.  Term-major, each factor is one gather of contiguous rows of X.T.
    """
    m = X.shape[0]
    if len(coeffs) == 0:
        return np.zeros(m)
    XT = X.T
    terms = np.broadcast_to(ar.const(coeffs)[:, None], (len(coeffs), m))
    for r in range(factors.shape[1]):
        terms = ar.mul(terms, XT[factors[:, r]])
    return ar.sum(terms)


def evaluate_many(f: PolynomialSystem, X: np.ndarray, ar=EXACT):
    """Evaluate the system at a batch of points X (m, n+1).

    Returns (values (m, n), sup_norm (m,)).
    """
    X = np.atleast_2d(X)
    vals = np.empty((X.shape[0], f.n))
    for i, poly in enumerate(f.polynomials):
        vals[:, i] = _eval_monomials(poly.coefficients, poly.factors, X, ar)
    sup = np.max(np.abs(vals), axis=1)
    return vals, sup


def jacobian_many(f: PolynomialSystem, X: np.ndarray, ar=EXACT) -> np.ndarray:
    """Batched Jacobian Df(x): shape (m, n, n+1)."""
    X = np.atleast_2d(X)
    tables = f.derivative_tables()
    out = np.empty((X.shape[0], f.n, f.n_vars))
    for i in range(f.n):
        for k in range(f.n_vars):
            out[:, i, k] = _eval_monomials(*tables[i][k], X, ar)
    return out
