"""Homogeneous polynomial systems: parsing, norms, evaluation, derivatives.

A system f = (f_1, ..., f_n) lives in R[X_0, ..., X_n] with f_i homogeneous
of degree d_i.  Monomials are stored sparsely and sorted lexicographically
by exponent vector, which makes iteration deterministic and duplicate
detection trivial.  Evaluation is monomial-wise (per-monomial power
products), matching the cost model of the round-off analysis; every scalar
operation routes through an arithmetic provider so the same code runs in
exact and rounded mode.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .rounding import EXACT


class SystemFormatError(ValueError):
    """Raised when an input document violates the system schema."""


class Monomial:
    """A coefficient attached to a multi-index J with |J| = degree."""

    __slots__ = ("exponents", "coefficient")

    def __init__(self, exponents, coefficient):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise SystemFormatError(f"negative exponent in {exps}")
        c = float(coefficient)
        if not math.isfinite(c):
            raise SystemFormatError(f"non-finite coefficient {c} for monomial {exps}")
        self.exponents = exps
        self.coefficient = c

    def __repr__(self):
        return f"Monomial({self.exponents}, {self.coefficient})"


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

    __slots__ = ("degree", "exponents", "coefficients", "multinomials")

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
        if ordered:
            self.exponents = np.array([J for J, _ in ordered], dtype=np.int64)
            self.coefficients = np.array([c for _, c in ordered], dtype=np.float64)
        else:
            self.exponents = np.zeros((0, n_vars), dtype=np.int64)
            self.coefficients = np.zeros(0, dtype=np.float64)
        self.multinomials = np.array(
            [float(multinomial(self.degree, J)) for J, _ in ordered], dtype=np.float64
        )

    @property
    def n_monomials(self) -> int:
        return len(self.coefficients)

    def scaled(self, factor: float, n_vars: int) -> "Polynomial":
        mons = [
            Monomial(J, c * factor)
            for J, c in zip(self.exponents.tolist(), self.coefficients.tolist())
        ]
        return Polynomial(self.degree, mons, n_vars)


def weyl_norm(poly: Polynomial) -> float:
    """sqrt( sum_J c_J^2 / (d choose J) ): the orthogonally invariant norm."""
    if poly.n_monomials == 0:
        return 0.0
    return float(np.sqrt(np.sum(poly.coefficients**2 / poly.multinomials)))


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
        factor = 1.0 / self.norm
        polys = [p.scaled(factor, self.n_vars) for p in self.polynomials]
        return PolynomialSystem(self.degrees, polys, original_norm=self.norm)

    def derivative_tables(self):
        """Per (i, k): sparse monomial data of dX_k f_i, built on first use."""
        if self._derivatives is None:
            tables = []
            for poly in self.polynomials:
                row = []
                for k in range(self.n_vars):
                    exps = []
                    coeffs = []
                    for J, c in zip(poly.exponents.tolist(), poly.coefficients.tolist()):
                        if J[k] > 0:
                            J2 = list(J)
                            J2[k] -= 1
                            exps.append(J2)
                            coeffs.append(c * J[k])
                    row.append(
                        (
                            np.array(exps, dtype=np.int64).reshape(len(exps), self.n_vars),
                            np.array(coeffs, dtype=np.float64),
                        )
                    )
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
        n = int(document["n"])
        degrees = [int(d) for d in document["degrees"]]
        polys = document["polys"]
    except (KeyError, TypeError, ValueError) as exc:
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


def _eval_monomials(exps, coeffs, X, ar):
    """Sum of c_J * X^J over given monomials, one rounded op at a time.

    X has shape (m, n+1); returns shape (m,).
    """
    m = X.shape[0]
    acc = None
    for J, c in zip(exps.tolist(), coeffs.tolist()):
        term = np.full(m, ar.const(c))
        for k, e in enumerate(J):
            for _ in range(e):
                term = ar.mul(term, X[:, k])
        acc = term if acc is None else ar.add(acc, term)
    if acc is None:
        return np.zeros(m)
    return acc


def evaluate_many(f: PolynomialSystem, X: np.ndarray, ar=EXACT):
    """Evaluate the system at a batch of points X (m, n+1).

    Returns (values (m, n), sup_norm (m,)).
    """
    X = np.atleast_2d(X)
    vals = np.empty((X.shape[0], f.n))
    for i, poly in enumerate(f.polynomials):
        vals[:, i] = _eval_monomials(poly.exponents, poly.coefficients, X, ar)
    sup = np.max(np.abs(vals), axis=1)
    return vals, sup


def evaluate(f: PolynomialSystem, x, ar=EXACT):
    """Evaluate at a single point; returns (vector in R^n, sup norm)."""
    vals, sup = evaluate_many(f, np.asarray(x, dtype=float)[None, :], ar)
    return vals[0], float(sup[0])


def jacobian_many(f: PolynomialSystem, X: np.ndarray, ar=EXACT) -> np.ndarray:
    """Batched Jacobian Df(x): shape (m, n, n+1)."""
    X = np.atleast_2d(X)
    tables = f.derivative_tables()
    out = np.empty((X.shape[0], f.n, f.n_vars))
    for i in range(f.n):
        for k in range(f.n_vars):
            exps, coeffs = tables[i][k]
            out[:, i, k] = _eval_monomials(exps, coeffs, X, ar)
    return out


def jacobian(f: PolynomialSystem, x, ar=EXACT) -> np.ndarray:
    """Jacobian at a single point: (n, n+1) matrix of partial derivatives."""
    return jacobian_many(f, np.asarray(x, dtype=float)[None, :], ar)[0]
