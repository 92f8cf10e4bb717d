"""Truncated complex power series in one variable.

Coefficients are stored ascending; every operation truncates back to the
common order, so a series of order n represents f(x) + O(x^(n+1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .poly import evaluate


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple[complex, ...]

    @staticmethod
    def of(values, order: int) -> "TruncatedSeries":
        vals = [complex(v) for v in values][: order + 1]
        vals += [0.0 + 0.0j] * (order + 1 - len(vals))
        return TruncatedSeries(tuple(vals))

    @staticmethod
    def constant(value: complex, order: int) -> "TruncatedSeries":
        return TruncatedSeries.of([value], order)

    @staticmethod
    def identity(order: int) -> "TruncatedSeries":
        return TruncatedSeries.of([0.0, 1.0], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = self.order
        out = [0.0 + 0.0j] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(tuple(out))

    def scale(self, k: complex) -> "TruncatedSeries":
        k = complex(k)
        return TruncatedSeries(tuple(k * c for c in self.coeffs))

    def shift(self, powers: int) -> "TruncatedSeries":
        """Multiply by x^powers, truncating at the same order."""
        out = [0.0 + 0.0j] * powers + list(self.coeffs)
        return TruncatedSeries(tuple(out[: self.order + 1]))

    def reciprocal(self) -> "TruncatedSeries":
        if self.coeffs[0] == 0:
            raise InputError("reciprocal needs a unit constant term")
        n = self.order
        out = [1.0 / self.coeffs[0]] + [0.0 + 0.0j] * n
        for k in range(1, n + 1):
            acc = 0.0 + 0.0j
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = -acc / self.coeffs[0]
        return TruncatedSeries(tuple(out))

    def sqrt(self, branch: complex) -> "TruncatedSeries":
        """Square root with prescribed constant term (branch^2 must equal the
        constant coefficient)."""
        c0 = self.coeffs[0]
        branch = complex(branch)
        if abs(branch * branch - c0) > 1e-9 * (1.0 + abs(c0)):
            raise InputError("branch value does not square to the constant term")
        if branch == 0:
            raise InputError("sqrt at a zero constant term is not a power series")
        n = self.order
        out = [branch] + [0.0 + 0.0j] * n
        for k in range(1, n + 1):
            acc = 0.0 + 0.0j
            for j in range(1, k):
                acc += out[j] * out[k - j]
            out[k] = (self.coeffs[k] - acc) / (2.0 * branch)
        return TruncatedSeries(tuple(out))

    def __call__(self, x: complex) -> complex:
        return evaluate(self.coeffs, x)

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise InputError("series orders differ")
