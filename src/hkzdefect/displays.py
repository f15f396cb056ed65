"""The expanded convexity-numerator displays, and an exact number type to
evaluate them on.

The four `numerator_display_*` functions are verbatim transcriptions of the two
expanded numerator displays of the convexity argument and their regrouped
variants, kept for comparison against the recomputed numerator
(`proofcheck.convexity_numerator`); mismatches are reported, never silently
corrected.  They take any numbers closed under +, - and * with ints:
`Fraction`s, or `ScaledRational`s over one shared denominator, which
`proofcheck.convexity_scan` uses to evaluate them without a gcd.
"""

from __future__ import annotations


class ScaledRational:
    """The rational p / d**e, for a positive integer d that every operand shares.

    A sum lifts the operand of smaller exponent by a power of d, and a product
    adds exponents; nothing is reduced, so no gcd is ever taken.  An int mixes
    in as exponent 0.  Operands over different d give wrong results, unchecked.
    Equality with an int or a `Fraction` is one cross-multiplication.
    """

    __slots__ = ("p", "e", "d")

    def __init__(self, p: int, e: int, d: int):
        self.p, self.e, self.d = p, e, d

    def _lifted(self, other) -> tuple[int, int, int]:
        """(p, r, e) with self = p/d^e and other = r/d^e."""
        if isinstance(other, ScaledRational):
            r, f = other.p, other.e
        else:
            r, f = other, 0
        e = self.e
        if f < e:
            return self.p, r * self.d ** (e - f), e
        if f > e:
            return self.p * self.d ** (f - e), r, f
        return self.p, r, e

    def __add__(self, other) -> ScaledRational:
        p, r, e = self._lifted(other)
        return ScaledRational(p + r, e, self.d)

    __radd__ = __add__

    def __sub__(self, other) -> ScaledRational:
        p, r, e = self._lifted(other)
        return ScaledRational(p - r, e, self.d)

    def __rsub__(self, other) -> ScaledRational:
        p, r, e = self._lifted(other)
        return ScaledRational(r - p, e, self.d)

    def __mul__(self, other) -> ScaledRational:
        if isinstance(other, ScaledRational):
            return ScaledRational(self.p * other.p, self.e + other.e, self.d)
        return ScaledRational(self.p * other, self.e, self.d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> ScaledRational:
        return ScaledRational(self.p**n, self.e * n, self.d)

    def __eq__(self, other) -> bool:
        # other is an int or a Fraction
        return self.p * other.denominator == other.numerator * self.d**self.e


def numerator_display_neg_sum(lam, mu, sigma, k):
    w = 1 - (1 - lam - mu) ** 2 - k * (1 + sigma) ** 2
    m2 = mu * mu + k * sigma * sigma
    e = (1 + sigma) ** 2
    return (
        2 * lam**2 * m2 * w**2
        + 2 * lam**2 * w**3
        - 2 * lam**2 * k * e * m2 * w
        - 2 * k * lam**2 * sigma**2 * w**2
        + 2 * lam**2 * k**2 * e**2 * m2
        + 2 * k**3 * e**2 * m2
        + 2 * lam**2 * k**2 * sigma**2 * e * w
        + 2 * k**3 * sigma**2 * e
    )


def numerator_display_neg_grouped(lam, mu, sigma, k):
    w = 1 - (1 - lam - mu) ** 2 - k * (1 + sigma) ** 2
    m2 = mu * mu + k * sigma * sigma
    e = (1 + sigma) ** 2
    return (
        lam**2 * m2 * (1 - (1 - lam - mu) ** 2 - 2 * k * e) ** 2
        + lam**2 * w * (1 - (1 - lam - mu) ** 2 - k * (e + sigma**2)) ** 2
        + lam**2 * m2 * w**2
        + lam**2 * w**3
        + lam**2 * k**2 * e**2 * m2
        + 2 * k**3 * e**2 * m2
        + lam**2 * k**2 * (2 * sigma**2 * e - sigma**4) * w
        + 2 * k**3 * sigma**2 * e
    )


def numerator_display_pos_sum(lam, mu, sigma, k):
    v = 1 - (lam - mu) ** 2 - k * (1 - sigma) ** 2
    m2 = mu * mu + k * sigma * sigma
    e = (1 - sigma) ** 2
    return (
        2 * lam**2 * m2 * v**2
        + 2 * lam**2 * v**3
        - 2 * lam**2 * k * e * m2 * v
        - 2 * lam**2 * k * sigma**2 * v**2
        + 2 * lam**2 * k**2 * e**2 * m2
        + 2 * k**3 * e**2 * m2
        + 2 * lam**2 * k**2 * sigma**2 * e * v
        + 2 * k**3 * sigma**2 * e * v
    )


def numerator_display_pos_grouped(lam, mu, sigma, k):
    v = 1 - (lam - mu) ** 2 - k * (1 - sigma) ** 2
    m2 = mu * mu + k * sigma * sigma
    e = (1 - sigma) ** 2
    return (
        lam * m2 * (1 - (lam - mu) ** 2 - 2 * k * e) ** 2
        + lam**2 * v * (1 - (lam - mu) ** 2 - k * (e + sigma**2)) ** 2
        + lam**2 * m2 * v**2
        + lam**2 * v**3
        + lam**2 * k**2 * e**2 * m2
        + 2 * k**3 * e**2 * m2
        + lam**2 * k**2 * sigma**2 * e * v
        + k**3 * (2 * sigma**2 * e - sigma**4) * v
        + 2 * k**3 * sigma**2 * e * v
    )
