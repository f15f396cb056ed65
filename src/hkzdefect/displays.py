"""The expanded convexity-numerator displays, and an exact polynomial type to
compare them on.

The four `numerator_display_*` functions are verbatim transcriptions of the two
expanded numerator displays of the convexity argument and their regrouped
variants, kept for comparison against the recomputed numerator
(`proofcheck.convexity_numerator`); mismatches are reported, never silently
corrected.  They take `Fraction`s, or the variables of a `Poly`, on which
`proofcheck._display_matches` compares them with the recomputed numerator as
polynomial identities, once per side.
"""

from __future__ import annotations


class Poly:
    """A polynomial with integer coefficients.

    `terms` maps each monomial, the sorted tuple of its variables' indices
    with repetition (x0^2 x3 is (0, 0, 3)), to its nonzero coefficient, so
    two polynomials are equal exactly when their term dicts are.  An int
    mixes in as the constant monomial ().
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], int]):
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def variables(cls, n: int) -> tuple[Poly, ...]:
        return tuple(cls({(v,): 1}) for v in range(n))

    @staticmethod
    def _lift(other) -> Poly:
        if not isinstance(other, (Poly, int)):
            raise TypeError(f"cannot combine a Poly with {type(other).__name__}")
        return other if isinstance(other, Poly) else Poly({(): other})

    def __add__(self, other) -> Poly:
        terms = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        return self + -1 * other

    def __rsub__(self, other) -> Poly:
        return -1 * self + other

    def __mul__(self, other) -> Poly:
        terms: dict[tuple[int, ...], int] = {}
        for f, d in self._lift(other).terms.items():
            for e, c in self.terms.items():
                g = tuple(sorted(e + f))
                terms[g] = terms.get(g, 0) + c * d
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        result = Poly({(): 1})
        for _ in range(n):
            result = result * self
        return result

    def derivative(self, v: int) -> Poly:
        """d/dx_v."""
        terms = {}
        for e, c in self.terms.items():
            if v in e:
                i = e.index(v)
                terms[e[:i] + e[i + 1 :]] = c * e.count(v)
        return Poly(terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, (Poly, int)) and self.terms == self._lift(other).terms


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
