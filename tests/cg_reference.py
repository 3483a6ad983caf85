"""Exact Clebsch-Gordan reference for the tests: the Racah sum in rationals.

`clebsch_gordan` evaluates the Racah factorial sum in arbitrary-precision
rational arithmetic and returns the coefficient exactly, as a
`SignedSqrtRational`; `racah_basis` fills the diagonal-block multipole
array of `qpolar.multipole` entry by entry from those values, each rounded
once, as an independent reference for the library's integer recurrence.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from qpolar.angmom import HalfInt, half


def _check_jm(j: HalfInt, m: HalfInt, names: str) -> None:
    if j.twice < 0:
        raise ValueError(f"{names}: spin magnitude must be non-negative, got {j}")
    if (j.twice - m.twice) % 2 != 0:
        raise ValueError(f"{names}: m = {m} and j = {j} must differ by an integer")
    if abs(m.twice) > j.twice:
        raise ValueError(f"{names}: |m| = {HalfInt(abs(m.twice))} exceeds j = {j}")


@dataclass(frozen=True)
class SignedSqrtRational:
    """Exact value sign * sqrt(numerator / denominator), fraction in lowest terms."""

    sign: int
    numerator: int
    denominator: int

    @classmethod
    def zero(cls) -> "SignedSqrtRational":
        return cls(0, 0, 1)

    @classmethod
    def from_fraction(cls, sign: int, square: Fraction) -> "SignedSqrtRational":
        if square == 0:
            return cls.zero()
        return cls(sign, square.numerator, square.denominator)

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.numerator / self.denominator)

    def __repr__(self):
        pre = {1: "+", 0: "0*", -1: "-"}[self.sign]
        return f"{pre}sqrt({self.numerator}/{self.denominator})"


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    return math.factorial(n)


def _cg_parts(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int):
    """Racah decomposition of a Clebsch-Gordan coefficient.

    Returns (R, F, G) with CG = R * sqrt(F * G), where R is the rational Racah
    sum carrying the sign, F collects the m-dependent factorials
    (j1+-m1)!(j2+-m2)!, and G the m-independent ones (triangle coefficient,
    2J+1, and (J+-M)!).  The split is what makes orthogonality sums over
    (m1, m2) exactly rational.
    """
    a = (tj1 + tj2 - tJ) // 2  # j1+j2-J
    b = (tj1 - tm1) // 2       # j1-m1
    c = (tj2 + tm2) // 2       # j2+m2
    d = (tJ - tj2 + tm1) // 2  # J-j2+m1
    e = (tJ - tj1 - tm2) // 2  # J-j1-m2
    kmin = max(0, -d, -e)
    kmax = min(a, b, c)
    r = Fraction(0)
    for k in range(kmin, kmax + 1):
        r += Fraction(
            (-1) ** k,
            _fact(k) * _fact(a - k) * _fact(b - k) * _fact(c - k)
            * _fact(d + k) * _fact(e + k),
        )
    f = (
        _fact((tj1 + tm1) // 2) * _fact(b) * _fact(c) * _fact((tj2 - tm2) // 2)
    )
    g = Fraction(
        (tJ + 1) * _fact(a) * _fact((tj1 - tj2 + tJ) // 2)
        * _fact((-tj1 + tj2 + tJ) // 2),
        _fact((tj1 + tj2 + tJ) // 2 + 1),
    ) * _fact((tJ + tM) // 2) * _fact((tJ - tM) // 2)
    return r, f, g


def clebsch_gordan(j1, m1, j2, m2, J, M) -> SignedSqrtRational:
    """Exact Clebsch-Gordan coefficient <j1 m1, j2 m2 | J M> (Condon-Shortley).

    Evaluated with the Racah factorial sum in exact rational arithmetic.
    Returns zero when M != m1+m2 or the triangle rule fails; raises
    ValueError for malformed half-integers (parity of 2m vs 2j, |m| > j,
    negative spin).
    """
    j1, m1, j2, m2, J, M = (half(x) for x in (j1, m1, j2, m2, J, M))
    _check_jm(j1, m1, "j1/m1")
    _check_jm(j2, m2, "j2/m2")
    _check_jm(J, M, "J/M")
    if (j1.twice + j2.twice + J.twice) % 2 != 0:
        raise ValueError("j1, j2, J must couple to an integer-parity triple")
    if m1.twice + m2.twice != M.twice:
        return SignedSqrtRational.zero()
    if J.twice < abs(j1.twice - j2.twice) or J.twice > j1.twice + j2.twice:
        return SignedSqrtRational.zero()
    r, f, g = _cg_parts(j1.twice, m1.twice, j2.twice, m2.twice, J.twice, M.twice)
    if r == 0:
        return SignedSqrtRational.zero()
    sign = 1 if r > 0 else -1
    return SignedSqrtRational.from_fraction(sign, r * r * f * g)


def racah_basis(twice: int) -> np.ndarray:
    """C[2S + q, K, col] = sqrt((2K+1)/(2S+1)) <S m, K q | S m+q> with 2m = 2S - 2 col."""
    d = twice + 1
    S = HalfInt(twice)
    C = np.zeros((2 * d - 1, d, d))
    for q in range(d):
        for K in range(q, d):
            scale = math.sqrt((2 * K + 1) / d)
            for col in range(q, d):
                tm = twice - 2 * col
                C[twice + q, K, col] = scale * float(
                    clebsch_gordan(S, HalfInt(tm), K, q, S, HalfInt(tm + 2 * q))
                )
        # T_K,-q = (-1)^q T_Kq^T
        C[twice - q, :, :d - q] = (-1) ** q * C[twice + q, :, q:]
    return C
