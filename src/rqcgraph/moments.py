"""Exact single-edge Haar moments via symmetric-group cycle sums.

Traces of permutation operators on d-dimensional tensor factors are d raised
to the number of disjoint cycles, so every moment here reduces to an exact
integer sum over a symmetric group followed by one rational division.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import CapacityError, ValidationError, int_at_least

MAX_ALPHA = 8  # factorial enumeration of S_alpha; 8! = 40320 terms


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i)): apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycle_count(p: tuple[int, ...]) -> int:
    """Number of disjoint cycles, fixed points included."""
    n = len(p)
    if sorted(p) != list(range(n)):
        raise ValidationError(f"{p} is not a permutation of 0..{n - 1}")
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
    return cycles


def shift_perm(alpha: int) -> tuple[int, ...]:
    """The alpha-cycle implementing the copy shift |i1..ia> -> |ia,i1..>."""
    return tuple((i + 1) % alpha for i in range(alpha))


def nd_fraction(d: int) -> Fraction:
    """N_d = d / (d^2 + 1), the alpha=2 single-edge twirl constant, exactly."""
    d = int_at_least(d, 2, "local dimension")
    return Fraction(d, d * d + 1)


def nd_constant(d: int) -> float:
    """N_d as a float (the correctly rounded quotient d / (d^2 + 1))."""
    return float(nd_fraction(d))


def _cycle_sum(rho: tuple[int, ...], d: int) -> int:
    """sum_{sigma in S_t} d^{c(sigma o rho)} d^{c(sigma)}; sigma o rho, rho o sigma are conjugate."""
    perms = itertools.permutations(range(len(rho)))
    return sum(d ** cycle_count(compose(sigma, rho)) * d ** cycle_count(sigma) for sigma in perms)


@lru_cache(maxsize=None)
def _alpha_moment_fraction(alpha: int, d: int) -> Fraction:
    d_plus = math.comb(alpha + d * d - 1, d * d - 1)
    return Fraction(_cycle_sum(shift_perm(alpha), d), math.factorial(alpha)) / d_plus


def single_edge_alpha_moment(alpha: int, d: int) -> float:
    """Mean of Tr(rho_A^alpha) after one Haar gate on a single straddling edge.

    C(alpha, d) = [1 / binom(alpha+d^2-1, d^2-1)] (1/alpha!)
                  sum_{sigma in S_alpha} d^{c(sigma o shift)} d^{c(sigma)}.
    For alpha=2 this collapses to 2 N_d.
    """
    alpha = int_at_least(alpha, 1, "Renyi order")
    if alpha > MAX_ALPHA:
        raise CapacityError(
            f"alpha={alpha} exceeds the S_alpha enumeration cap {MAX_ALPHA}"
        )
    d = int_at_least(d, 2, "local dimension")
    return float(_alpha_moment_fraction(alpha, d))


def second_moment_numerator(d: int) -> int:
    """Integer numerator sum (1/24) sum_{S_4} d^{c((01)(23) o s)} d^{c(s)}.

    Equals d^2 (2 d^4 + 9 d^2 + 1) / 12.
    """
    frac = Fraction(_cycle_sum((1, 0, 3, 2), d), 24)  # (01)(23) in S_4
    assert frac.denominator == 1
    return frac.numerator


@lru_cache(maxsize=None)
def _second_moment_fraction(d: int) -> Fraction:
    d_plus = math.comb(d * d + 3, 4)
    return Fraction(second_moment_numerator(d), d_plus)


def second_moment_I(d: int) -> float:
    """Second moment I = mean of (Tr rho_A^2)^2 for the single straddling edge."""
    d = int_at_least(d, 2, "local dimension")
    return float(_second_moment_fraction(d))


def single_edge_purity_variance(d: int) -> float:
    """Var[Tr rho_A^2] = 2 (d^2-1)^2 / [(d^2+3)(d^2+2)(d^2+1)^2]."""
    d = int_at_least(d, 2, "local dimension")
    d2 = d * d
    return float(
        Fraction(2 * (d2 - 1) ** 2, (d2 + 3) * (d2 + 2) * (d2 + 1) ** 2)
    )
