"""Exact identity of quantum class intensities.

With zeta = e^{i pi / n}, cos^2(g pi / 2n) = (2 + zeta^g + zeta^-g) / 4, so
the intensity of every partition of n, a product of such factors, is an
element of Z[zeta, 1/2], and 4^n times it lies in Z[zeta]. Phi_2n is the
minimal polynomial of zeta, so 1, zeta, ..., zeta^(deg Phi_2n - 1) is a basis
of Z[zeta]: two intensities are equal exactly when 4^n times each reduces to
the same integer polynomial modulo Phi_2n (:func:`exact_key`).

Imported by ``spectrum`` only for sizes whose sorted intensities have
near-equal neighbours, where it keys each candidate partition by
:func:`exact_key`; no float enters any decision made here.
"""

from __future__ import annotations


def exact_key(n: int, parts: tuple[int, ...], phi: list[int]) -> tuple[int, ...]:
    """4^n times the intensity of ``parts`` as an element of Z[zeta],
    zeta = e^{i pi / n}: its coefficients in the basis 1, zeta, ...,
    zeta^(deg phi - 1) after reduction modulo ``phi`` = Phi_2n. Two
    partitions of n have equal intensities exactly when their keys are equal.
    """
    # Products are taken in Z[x] / (x^n + 1), where zeta^-g = -zeta^(n-g), so
    # each factor 4 cos^2(g pi / 2n) = 2 + zeta^g + zeta^-g is
    # 2 + x^g - x^(n-g). Phi_2n divides x^n + 1, so reducing afterwards is exact.
    value = [1] + [0] * (n - 1)
    for g in parts:
        up = [-c for c in value[n - g:]] + value[:n - g]  # times x^g
        down = [-c for c in value[g:]] + value[:g]  # times x^(n-g)
        value = [2 * v + a - b for v, a, b in zip(value, up, down)]
    _, rest = divmod_monic(value, phi)
    scale = 2 * (n - len(parts))  # 4^(n - m): every key is 4^n times its intensity
    return tuple(c << scale for c in rest)


def divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (coefficient lists,
    constant term first) by a monic ``den``; the remainder has deg(den) terms."""
    rest = list(num)
    degree = len(den) - 1
    quotient = [0] * max(len(rest) - degree, 0)
    for i in range(len(rest) - 1, degree - 1, -1):
        c = rest[i]
        if c:
            quotient[i - degree] = c
            for j, d in enumerate(den):
                rest[i - degree + j] -= c * d
    return quotient, (rest + [0] * degree)[:degree]


def cyclotomic(m: int) -> list[int]:
    """Coefficients of the cyclotomic polynomial Phi_m, constant term first:
    x^k - 1 divided by Phi_d for every proper divisor d of k, for each
    divisor k of m in increasing order."""
    found: dict[int, list[int]] = {}
    for k in range(1, m + 1):
        if m % k:
            continue
        poly = [-1] + [0] * (k - 1) + [1]
        for d, phi in found.items():
            if k % d == 0:
                poly, _ = divmod_monic(poly, phi)
        found[k] = poly
    return found[m]
