"""Exact identity of quantum class intensities.

With zeta = e^{i pi / n}, cos^2(g pi / 2n) = (2 + zeta^g + zeta^-g) / 4, so
the intensity of every partition of n, a product of such factors, is an
element of Z[zeta, 1/2]. Two intensities are equal exactly when 4^n times
each reduces to the same integer polynomial modulo the cyclotomic polynomial
Phi_2n (:func:`exact_key`). That reduction costs O(n deg Phi_2n) big-integer
operations, so rows are first compared by a fingerprint in F_p, the image of
zeta -> w for a primitive 2n-th root of unity w mod a prime p
(:func:`fingerprint_field`): a ring homomorphism, so different fingerprints
already prove different intensities (Conway & Jones, Acta Arith. 30, 1976, on
vanishing sums of roots of unity, for the background).

Imported by ``spectrum`` only for sizes whose sorted intensities have
near-equal neighbours; no float enters any decision made here.
"""

from __future__ import annotations

Row = tuple[float, tuple[int, ...], int]


def exact_groups(
    n: int,
    run: list[Row],
    field: tuple[int, list[int], list[int]],
) -> list[list[Row]]:
    """Split a run of sorted rows into groups of exactly equal intensity,
    brightest group first, each group's rows in run order.

    Rows are first fingerprinted in F_p (``field`` from
    :func:`fingerprint_field`): a ring homomorphism, so different
    fingerprints prove different intensities. Rows that share a fingerprint
    are then compared by :func:`exact_key`.
    """
    p, factor, phi = field
    by_print: dict[int, list] = {}
    for row in run:
        fingerprint = 1
        for g in row[1]:
            fingerprint = fingerprint * factor[g] % p
        by_print.setdefault(fingerprint, []).append(row)
    groups = []
    for same_print in by_print.values():
        if len(same_print) == 1:
            groups.append(same_print)
            continue
        by_key: dict[tuple[int, ...], list] = {}
        for row in same_print:
            by_key.setdefault(exact_key(n, row[1], phi), []).append(row)
        groups.extend(by_key.values())
    groups.sort(key=lambda group: group[0], reverse=True)
    return groups


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


def is_prime(p: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: deterministic below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2:
        return False
    for q in bases:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def fingerprint_field(n: int) -> tuple[int, list[int], list[int]]:
    """A prime p = 1 (mod 2n) above 2^61, the image in F_p of
    cos^2(g pi / 2n) for g = 0..n under zeta -> w, and Phi_2n. Here w is a
    root of Phi_2n mod p, a primitive 2n-th root of unity, so zeta -> w is a
    ring homomorphism Z[zeta, 1/2] -> F_p."""
    step = 2 * n
    p = ((1 << 61) // step + 1) * step + 1
    while not is_prime(p):
        p += step
    phi = cyclotomic(step)
    base = 2
    while True:
        w = pow(base, (p - 1) // step, p)
        root = 0
        for c in reversed(phi):
            root = (root * w + c) % p
        if root == 0:
            break
        base += 1
    quarter = pow(4, -1, p)
    factor = [(2 + pow(w, g, p) + pow(w, step - g, p)) * quarter % p for g in range(n + 1)]
    return p, factor, phi
