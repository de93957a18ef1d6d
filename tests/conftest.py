"""Shared fixture machinery: seeded random valid complexes.

Random coboundaries are produced as g d0 g^{-1} where d0 is a partial
matching respecting the grade law and g is a unipotent grade-raising change
of basis; conjugation preserves d^2 = 0 while mixing window shifts. Actions
are assigned in decreasing order along increasing grade, which satisfies the
shift-0 action drop for any edge set that satisfies the grade law.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

from filtcoh.complexes import FilteredComplex, Generator, validate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, so that a child
    interpreter imports this checkout's filtcoh without an install."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def _apply(cols, v):
    out = 0
    while v:
        i = (v & -v).bit_length() - 1
        v &= v - 1
        out ^= cols[i]
    return out


def random_complex(
    rng: random.Random,
    max_gens: int = 32,
    max_edges: int = 200,
    sigma_choices=(3, 4, 5, 6),
) -> FilteredComplex:
    while True:
        c = _random_complex_once(rng, max_gens, sigma_choices)
        if len(c.edges) <= max_edges:
            assert not validate(c)
            return c


def _random_complex_once(rng, max_gens, sigma_choices):
    sig = rng.choice(sigma_choices)
    n = rng.randint(0, max_gens)
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    width = rng.randint(1, 3 * sig)
    lo = rng.randint(-6, 2)
    grades = [rng.randint(lo, lo + width) for _ in range(n)]

    order = list(range(n))
    rng.shuffle(order)
    used = set()
    pairs = []
    for x in order:
        if x in used:
            continue
        targets = [
            y
            for y in order
            if y not in used
            and y != x
            and grades[y] - grades[x] >= 1
            and (grades[y] - grades[x] - 1) % sig == 0
        ]
        if targets and rng.random() < 0.7:
            y = rng.choice(targets)
            used.update((x, y))
            pairs.append((x, y))
    d0 = [0] * n
    for x, y in pairs:
        d0[x] |= 1 << y

    delta = d0
    for _round in range(2):
        gmat = [1 << i for i in range(n)]
        for _ in range(2 * n):
            if n == 0:
                break
            x, y = rng.randrange(n), rng.randrange(n)
            if x != y and grades[y] - grades[x] > 0 and (grades[y] - grades[x]) % sig == 0:
                gmat[x] |= 1 << y
        nmat = [gmat[i] ^ (1 << i) for i in range(n)]
        ginv = [1 << i for i in range(n)]
        power = [1 << i for i in range(n)]
        for _ in range(n):
            power = [_apply(nmat, power[i]) for i in range(n)]
            if not any(power):
                break
            ginv = [ginv[i] ^ power[i] for i in range(n)]
        delta = [_apply(gmat, _apply(delta, _apply(ginv, 1 << i))) for i in range(n)]
    ids = [f"g{i}" for i in range(n)]
    edges = []
    for i in range(n):
        v = delta[i]
        while v:
            j = (v & -v).bit_length() - 1
            v &= v - 1
            edges.append((ids[i], ids[j]))

    sigma = lam * sig
    r = Fraction(rng.randint(-3, 3))
    by_grade = sorted(range(n), key=lambda i: (grades[i], i))
    slots = [r + sigma * Fraction(k + 1, n + 1) for k in range(n)]
    action = {}
    for k, i in enumerate(by_grade):
        action[i] = slots[n - 1 - k]
    gens = tuple(Generator(ids[i], action[i], grades[i]) for i in range(n))
    return FilteredComplex(sig, lam, r, gens, tuple(edges))


@pytest.fixture
def rng():
    return random.Random(20260810)


def hall_violated(target: dict[int, int], sigma: int, k: int, exponents) -> bool:
    """Whether the exponents S satisfy T(S) > T(N(S)), N(S) the exponents
    x +- (i*sigma + 1), i = 1..k, of S. Each unit of Q_i in a decomposition
    of T is counted once at each end, so such an S rules one out."""
    s = set(exponents)
    nbrs = {x + sgn * (i * sigma + 1) for x in s for i in range(1, k + 1) for sgn in (1, -1)}
    return sum(target.get(x, 0) for x in s) > sum(target.get(y, 0) for y in nbrs)


def quantum_matching(m: int) -> dict:
    """Matching file of the perfect matching S <-> S + {1} over S in
    {2..m}, with window shift (|S| + sum S) mod 3: on the quantum torus the
    last nonzero differential is d^2, so k(L) = 3."""
    entries = []
    for mask in range(1 << (m - 1)):
        s = [i + 2 for i in range(m - 1) if (mask >> i) & 1]
        entries.append({"from": s, "to": [1] + s, "shift": (len(s) + sum(s)) % 3})
    return {"matching": entries}
