"""Seeded inputs and jobs of the three workloads.

A job is a short pipeline of filtcoh CLI verbs: each step reads the previous
step's stdout on stdin. Its check gets every step's exit code and stdout and
returns None or the reason the output is wrong (see checks.py). Each
workload builds one round of jobs from a seed string, the run's seed and
the round number, which fixes every input. A round has the same length and
the same kinds of work for every seed; the cost of that work depends on the
seed only a little, except for the random complexes of filtered-mix.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import checks
from checks import Cx

Outs = list[tuple[int, str]]


@dataclass(frozen=True)
class Job:
    kind: str
    steps: tuple[tuple[str, ...], ...]
    check: Callable[[Outs], Optional[str]]


def _checked(fn, *args):
    """Check the last step's JSON output with fn(out, code, *args)."""

    def check(outs: Outs):
        code, text = outs[-1]
        try:
            out = json.loads(text)
        except ValueError:
            return f"exit {code} with no JSON output"
        return fn(out, code, *args)

    return check


def _from_gen(fn, *args):
    """Check a pipeline whose first step is gen with fn(out, code, cx, *args),
    cx being the complex gen wrote."""

    def check(outs: Outs):
        code, text = outs[0]
        if code != 0:
            return f"gen exit {code}"
        return _checked(fn, checks.cx_from_json(text), *args)(outs)

    return check


def _lambda_r(rng: random.Random) -> tuple[str, str]:
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    return f"{lam.numerator}/{lam.denominator}", str(rng.randint(-3, 3))


# -- torus-einf -----------------------------------------------------------------

TORUS_SIGMA = 2
TORUS_VERBS = (
    ("einfty", ("pages", "--einfty"), checks.check_torus_einfty),
    ("kl", ("kl",), checks.check_torus_kl),
    ("hf", ("hf",), checks.check_torus_hf),
    ("poly", ("poly", "--k", "1"), checks.check_torus_poly),
)
# One round: every verb on T^6, T^7 and T^8, then the limit-page verbs on
# T^7 and the cheap verbs on T^8 once more. The T^7 limit-page jobs then sit
# in the middle of the sorted round, so the median job falls inside a block
# of like jobs and not in the gap between the small and the large tori.
TORUS_ROUND = [(m, verb) for m in (6, 7, 8) for verb in TORUS_VERBS] + [
    (7, TORUS_VERBS[0]),
    (7, TORUS_VERBS[1]),
    (8, TORUS_VERBS[2]),
    (8, TORUS_VERBS[3]),
]


def torus_einf(seed: str, workdir: str, colex) -> list[Job]:
    lam, r = _lambda_r(random.Random(f"torus-einf/{seed}"))
    jobs = []
    for m, (verb, argv, check) in TORUS_ROUND:
        gen = ("gen", "torus", "--m", str(m), "--lambda", lam, "--r", r)
        jobs.append(Job(f"torus-m{m}/{verb}", (gen, argv), _from_gen(check, m, TORUS_SIGMA)))
    return jobs


# -- filtered-mix ---------------------------------------------------------------

# (generators, Sigma, grade width) of the random complexes of one round
RANDOM_SLOTS = ((128, 3, 6), (256, 4, 8), (384, 5, 10), (512, 6, 12))
# T^5 twice, each with its own --lambda and --r: its kl, recursion and
# balance jobs cost the same for every draw, and the six of them hold the
# median job of the round, which the random complexes' cheap jobs would
# otherwise move from draw to draw.
QUANTUM_MS = (5, 5, 6)


def _apply(cols: list[int], v: int) -> int:
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out


def random_complex(rng: random.Random, n: int, sig: int, width: int) -> tuple[str, Cx]:
    """A valid filtered complex built as g d0 g^-1: d0 a partial matching
    that obeys the grade law, g a unipotent grade-raising change of basis.
    Conjugation keeps d^2 = 0 and mixes the window shifts; actions fall
    along increasing grade, which every shift-0 edge then respects."""
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    lo = rng.randint(-6, 2)
    grades = [rng.randint(lo, lo + width) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    used: set[int] = set()
    d0 = [0] * n
    for x in order:
        if x in used:
            continue
        targets = [
            y for y in order
            if y not in used and y != x and grades[y] > grades[x] and (grades[y] - grades[x] - 1) % sig == 0
        ]
        if targets and rng.random() < 0.7:
            y = rng.choice(targets)
            used.update((x, y))
            d0[x] |= 1 << y
    delta = d0
    for _ in range(2):
        g = [1 << i for i in range(n)]
        for _ in range(2 * n):
            x, y = rng.randrange(n), rng.randrange(n)
            if grades[y] > grades[x] and (grades[y] - grades[x]) % sig == 0:
                g[x] |= 1 << y
        nil = [g[i] ^ (1 << i) for i in range(n)]
        ginv = [1 << i for i in range(n)]
        power = [1 << i for i in range(n)]
        while True:  # g^-1 = sum of (-N)^p over GF(2), N nilpotent
            power = [_apply(nil, p) for p in power]
            if not any(power):
                break
            ginv = [a ^ b for a, b in zip(ginv, power)]
        delta = [_apply(g, _apply(delta, _apply(ginv, 1 << i))) for i in range(n)]
    ids = tuple(f"g{i}" for i in range(n))
    sigma = lam * sig
    r = Fraction(rng.randint(-3, 3))
    by_grade = sorted(range(n), key=lambda i: (grades[i], i))
    action = {i: r + sigma * Fraction(n - k, n + 1) for k, i in enumerate(by_grade)}
    edges = []
    for i in range(n):
        v = delta[i]
        while v:
            low = v & -v
            edges.append([ids[i], ids[low.bit_length() - 1]])
            v ^= low
    text = json.dumps({
        "sigma_maslov": sig,
        "lambda": f"{lam.numerator}/{lam.denominator}",
        "r": str(r),
        "generators": [
            {"id": ids[i], "action": f"{action[i].numerator}/{action[i].denominator}", "maslov": grades[i]}
            for i in range(n)
        ],
        "edges": edges,
    })
    return text, Cx(sig, tuple(grades), ids, tuple(delta))


def quantum_matching(m: int) -> tuple[dict, int]:
    """The perfect matching S <-> S + {1} over S in {2..m}, with window
    shift (|S| + sum S) mod 3; returns the matching file and its max shift."""
    entries = []
    for mask in range(1 << (m - 1)):
        s = [i + 2 for i in range(m - 1) if (mask >> i) & 1]
        entries.append({"from": s, "to": [1] + s, "shift": (len(s) + sum(s)) % 3})
    return {"matching": entries}, max(e["shift"] for e in entries)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def filtered_mix(seed: str, workdir: str, colex) -> list[Job]:
    rng = random.Random(f"filtered-mix/{seed}")
    jobs = []
    for n, sig, width in RANDOM_SLOTS:
        text, cx = random_complex(rng, n, sig, width)
        path = _write(workdir, f"random-{n}.json", text)
        ident = _write(workdir, f"identity-{n}.json", json.dumps({"entries": [[g, g] for g in cx.ids]}))
        for verb, argv, check in (
            ("validate", ("validate", path), checks.check_validate),
            ("cohom", ("cohom", path), checks.check_cohom),
            ("hf", ("hf", path), checks.check_hf),
            ("oracle", ("oracle", path), checks.check_oracle),
            ("pages", ("pages", path), checks.check_pages),
            ("mapcheck", ("mapcheck", path, path, ident, "--pages"), checks.check_identity_mapcheck),
        ):
            jobs.append(Job(f"random-{n}/{verb}", (argv,), _checked(check, cx)))
    for m in QUANTUM_MS:
        lam, r = _lambda_r(rng)
        matching, max_shift = quantum_matching(m)
        path = _write(workdir, f"matching-{m}.json", json.dumps(matching))
        gen = ("gen", "torus", "--m", str(m), "--quantum", path, "--lambda", lam, "--r", r)
        for verb, argv, check in (
            ("validate", ("validate",), lambda out, code, cx, _: checks.check_validate(out, code, cx)),
            ("cohom", ("cohom",), lambda out, code, cx, _: checks.check_cohom(out, code, cx)),
            ("kl", ("kl",), checks.check_quantum_kl),
            ("recursion", ("recursion",), checks.check_quantum_recursion),
            ("balance", ("recursion", "--balance"), checks.check_quantum_balance),
            ("hf", ("hf",), checks.check_quantum_hf),
        ):
            jobs.append(Job(f"quantum-m{m}/{verb}", (gen, argv), _from_gen(check, max_shift)))
    return jobs


# -- obstruction ----------------------------------------------------------------

OBSTRUCTION_SIGMA = 3
# decomp --m 1500 overflows the interpreter stack in decomposition_search;
# its correct answer is "none", which exact division confirms. A failure of
# that job is the known fault only when it fails for this reason.
DECOMP_FAULT = "decomp-m1500-k1"
KNOWN_FAULTS = {DECOMP_FAULT: "RecursionError"}


def known_fault(kind: str, reason: str) -> bool:
    """Whether a job of this kind failing for this reason is a known fault."""
    prefix = KNOWN_FAULTS.get(kind)
    return prefix is not None and reason.startswith(prefix + ":")


def unitary_loop(m: int, turns: list[int], rng: np.random.Generator) -> dict:
    """Closed loop U(t) = diag(exp(2 pi i t w)) U0 of Lagrangian frames, for a
    random unitary U0; its det^2 winding is 2 * sum(turns)."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u0, _ = np.linalg.qr(z)
    count = max(16, 8 * (sum(abs(w) for w in turns) + 1) * m)
    samples = []
    for k in range(count):
        u = np.diag(np.exp(2j * math.pi * (k / count) * np.array(turns))) @ u0
        samples.append(np.vstack([u.real, u.imag]).tolist())
    return {"m": m, "closed": True, "samples": samples}


def _random_target(rng: random.Random, sigma: int, k: int) -> dict[int, int]:
    qs = [{e: rng.randint(0, 3) for e in range(7)} for _ in range(k)]
    return checks.decomposition_sum([{e: c for e, c in q.items() if c} for q in qs], sigma)


def obstruction(seed: str, workdir: str, colex) -> list[Job]:
    """colex(m, sigma, k) -> whether the cross-check scan finds a witness
    for (1+t)^m.

    One round is 7 short jobs (decomp at m = 9 and 10, a witness search, the
    Maslov index and Kunneth index, each a few ms), 7 of about 0.1 s (five
    binomial sums at m near 2000, audin at m = 200 and the known fault) and
    5 long ones (decomp at m = 11, audin at m = 149 and 199, a binomial sum
    at m near 3000), so the median job falls inside the middle block.
    """
    rng = random.Random(f"obstruction/{seed}")
    sig = OBSTRUCTION_SIGMA
    jobs = []
    for m in (9, 10, 11):
        target = checks.binomial_power(m)
        for k in (2, 3):
            argv = ("decomp", "--m", str(m), "--sigma", str(sig), "--k", str(k))
            jobs.append(Job(f"decomp-m{m}-k{k}", (argv,), _checked(checks.check_decomp, target, sig, k, colex(m, sig, k))))
    target = checks.binomial_power(1500)
    found = checks.divides_with_nonnegative_quotient(target, sig + 1)
    argv = ("decomp", "--m", "1500", "--sigma", str(sig), "--k", "1")
    jobs.append(Job(DECOMP_FAULT, (argv,), _checked(checks.check_decomp, target, sig, 1, found)))
    target = _random_target(rng, sig, 2)
    terms = json.dumps([[e, target[e]] for e in sorted(target)])
    argv = ("decomp", "--target", terms, "--sigma", str(sig), "--k", "2")
    jobs.append(Job("decomp-target", (argv,), _checked(checks.check_decomp, target, sig, 2, True)))
    for i, base in enumerate((2000,) * 5 + (3000,)):
        m = base + rng.randint(0, 40)
        n_top = m // 2 + rng.randint(-20, 20)
        argv = ("binom", "--m", str(m), "--N", str(n_top))
        jobs.append(Job(f"binom-{base}-{i}", (argv,), _checked(checks.check_binom, m, n_top)))
    for m in (149, 199, 200):  # odd m doubles to 2m, so 199 is the costliest
        jobs.append(Job(f"audin-{m}", (("audin", "--m", str(m)),), _checked(checks.check_audin, m)))
    np_rng = np.random.default_rng(rng.getrandbits(64))
    loops = []
    # the seed draws the start frame and the signs of the turns; the turn
    # sizes stay fixed, which fixes the sample count and so the cost
    for i, sizes in enumerate(((1,), (1, 2))):
        turns = [rng.choice((-1, 1)) * w for w in sizes]
        loops.append((_write(workdir, f"loop-{i}.json", json.dumps(unitary_loop(len(sizes), turns, np_rng))), turns))
    (p1, t1), (p2, t2) = loops
    jobs.append(Job("maslov-index", (("maslov", "index", p2),), _checked(checks.check_maslov_index, t2)))
    jobs.append(Job("maslov-kunneth", (("maslov", "kunneth", p1, p2),), _checked(checks.check_maslov_kunneth, t1, t2)))
    return jobs


WORKLOADS = {"torus-einf": torus_einf, "filtered-mix": filtered_mix, "obstruction": obstruction}
