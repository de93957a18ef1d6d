"""Symplectic linear algebra: loop indices of sampled Lagrangian frame
paths by squared-determinant winding, product (Kunneth) indices,
monotonicity constants from disk class data, window lifts, and the
action/index compatibility check.

This is the only module that touches floating point; everything it hands to
the rest of the engine is an exact integer or rational. It is also the only
one that needs numpy, which is imported inside the functions that use it so
that the other verbs start without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .complexes import ComplexFormatError, InputError, as_fraction

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FrameError",
    "LagrangianPath",
    "DiskClassData",
    "MonotoneConstants",
    "NotMonotone",
    "maslov_loop_index",
    "kunneth_index",
    "product_path",
    "monotone_constants",
    "window_lift",
    "compatibility_check",
    "unitary_subgroup_loop",
]

FRAME_TOL = 1e-9
WINDING_TOL = 1e-6
MAX_STEP_ANGLE = math.pi / 4


class FrameError(InputError):
    """A sampled frame fails the Lagrangian/orthonormality/sampling checks."""


@dataclass(frozen=True)
class LagrangianPath:
    """Ordered 2m x m orthonormal frames whose columns span Lagrangian
    subspaces of R^{2m} with the standard symplectic form; rows 0..m-1 are
    the real block, rows m..2m-1 the imaginary block."""

    m: int
    samples: tuple
    closed: bool

    @classmethod
    def from_samples(cls, m: int, samples: Sequence, closed: bool) -> "LagrangianPath":
        import numpy as np

        if m < 1:
            raise FrameError("dimension must be >= 1")
        try:
            arrs = tuple(np.asarray(s, dtype=float) for s in samples)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FrameError(f"samples must be numeric frames: {exc}") from exc
        if len(arrs) < 2:
            raise FrameError("need at least two samples")
        for k, a in enumerate(arrs):
            if a.shape != (2 * m, m):
                raise FrameError(f"sample #{k} is not a 2m x m frame (shape {a.shape})")
            if np.isnan(a).any():  # NaN passes every tolerance comparison below
                raise FrameError(f"sample #{k} has a NaN entry")
        path = cls(m, arrs, closed)
        path.check_frames()
        return path

    def unitary(self, k: int) -> np.ndarray:
        a = self.samples[k]
        return a[: self.m, :] + 1j * a[self.m :, :]

    def check_frames(self) -> None:
        import numpy as np

        for k, a in enumerate(self.samples):
            x, y = a[: self.m, :], a[self.m :, :]
            gram = x.T @ x + y.T @ y
            if np.max(np.abs(gram - np.eye(self.m))) > FRAME_TOL:
                raise FrameError(f"sample #{k} is not orthonormal")
            pairing = x.T @ y - y.T @ x
            if np.max(np.abs(pairing)) > FRAME_TOL:
                raise FrameError(f"sample #{k} is not Lagrangian")

    def steps(self) -> list[tuple[int, int]]:
        n = len(self.samples)
        out = [(k, k + 1) for k in range(n - 1)]
        if self.closed:
            out.append((n - 1, 0))
        return out

    def check_sampling(self) -> None:
        """Consecutive subspaces must subtend principal angles < pi/4."""
        import numpy as np

        for a, b in self.steps():
            fa, fb = self.samples[a], self.samples[b]
            sv = np.linalg.svd(fa.T @ fb, compute_uv=False)
            smallest = float(np.min(sv))
            if smallest <= math.cos(MAX_STEP_ANGLE) + 1e-12:
                angle = math.acos(max(-1.0, min(1.0, smallest)))
                raise FrameError(
                    f"samples #{a} -> #{b} subtend a principal angle {angle:.3f} >= pi/4; "
                    "refine the sampling"
                )


def maslov_loop_index(path: LagrangianPath) -> int:
    """Winding number of det^2 of the unitary frame along a closed loop."""
    if not path.closed:
        raise FrameError("loop index needs a closed path")
    import numpy as np

    path.check_sampling()
    total = 0.0
    values = [complex(np.linalg.det(path.unitary(k)) ** 2) for k in range(len(path.samples))]
    for a, b in path.steps():
        total += cmath.phase(values[b] / values[a])
    winding = total / (2 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > WINDING_TOL:
        raise FrameError(f"winding {winding} is not an integer within {WINDING_TOL}")
    return int(nearest)


def product_path(p1: LagrangianPath, p2: LagrangianPath) -> LagrangianPath:
    """Block-diagonal product loop in R^{2(m1+m2)}; the shorter factor is
    index-resampled (a reparametrization, which cannot change the index)."""
    import numpy as np

    n = max(len(p1.samples), len(p2.samples))

    def pick(p: LagrangianPath, k: int) -> np.ndarray:
        src = len(p.samples)
        return p.samples[(k * src) // n]

    m1, m2 = p1.m, p2.m
    m = m1 + m2
    samples = []
    for k in range(n):
        a, b = pick(p1, k), pick(p2, k)
        frame = np.zeros((2 * m, m))
        frame[:m1, :m1] = a[:m1, :]
        frame[m1 : m1 + m2, m1:] = b[:m2, :]
        frame[m : m + m1, :m1] = a[m1:, :]
        frame[m + m1 :, m1:] = b[m2:, :]
        samples.append(frame)
    return LagrangianPath.from_samples(m, samples, p1.closed and p2.closed)


def kunneth_index(p1: LagrangianPath, p2: LagrangianPath) -> int:
    """Loop index of the product path; additivity of the factors' indices
    is a theorem about this value, not an assumption of its computation."""
    if not (p1.closed and p2.closed):
        raise FrameError("Kunneth index needs closed factors")
    return maslov_loop_index(product_path(p1, p2))


@dataclass(frozen=True)
class DiskClassData:
    """Pairs (I_omega, I_mu) on generators of the image of the disk-class
    pairings; no pair may be (0, 0)."""

    pairs: tuple[tuple[Fraction, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "DiskClassData":
        out = []
        for k, (om, mu) in enumerate(pairs):
            om = as_fraction(om, f"I_omega of class #{k}")
            mu = int(mu)
            if om == 0 and mu == 0:
                raise ComplexFormatError(f"class #{k} pairs to (0, 0)")
            out.append((om, mu))
        return cls(tuple(out))


@dataclass(frozen=True)
class MonotoneConstants:
    sigma: Fraction
    sigma_maslov: int
    lam: Fraction


@dataclass(frozen=True)
class NotMonotone:
    witness: tuple[tuple[Fraction, int], tuple[Fraction, int]]


def monotone_constants(data: DiskClassData):
    """Action and Maslov periods plus the monotonicity constant, or a
    NotMonotone verdict with a witness pair of classes."""
    nonzero_mu = [(om, mu) for om, mu in data.pairs if mu != 0]
    if not nonzero_mu:
        raise ComplexFormatError("Maslov period undefined: every class has I_mu = 0")
    sigma_maslov = 0
    for _, mu in nonzero_mu:
        sigma_maslov = math.gcd(sigma_maslov, abs(mu))
    lam = nonzero_mu[0][0] / nonzero_mu[0][1]
    if lam < 0:
        return NotMonotone((nonzero_mu[0], nonzero_mu[0]))
    for om, mu in data.pairs:
        if om != lam * mu:
            return NotMonotone((nonzero_mu[0], (om, mu)))
    return MonotoneConstants(lam * sigma_maslov, sigma_maslov, lam)


def window_lift(a_mod: Fraction, r: Fraction, sigma: Fraction) -> tuple[Fraction, int]:
    """Unique representative of a_mod + sigma*Z inside the open window
    (r, r + sigma), with the integer shift applied; errors when a_mod is
    congruent to the cut value r (r would not be regular)."""
    a_mod = as_fraction(a_mod, "action")
    r = as_fraction(r, "r")
    sigma = as_fraction(sigma, "sigma")
    if sigma <= 0:
        raise ComplexFormatError("sigma must be positive")
    offset = (r - a_mod) / sigma
    if offset.denominator == 1:
        raise ComplexFormatError(
            f"action {a_mod} is congruent to r = {r} modulo {sigma}; r is not regular"
        )
    shift = math.floor(offset) + 1
    return a_mod + shift * sigma, shift


def compatibility_check(data: DiskClassData, loop_index: int, action_value: Fraction) -> bool:
    """True iff action_value/sigma and loop_index/Sigma are the same integer:
    the deck transformation moving the action by n periods moves the grading
    by n periods too."""
    constants = monotone_constants(data)
    if isinstance(constants, NotMonotone):
        raise ComplexFormatError(f"disk classes are not monotone: witness {constants.witness}")
    if constants.sigma <= 0:
        raise ComplexFormatError("degenerate monotone data: sigma = 0")
    action_value = as_fraction(action_value, "action")
    ratio = action_value / constants.sigma
    if ratio.denominator != 1:
        return False
    if loop_index % constants.sigma_maslov != 0:
        return False
    return ratio.numerator == loop_index // constants.sigma_maslov


def unitary_subgroup_loop(
    m: int, turns: Sequence[int], frame: Optional[np.ndarray] = None, samples: int = 0
) -> LagrangianPath:
    """Closed frame loop U(t) = diag(exp(2 pi i t w)) @ frame for integer
    turn counts w; its det^2 winding is exactly 2 * sum(turns)."""
    if len(turns) != m:
        raise InputError("need one integer turn per dimension")
    import numpy as np

    if frame is None:
        frame = np.eye(m, dtype=complex)
    count = samples or max(16, 8 * (sum(abs(t) for t in turns) + 1) * m)
    out = []
    for k in range(count):
        t = k / count
        u = np.diag([np.exp(2j * math.pi * t * w) for w in turns]) @ frame
        out.append(np.vstack([u.real, u.imag]))
    return LagrangianPath.from_samples(m, out, closed=True)
