"""Deterministic sparse/dense linear algebra over the two-element field.

Vectors are Python ints used as bitsets: bit ``j`` is coordinate ``j``. A
``BitMatrix`` is held by its columns and applied through ``column_map``.
All echelon forms pick the lowest-index available column as pivot, so every
basis produced here is the canonical reduced row echelon basis of its span
and is reproducible bit-for-bit across runs. Every elimination runs on one
incremental builder, ``Echelon``, and two primitives on it carry the solving:
``Echelon.relations`` collects the relations among tagged vectors (kernels,
intersections, preimages), and ``coset_matrix`` writes a linear map in the
coordinates of coset representatives modulo a denominator (page
differentials and induced page maps).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence


def column_map(columns: Sequence[int]) -> Callable[[int], int]:
    """The linear map whose column ``i`` is ``columns[i]``, as a function on
    bit vectors: it XORs the columns selected by the set bits of its input."""

    def apply(v: int) -> int:
        out = 0
        while v:
            low = v & -v
            out ^= columns[low.bit_length() - 1]
            v ^= low
        return out

    return apply


class Echelon:
    """Mutable canonical RREF of a growing span, frozen into a ``Subspace``.

    ``rows`` maps each pivot bit (the lowest set bit of its row) to the row,
    no row has a 1 in another row's pivot column, and ``mask`` is the OR of
    the pivot bits. Reducing a vector then costs one XOR per pivot column it
    hits, and an insertion clears its new pivot from the other rows, so the
    rows stay the canonical basis of their span after every insertion. The
    rows are scanned for that only when ``support``, a superset of their
    set bits, meets the new pivot.

    A tracking builder (``track=True``, or ``tags`` in ``of``) carries a tag
    per row and XORs tags along with rows. ``relate(v, t)`` inserts v tagged
    t; every row's tag is then the XOR of the tags of the inserted vectors
    that sum to it. With tags ``1 << i`` a tag is a combination mask; with
    other tags it is the image of the row under the linear map v_i -> t_i.
    """

    __slots__ = ("ambient_dim", "rows", "tags", "mask", "support")

    def __init__(self, ambient_dim: int, track: bool = False):
        self.ambient_dim = ambient_dim
        self.rows: dict[int, int] = {}
        self.tags: Optional[dict[int, int]] = {} if track else None
        self.mask = 0
        self.support = 0

    @classmethod
    def of(cls, sub: "Subspace", tags: Optional[Sequence[int]] = None) -> "Echelon":
        """A builder holding ``sub``, with one tag per basis vector when tracking."""
        ech = cls(sub.ambient_dim)
        ech.rows = {b & -b: b for b in sub.basis}
        ech.mask = sub.pivot_mask
        ech.support = sub.support
        if tags is not None:
            ech.tags = {b & -b: t for b, t in zip(sub.basis, tags)}
        return ech

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, v: int) -> bool:
        """Insert v into a builder that does not track; True when the span grew."""
        rows = self.rows
        x = v & self.mask
        while x:
            low = x & -x
            v ^= rows[low]
            x ^= low
        if not v:
            return False
        low = v & -v
        if self.support & low:
            for p, w in rows.items():
                if w & low:
                    rows[p] = w ^ v
        rows[low] = v
        self.mask |= low
        self.support |= v
        return True

    def relate(self, v: int, tag: int) -> Optional[int]:
        """Insert v tagged ``tag`` into a tracking builder and return None; when
        v already lies in the span, insert nothing and return the relation's
        tag: ``tag`` XOR the tag of the rows summing to v."""
        rows, tags = self.rows, self.tags
        x = v & self.mask
        while x:
            low = x & -x
            v ^= rows[low]
            tag ^= tags[low]
            x ^= low
        if not v:
            return tag
        low = v & -v
        if self.support & low:
            for p, w in rows.items():
                if w & low:
                    rows[p] = w ^ v
                    tags[p] ^= tag
        rows[low] = v
        tags[low] = tag
        self.mask |= low
        self.support |= v
        return None

    def relations(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """Relate each (v, tag) pair in turn; the tags of the relations found."""
        found = []
        for v, tag in pairs:
            rel = self.relate(v, tag)
            if rel is not None:
                found.append(rel)
        return found

    def solve(self, v: int) -> Optional[int]:
        """Tag of the rows summing to v in a tracking builder, or None when v
        lies outside the span."""
        rows, tags = self.rows, self.tags
        tag = 0
        x = v & self.mask
        while x:
            low = x & -x
            v ^= rows[low]
            tag ^= tags[low]
            x ^= low
        return None if v else tag

    def basis(self) -> tuple[int, ...]:
        rows = self.rows
        return tuple(rows[p] for p in sorted(rows))

    def freeze(self) -> "Subspace":
        return Subspace(self.ambient_dim, self.basis())


class BitMatrix:
    """Matrix over GF(2) held by columns: column ``j`` is an int whose bit
    ``i`` is entry (i, j). It is applied through ``column_map``."""

    __slots__ = ("rows", "cols", "_cols")

    def __init__(self, rows: int, cols: int, columns: Optional[Sequence[int]] = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        data = list(columns) if columns is not None else [0] * cols
        if len(data) != cols:
            raise ValueError("column count mismatch")
        if any(c >> rows for c in data):
            raise ValueError("entry position out of bounds")
        self._cols = data

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]) -> "BitMatrix":
        data = [0] * cols
        seen = set()
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry position ({i}, {j}) out of bounds")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry position ({i}, {j})")
            seen.add((i, j))
            data[j] |= 1 << i
        return cls(rows, cols, data)

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[int]) -> "BitMatrix":
        if any(col >> rows for col in columns):
            raise ValueError("column vector out of bounds")
        return cls(rows, len(columns), columns)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    def row(self, i: int) -> int:
        return sum(((c >> i) & 1) << j for j, c in enumerate(self._cols))

    def column(self, j: int) -> int:
        return self._cols[j]

    def entries(self) -> tuple[tuple[int, int], ...]:
        """The positions of the ones, row by row."""
        return tuple((i, j) for i in range(self.rows) for j, c in enumerate(self._cols) if (c >> i) & 1)

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, [self.row(i) for i in range(self.rows)])

    def apply(self, v: int) -> int:
        """Matrix-vector product M v; ``v`` over columns, result over rows."""
        return column_map(self._cols)(v)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return BitMatrix(self.rows, other.cols, list(map(column_map(self._cols), other._cols)))

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return BitMatrix(self.rows, self.cols, [a ^ b for a, b in zip(self._cols, other._cols)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._cols)))

    def is_zero(self) -> bool:
        return not any(self._cols)

    def rank(self) -> int:
        ech = Echelon(self.rows)
        for c in self._cols:
            ech.add(c)
        return ech.dim

    def kernel_basis(self) -> "Subspace":
        """Canonical basis of the right kernel {v : M v = 0}: the relations
        among the columns, found by inserting column j tagged ``1 << j``."""
        relations = Echelon(self.rows, track=True).relations(
            zip(self._cols, [1 << j for j in range(self.cols)])
        )
        return Subspace.from_vectors(self.cols, relations)

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols}, {len(self.entries())} ones)"


class Subspace:
    """Subspace of GF(2)^n held as a canonical RREF basis.

    Invariants: basis vectors nonzero, pivots (lowest set bits) strictly
    increasing, and no vector has a 1 in another vector's pivot column.
    They are checked on every construction, in one pass per vector against
    ``pivot_mask``, the OR of the pivot bits; ``support`` is the OR of the
    basis vectors.
    """

    __slots__ = ("ambient_dim", "basis", "pivot_mask", "support")

    def __init__(self, ambient_dim: int, basis: tuple[int, ...]):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        basis = tuple(basis)
        last = 0
        mask = 0
        support = 0
        for v in basis:
            if v == 0 or v >> ambient_dim:
                raise ValueError("basis vector zero or out of bounds")
            low = v & -v
            if low <= last:
                raise ValueError("pivots not strictly increasing")
            last = low
            mask |= low
            support |= v
        for v in basis:
            if v & mask != v & -v:
                raise ValueError("basis not fully reduced")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivot_mask = mask
        self.support = support

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[int]) -> "Subspace":
        ech = Echelon(ambient_dim)
        for v in vectors:
            ech.add(v)
        return ech.freeze()

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(1 << i for i in range(ambient_dim)))

    @classmethod
    def coordinate(cls, ambient_dim: int, mask: int) -> "Subspace":
        """The span of the unit vectors at the set bits of ``mask``."""
        basis = []
        while mask:
            low = mask & -mask
            basis.append(low)
            mask ^= low
        return cls(ambient_dim, tuple(basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        """Canonical representative of v modulo this subspace (linear in v).

        The result has a 0 in every pivot column of the basis, and
        ``reduce(u) == reduce(w)`` exactly when ``u ^ w`` lies in the subspace.
        """
        x = v & self.pivot_mask
        if x:
            for b in self.basis:
                low = b & -b
                if x & low:
                    v ^= b
                    x ^= low
                    if not x:
                        break
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        ech = Echelon.of(big)
        for b in small.basis:
            ech.add(b)
        return ech.freeze()

    def add_vector(self, v: int) -> "Subspace":
        ech = Echelon.of(self)
        ech.add(v)
        return ech.freeze()

    def intersection(self, other: "Subspace") -> "Subspace":
        """Elements of ``self`` tag themselves and those of ``other`` tag 0, so
        every relation found while inserting ``other`` tags a common element."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        common = Echelon.of(big, tags=big.basis).relations(zip(small.basis, repeat(0)))
        return Subspace.from_vectors(self.ambient_dim, common)

    def within(self, mask: int) -> "Subspace":
        """Intersection with the coordinate subspace on the set bits of ``mask``."""
        outside = ~mask
        return preimage(lambda x: x & outside, self, Subspace.zero(self.ambient_dim))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of GF(2)^{self.ambient_dim})"


def coset_solver(reps: Sequence[int], denom: Subspace) -> Echelon:
    """Tracking builder of span(reps) + denom whose ``solve(v)`` is the bitmask
    of the reps summing to v modulo denom; reps must be independent modulo
    denom."""
    ech = Echelon.of(denom, tags=(0,) * denom.dim)
    for i, v in enumerate(reps):
        ech.relate(v, 1 << i)
    return ech


def coset_matrix(apply: Callable[[int], int], src: Sequence[int], reps: Sequence[int],
                 denom: Optional[Subspace], escaped: Callable[[int], None]) -> BitMatrix:
    """Matrix of the linear map ``apply`` from ``src`` into span(reps) + denom,
    in the coordinates of ``reps`` modulo ``denom``. ``escaped(v)`` must raise;
    it is called for a v in src whose image lies outside. An empty ``src`` or
    ``reps`` gives the zero matrix, and ``denom`` is then not read."""
    if not src or not reps:
        return BitMatrix.zeros(len(reps), len(src))
    coords = coset_solver(reps, denom)
    columns = []
    for v in src:
        sol = coords.solve(apply(v))
        if sol is None:
            escaped(v)
        columns.append(sol)
    return BitMatrix.from_columns(len(reps), columns)


def preimage(apply_fn: Callable[[int], int], a: "Subspace", b: "Subspace") -> "Subspace":
    """{x in A : f(x) in B} for a linear f given by ``apply_fn``.

    B's basis tags 0 and each f(x) for x in A's basis tags x, so every
    relation found tags an element of A that f maps into B.
    """
    if a.dim == 0:
        return a
    kernel = Echelon.of(b, tags=(0,) * b.dim).relations(zip(map(apply_fn, a.basis), a.basis))
    return Subspace.from_vectors(a.ambient_dim, kernel)


def image(apply_fn: Callable[[int], int], a: "Subspace", target_dim: int) -> "Subspace":
    """f(A) as a subspace of GF(2)^target_dim."""
    return Subspace.from_vectors(target_dim, [apply_fn(v) for v in a.basis])


def subquotient(a: Subspace, b: Subspace) -> tuple[int, tuple[int, ...]]:
    """dim A/(A cap B) together with coset representatives drawn from A.

    Representatives are the canonical-basis vectors of A that are independent
    modulo A cap B, taken in pivot order.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    cur = Echelon.of(a.intersection(b))
    reps = tuple(v for v in a.basis if cur.add(v))
    return len(reps), reps
