import random

import pytest

from filtcoh.gf2 import BitMatrix, Echelon, Subspace, column_map, coset_matrix, coset_solver, preimage, subquotient


def _span_solve(generators, v, n):
    """Combination mask c with XOR of generators[i] over i in c equal to v,
    or None, from a tracking builder: a generator in the span of the earlier
    ones relates instead of inserting, so c never selects it."""
    ech = Echelon(n, track=True)
    for i, g in enumerate(generators):
        ech.relate(g, 1 << i)
    return ech.solve(v)


def test_rank_identity():
    assert BitMatrix.identity(3).rank() == 3


def test_rank_all_ones():
    m = BitMatrix.from_entries(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert m.rank() == 1


def test_rank_empty():
    assert BitMatrix.zeros(0, 0).rank() == 0


def test_duplicate_entry_rejected():
    with pytest.raises(ValueError):
        BitMatrix.from_entries(2, 2, [(0, 0), (0, 0)])


def test_entry_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        BitMatrix.from_entries(2, 2, [(2, 0)])


def test_kernel_identity_empty():
    assert BitMatrix.identity(2).kernel_basis().dim == 0


def test_kernel_zero_matrix_full():
    k = BitMatrix.zeros(2, 3).kernel_basis()
    assert k.dim == 3


def test_kernel_single_row():
    m = BitMatrix.from_entries(1, 2, [(0, 0), (0, 1)])
    k = m.kernel_basis()
    assert k.basis == (0b11,)


def test_subquotient_full_vs_zero():
    a = Subspace.full(3)
    b = Subspace.zero(3)
    assert subquotient(a, b)[0] == 3


def test_subquotient_equal_spaces():
    a = Subspace.from_vectors(3, [0b011, 0b110])
    assert subquotient(a, a)[0] == 0


def test_subquotient_codim_one():
    a = Subspace.from_vectors(2, [0b01, 0b10])
    b = Subspace.from_vectors(2, [0b11])
    dim, reps = subquotient(a, b)
    assert dim == 1
    assert len(reps) == 1


def test_subquotient_ambient_mismatch():
    with pytest.raises(ValueError):
        subquotient(Subspace.full(2), Subspace.full(3))


def _random_matrix(rng, rows, cols, density=0.4):
    entries = [(i, j) for i in range(rows) for j in range(cols) if rng.random() < density]
    return BitMatrix.from_entries(rows, cols, entries)


def test_rank_equals_transpose_rank_randomized():
    rng = random.Random(1)
    for _ in range(100):
        m = _random_matrix(rng, rng.randint(0, 10), rng.randint(0, 10))
        assert m.rank() == m.transpose().rank()


def test_rank_nullity_randomized():
    rng = random.Random(2)
    for _ in range(100):
        m = _random_matrix(rng, rng.randint(0, 10), rng.randint(0, 10))
        assert m.rank() + m.kernel_basis().dim == m.cols


def test_subquotient_dim_plus_intersection_randomized():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 10)
        a = Subspace.from_vectors(n, [rng.getrandbits(n) for _ in range(rng.randint(0, n))])
        b = Subspace.from_vectors(n, [rng.getrandbits(n) for _ in range(rng.randint(0, n))])
        assert subquotient(a, b)[0] + a.intersection(b).dim == a.dim


def test_rref_canonical_under_permutation():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 12)
        vecs = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert Subspace.from_vectors(n, vecs) == Subspace.from_vectors(n, shuffled)


def test_kernel_vectors_are_killed():
    rng = random.Random(5)
    for _ in range(50):
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        for v in m.kernel_basis().basis:
            assert m.apply(v) == 0


def test_span_solve_roundtrip():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 10)
        gens = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
        picks = rng.getrandbits(len(gens))
        v = column_map(gens)(picks)
        sol = _span_solve(gens, v, n)
        assert sol is not None
        assert column_map(gens)(sol) == v


def test_span_solve_unsolvable():
    assert _span_solve([0b01], 0b10, 2) is None


def test_preimage():
    # delta on 3 coordinates: e0 -> e1, e1 -> 0, e2 -> e1
    cols = [0b010, 0, 0b010]

    def apply(v):
        out = 0
        while v:
            i = (v & -v).bit_length() - 1
            v &= v - 1
            out ^= cols[i]
        return out

    a = Subspace.full(3)
    b = Subspace.zero(3)
    pre = preimage(apply, a, b)
    # kernel of delta: e1 and e0 + e2
    assert pre.dim == 2
    assert pre.contains(0b010) and pre.contains(0b101)


def test_matmul_and_apply_agree():
    rng = random.Random(7)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        b = _random_matrix(rng, a.cols, rng.randint(1, 6))
        ab = a @ b
        for j in range(b.cols):
            assert ab.column(j) == a.apply(b.column(j))


def test_subspace_invariants_enforced():
    with pytest.raises(ValueError, match="zero or out of bounds"):
        Subspace(2, (0,))
    with pytest.raises(ValueError, match="zero or out of bounds"):
        Subspace(2, (0b100,))
    with pytest.raises(ValueError, match="pivots"):
        Subspace(3, (0b010, 0b011))
    with pytest.raises(ValueError, match="reduced"):
        Subspace(3, (0b011, 0b110))


def test_subspace_reduce_is_linear_and_canonical():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 10)
        s = Subspace.from_vectors(n, [rng.getrandbits(n) for _ in range(rng.randint(0, n))])
        u, v = rng.getrandbits(n), rng.getrandbits(n)
        assert s.reduce(u ^ v) == s.reduce(u) ^ s.reduce(v)
        assert s.reduce(s.reduce(u)) == s.reduce(u)
        b = 0
        for w in s.basis:
            if rng.random() < 0.5:
                b ^= w
        # representatives of the same coset coincide
        assert s.contains(b)
        assert s.reduce(u ^ b) == s.reduce(u)
        # representatives of different cosets differ
        x = rng.getrandbits(n)
        if not s.contains(x):
            assert s.reduce(u ^ x) != s.reduce(u)


# -- differential tests of the echelon core against dense brute force ---------
#
# The references below enumerate span elements and never eliminate: the
# canonical basis of a span is read off its element set, as the unique
# element per pivot column with a 0 in every other pivot column.


def _span(vectors):
    elems = {0}
    for v in vectors:
        elems |= {e ^ v for e in elems}
    return frozenset(elems)


def _low(x):
    return (x & -x).bit_length() - 1


def _canonical(elems):
    pivots = {_low(x) for x in elems if x}
    basis = []
    for p in sorted(pivots):
        rows = [x for x in elems if x and _low(x) == p and not any((x >> q) & 1 for q in pivots - {p})]
        assert len(rows) == 1
        basis.append(rows[0])
    return tuple(basis)


def _brute_apply(cols, v):
    out = 0
    for i, col in enumerate(cols):
        if (v >> i) & 1:
            out ^= col
    return out


def _rand_vectors(rng, n, count):
    return [rng.getrandbits(n) for _ in range(count)]


def test_builder_insertion_matches_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(0, 12)
        vecs = _rand_vectors(rng, n, rng.randint(0, n + 2))
        ech = Echelon(n)
        seen = []
        for v in vecs:
            grew = ech.add(v)
            assert grew == (v not in _span(seen))
            seen.append(v)
            assert ech.basis() == _canonical(_span(seen))
            assert ech.dim == len(ech.basis())
        assert ech.freeze().basis == Subspace.from_vectors(n, vecs).basis == _canonical(_span(vecs))


def test_add_vector_and_sum_match_brute_force():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(1, 12)
        a = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, n)))
        b = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, n)))
        v = rng.getrandbits(n)
        grown = a.add_vector(v)
        assert grown.basis == _canonical(_span(a.basis + (v,)))
        assert grown.basis == Subspace.from_vectors(n, a.basis + (v,)).basis
        total = a + b
        assert total.basis == (b + a).basis == _canonical(_span(a.basis + b.basis))
        assert total.basis == Subspace.from_vectors(n, a.basis + b.basis).basis


def test_intersection_and_within_match_brute_force():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 12)
        a = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, n)))
        b = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, n)))
        common = _span(a.basis) & _span(b.basis)
        meet = a.intersection(b)
        assert meet.basis == b.intersection(a).basis == _canonical(common)
        assert meet.basis == Subspace.from_vectors(n, common).basis
        mask = rng.getrandbits(n)
        inside = [x for x in _span(a.basis) if not x & ~mask]
        assert a.within(mask).basis == _canonical(frozenset(inside))
        assert a.within(mask).basis == Subspace.from_vectors(n, inside).basis
        assert Subspace.coordinate(n, mask).basis == Subspace.from_vectors(
            n, [1 << i for i in range(n) if (mask >> i) & 1]
        ).basis


def test_preimage_matches_brute_force():
    rng = random.Random(14)
    for _ in range(120):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        cols = _rand_vectors(rng, m, n)
        f = column_map(cols)
        a = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, n)))
        b = Subspace.from_vectors(m, _rand_vectors(rng, m, rng.randint(0, m)))
        target = _span(b.basis)
        pre = [x for x in _span(a.basis) if _brute_apply(cols, x) in target]
        result = preimage(f, a, b)
        assert result.basis == _canonical(frozenset(pre))
        assert result.basis == Subspace.from_vectors(n, pre).basis
        for x in range(1 << n):
            assert f(x) == _brute_apply(cols, x)


def test_kernel_basis_matches_brute_force():
    rng = random.Random(15)
    for _ in range(120):
        m = _random_matrix(rng, rng.randint(0, 8), rng.randint(0, 10))
        rows = [m.row(i) for i in range(m.rows)]
        kernel = [v for v in range(1 << m.cols) if not any(bin(r & v).count("1") % 2 for r in rows)]
        assert m.kernel_basis().basis == _canonical(frozenset(kernel))
        assert m.kernel_basis().basis == Subspace.from_vectors(m.cols, kernel).basis
        assert m.rank() == len(_canonical(_span(rows)))


def _dense_product(a, b, k):
    """The product of list-of-lists matrices a and b, b having k columns."""
    return [[sum(a[i][t] & b[t][j] for t in range(len(b))) & 1 for j in range(k)] for i in range(len(a))]


def _dense_rank(dense):
    rows = [row[:] for row in dense]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _bits(values):
    return sum(v << i for i, v in enumerate(values))


def test_bit_matrix_matches_a_dense_reference():
    """Every accessor of BitMatrix, built from entries and from columns,
    against a list-of-lists matrix: dense[i][j] is entry (i, j)."""
    rng = random.Random(21)
    for _ in range(200):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        dense = [[int(rng.random() < 0.4) for _ in range(cols)] for _ in range(rows)]
        entries = [(i, j) for i in range(rows) for j in range(cols) if dense[i][j]]
        dense_cols = [_bits(dense[i][j] for i in range(rows)) for j in range(cols)]
        m = BitMatrix.from_entries(rows, cols, entries)
        built = BitMatrix.from_columns(rows, dense_cols)
        assert m == built and hash(m) == hash(built)
        assert (m.rows, m.cols) == (built.rows, built.cols) == (rows, cols)
        for mat in (m, built):
            assert [mat.row(i) for i in range(rows)] == [_bits(dense[i]) for i in range(rows)]
            assert [mat.column(j) for j in range(cols)] == dense_cols
            assert mat.entries() == tuple(entries)
            t = mat.transpose()
            assert (t.rows, t.cols) == (cols, rows)
            assert t.entries() == tuple(sorted((j, i) for i, j in entries))
            assert t.transpose() == mat
            assert mat.is_zero() == (not entries)
            assert mat.rank() == _dense_rank(dense)
        for _ in range(5):
            v = [rng.randint(0, 1) for _ in range(cols)]
            expected = _bits(row[0] for row in _dense_product(dense, [[x] for x in v], 1))
            assert m.apply(_bits(v)) == expected == column_map(dense_cols)(_bits(v))
        k = rng.randint(0, 9)
        other = [[int(rng.random() < 0.4) for _ in range(k)] for _ in range(cols)]
        right = BitMatrix.from_entries(cols, k, [(i, j) for i in range(cols) for j in range(k) if other[i][j]])
        product = _dense_product(dense, other, k)
        assert m @ right == BitMatrix.from_entries(
            rows, k, [(i, j) for i in range(rows) for j in range(k) if product[i][j]]
        )
        same = [[int(rng.random() < 0.4) for _ in range(cols)] for _ in range(rows)]
        total = BitMatrix.from_entries(rows, cols, [(i, j) for i in range(rows) for j in range(cols) if same[i][j]])
        assert m + total == BitMatrix.from_entries(
            rows, cols, [(i, j) for i in range(rows) for j in range(cols) if dense[i][j] ^ same[i][j]]
        )
        assert (m + m).is_zero() and m + m == BitMatrix.zeros(rows, cols)
        if cols <= 8:
            kernel = [
                v for v in range(1 << cols)
                if not any(sum(dense[i][j] & (v >> j) for j in range(cols)) & 1 for i in range(rows))
            ]
            assert m.kernel_basis().basis == built.kernel_basis().basis == _canonical(frozenset(kernel))
        with pytest.raises(ValueError):
            BitMatrix.from_entries(rows, cols, [(rows, 0)])
        with pytest.raises(ValueError):
            BitMatrix.from_entries(rows, cols, [(0, cols)])
        with pytest.raises(ValueError):
            BitMatrix.from_columns(rows, dense_cols + [1 << rows])
        with pytest.raises(ValueError):
            m @ BitMatrix.zeros(cols + 1, 1)
        with pytest.raises(ValueError):
            m + BitMatrix.zeros(rows, cols + 1)


def test_span_solve_matches_brute_force():
    rng = random.Random(16)
    for _ in range(150):
        n = rng.randint(1, 8)
        gens = _rand_vectors(rng, n, rng.randint(0, 7))
        # the generators outside the span of their predecessors
        free = [i for i, g in enumerate(gens) if g not in _span(gens[:i])]
        for v in range(1 << n):
            combos = [
                c for c in range(1 << len(gens))
                if not any((c >> i) & 1 for i in range(len(gens)) if i not in free)
                and column_map(gens)(c) == v
            ]
            assert len(combos) <= 1
            assert _span_solve(gens, v, n) == (combos[0] if combos else None)


def test_coset_solver_and_subquotient_match_brute_force():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 10)
        a = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, n)))
        b = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, n)))
        dim, reps = subquotient(a, b)
        common = _span(a.basis) & _span(b.basis)
        expected = []
        for v in a.basis:
            if v not in _span(list(common) + expected):
                expected.append(v)
        assert reps == tuple(expected) and dim == len(expected)
        solver = coset_solver(reps, a.intersection(b))
        for x in _span(a.basis):
            sol = solver.solve(x)
            assert sol is not None and column_map(reps)(sol) ^ x in common
        outside = [x for x in range(1 << n) if x not in _span(a.basis)]
        for x in outside[:5]:
            assert solver.solve(x) is None


def test_relations_span_exactly_the_relations():
    # pairs (v_i, t_i) inserted after a tagged prefix B: the relations are the
    # tags sum t_i + tag(b) over the sets c with sum v_i + b = 0, b in span(B)
    rng = random.Random(19)
    for _ in range(150):
        n, p = rng.randint(1, 12), rng.randint(1, 12)
        prefix = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, 3)))
        prefix_tags = _rand_vectors(rng, p, prefix.dim)
        vecs = _rand_vectors(rng, n, rng.randint(0, 8))
        tags = _rand_vectors(rng, p, len(vecs))
        found = Echelon.of(prefix, tags=prefix_tags).relations(zip(vecs, tags))
        relations = set()
        for c in range(1 << len(vecs)):
            for d in range(1 << prefix.dim):
                if _brute_apply(vecs, c) == _brute_apply(prefix.basis, d):
                    relations.add(_brute_apply(tags, c) ^ _brute_apply(prefix_tags, d))
        assert _span(found) == frozenset(relations)
        # one relation per pair that leaves the span unchanged
        assert len(found) == len(vecs) - (Subspace.from_vectors(n, prefix.basis + tuple(vecs)).dim - prefix.dim)


def test_coset_matrix_matches_brute_force():
    class Escaped(Exception):
        pass

    def escaped(v):
        raise Escaped(v)

    rng = random.Random(20)
    for _ in range(120):
        n, m = rng.randint(1, 12), rng.randint(1, 10)
        denom = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, 4)))
        a = Subspace.from_vectors(n, _rand_vectors(rng, n, rng.randint(0, 5)))
        _, reps = subquotient(a, denom)  # independent modulo denom
        cols = _rand_vectors(rng, n, m)
        apply = column_map(cols)
        src = _rand_vectors(rng, m, rng.randint(0, 6))
        cell = _span(reps + denom.basis)
        inside = [v for v in src if _brute_apply(cols, v) in cell]
        for v in src if reps else ():
            if _brute_apply(cols, v) in cell:
                assert coset_matrix(apply, [v], reps, denom, escaped).cols == 1
            else:
                with pytest.raises(Escaped) as info:
                    coset_matrix(apply, [v], reps, denom, escaped)
                assert info.value.args == (v,)
        mat = coset_matrix(apply, inside, reps, denom, escaped)
        assert (mat.rows, mat.cols) == (len(reps), len(inside))
        for i, v in enumerate(inside):
            assert _brute_apply(reps, mat.column(i)) ^ _brute_apply(cols, v) in _span(denom.basis)
        # an empty side gives the zero matrix and reads neither denom nor
        # escaped, whatever the images
        assert coset_matrix(apply, src, (), None, None) == BitMatrix.zeros(0, len(src))
        assert coset_matrix(apply, (), reps, None, None) == BitMatrix.zeros(len(reps), 0)


def _quadratic_check(ambient_dim, basis):
    """The invariant check as first written: every pair of basis vectors."""
    last_pivot = -1
    pivots = []
    for v in basis:
        if v == 0 or v >> ambient_dim:
            raise ValueError("basis vector zero or out of bounds")
        p = _low(v)
        if p <= last_pivot:
            raise ValueError("pivots not strictly increasing")
        last_pivot = p
        pivots.append(p)
    for v in basis:
        for p, w in zip(pivots, basis):
            if v is not w and (v >> p) & 1:
                raise ValueError("basis not fully reduced")


def test_invariant_check_agrees_with_pairwise_check():
    rng = random.Random(18)
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(0, 6)
        basis = tuple(rng.getrandbits(n + 1) for _ in range(rng.randint(0, 4)))
        try:
            _quadratic_check(n, basis)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        try:
            Subspace(n, basis)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected
        outcomes.add(expected)
    assert len(outcomes) == 4  # accepted, and each of the three rejections
