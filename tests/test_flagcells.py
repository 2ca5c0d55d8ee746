import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qcomb import (
    Flag,
    FlagShape,
    FpMatrix,
    OrderedSetPartition,
    ResourceLimitError,
    ValidationError,
    all_shapes,
    cell_form,
    cell_free_rows,
    cell_sum_poly,
    enumerate_flags,
    enumerate_general_linear,
    enumerate_partitions,
    flag_count_group_formula,
    inversion_count,
    is_parabolic_member,
    phi_flag,
    q_binomial,
    q_factorial,
    q_multinomial,
    reduced_echelon_bases,
    s_reduce,
    sigma_stats,
    tau_for_lambda,
    theta_word,
)
from qcomb.flagcells import _contains, _pivot_rows, _require_prime

RNG_SEED = 52462280


def _random_invertible(n, p, rng):
    while True:
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def _random_parabolic(shape, p, rng):
    c = shape.cuts
    while True:
        rows = [[rng.randrange(p) for _ in range(shape.n)] for _ in range(shape.n)]
        for bi in range(len(c) - 1):
            for bj in range(bi):
                for i in range(c[bi], c[bi + 1]):
                    for j in range(c[bj], c[bj + 1]):
                        rows[i][j] = 0
        g = FpMatrix(p, rows)
        if is_parabolic_member(g, shape):
            return g


# ---------------------------------------------------------------------------
# matrix plumbing


def test_matrix_basics():
    ident = FpMatrix.identity(2, 3)
    a = FpMatrix(2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert (ident @ a).entries == a.entries
    assert FpMatrix(2, [[1, 1], [0, 1]]).inverse().entries == ((1, 1), (0, 1))
    with pytest.raises(ValidationError):
        FpMatrix(4, [[1]])  # modulus must be prime
    with pytest.raises(ValidationError):
        FpMatrix(2, [[1, 0], [1]])


def test_rank_and_inverse():
    rng = random.Random(RNG_SEED)
    for p in (2, 3, 5):
        ident = FpMatrix.identity(p, 4)
        for _ in range(20):
            m = _random_invertible(4, p, rng)
            assert (m @ m.inverse()).entries == ident.entries
            assert (m.inverse() @ m).entries == ident.entries
        singular = FpMatrix(p, [[1, 2, 0, 1], [2, 4, 0, 2], [0, 1, 1, 0], [1, 0, 0, 1]])
        assert singular.rank() < 4
        with pytest.raises(ValidationError):
            singular.inverse()


def test_unit_column_selector_rank():
    # distinct unit columns always form a rank-e matrix
    for s in [(1, 3), (2, 4, 5)]:
        n, e = 5, len(s)
        cols = [[1 if i + 1 == sj else 0 for sj in s] for i in range(n)]
        assert FpMatrix(3, cols).rank() == e


def _matrices(max_rows=4, max_cols=4):
    """Random matrices over F_2, F_3 and F_5 with some rows forced to zero."""

    @st.composite
    def build(draw):
        p = draw(st.sampled_from([2, 3, 5]))
        rows = draw(st.integers(0, max_rows))
        cols = draw(st.integers(0, max_cols))
        entries = [[draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            if draw(st.integers(0, 3)) == 0:
                entries[i] = [0] * cols
        return FpMatrix(p, entries)

    return build()


def _span_rank(m):
    # log_p of the size of the column span, found by trying every combination
    span = {
        tuple(sum(c * x for c, x in zip(coeffs, row)) % m.p for row in m.entries)
        for coeffs in itertools.product(range(m.p), repeat=m.cols)
    }
    size, rank = len(span), 0
    while size > 1:
        assert size % m.p == 0
        size, rank = size // m.p, rank + 1
    return rank


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_rank_matches_span_size(m):
    assert m.rank() == _span_rank(m)


def _assert_canonical(m):
    """m is what the public constructor would build from its own entries."""
    assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
    assert all(type(x) is int and 0 <= x < m.p for row in m.entries for x in row)
    public = FpMatrix(m.p, m.entries)
    assert m == public and hash(m) == hash(public) and m.entries == public.entries


@settings(max_examples=100, deadline=None)
@given(_matrices(max_rows=5, max_cols=5), st.integers(0, 2**20))
def test_internally_built_matrices_are_canonical(m, seed):
    rng = random.Random(seed)
    p, n, e = m.p, m.rows, m.cols
    square = _random_invertible(max(n, 1), p, rng)
    other = FpMatrix(p, [[rng.randrange(p) for _ in range(3)] for _ in range(e)])
    results = [
        m.column_block(0, e // 2),
        m.select_rows(sorted(rng.sample(range(n), n // 2))),
        m.hstack(m),
        m.flip_rows(),
        m.reverse_columns(),
        m @ other,
        m + m,
        -m,
        square.inverse(),
        square.solve(square),
    ]
    for anti in (False, True):
        _, reduced, g = s_reduce(square, anti=anti)
        results += [reduced, g]
    for r in results:
        _assert_canonical(r)


# ---------------------------------------------------------------------------
# column reduction


def test_s_reduce_examples():
    s, m, g = s_reduce(FpMatrix(2, [[1], [1]]))
    assert s == (1,) and m.entries == ((1,), (1,)) and g.entries == ((1,),)
    # unit-column matrices are already reduced
    a = FpMatrix(3, [[0, 0], [1, 0], [0, 0], [0, 1]])
    s, m, g = s_reduce(a)
    assert s == (2, 4) and m.entries == a.entries
    assert g.entries == FpMatrix.identity(3, 2).entries


def test_s_reduce_rejects_rank_deficiency():
    with pytest.raises(ValidationError):
        s_reduce(FpMatrix(3, [[1, 2], [2, 4], [0, 0]]))


def _pattern_ok(m, pivots, anti):
    for j, s in enumerate(pivots):
        for i in range(1, m.rows + 1):
            v = m.entry(i - 1, j)
            if i == s:
                if v != 1:
                    return False
            elif i in pivots:
                if v != 0:
                    return False
            elif (i < s and not anti) or (i > s and anti):
                if v != 0:
                    return False
    return True


def test_s_reduce_properties_random():
    rng = random.Random(RNG_SEED)
    for p in (2, 3, 5):
        for _ in range(60):
            n = rng.randint(1, 6)
            e = rng.randint(1, n)
            matrix = _random_invertible(n, p, rng).column_block(0, e)
            for anti in (False, True):
                s, reduced, g = s_reduce(matrix, anti=anti)
                assert list(s) == sorted(s) and len(set(s)) == e
                assert (matrix @ g).entries == reduced.entries
                assert _pattern_ok(reduced, s, anti)
                # idempotence and uniqueness of the reducer
                s2, reduced2, g2 = s_reduce(reduced, anti=anti)
                assert s2 == s and reduced2.entries == reduced.entries
                assert g2.entries == FpMatrix.identity(p, e).entries
                # the pivot set is invariant under column scrambling
                scramble = _random_invertible(e, p, rng)
                s3, reduced3, _ = s_reduce(matrix @ scramble, anti=anti)
                assert s3 == s and reduced3.entries == reduced.entries


# ---------------------------------------------------------------------------
# parabolic membership


def test_parabolic_examples():
    shape = FlagShape(3, (1, 2))
    assert is_parabolic_member(FpMatrix.identity(2, 3), shape)
    rng = random.Random(RNG_SEED)
    # upper-triangular invertible matrices belong to every parabolic subgroup
    for n in range(2, 5):
        for p in (2, 3):
            for shp in all_shapes(n):
                rows = [
                    [rng.randrange(1, p) if i == j else (rng.randrange(p) if j > i else 0) for j in range(n)]
                    for i in range(n)
                ]
                assert is_parabolic_member(FpMatrix(p, rows), shp)
    # a below-diagonal cross-block entry breaks membership
    bad = FpMatrix(2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert not is_parabolic_member(bad, FlagShape(3, (1,)))
    with pytest.raises(ValidationError):
        is_parabolic_member(FpMatrix.identity(2, 2), shape)


# ---------------------------------------------------------------------------
# partitions and statistics


def test_partition_validation():
    shape = FlagShape(3, (2,))
    OrderedSetPartition(shape, ((1, 3), (2,)))
    with pytest.raises(ValidationError):
        OrderedSetPartition(shape, ((3, 1), (2,)))
    with pytest.raises(ValidationError):
        OrderedSetPartition(shape, ((1, 2), (2,)))
    with pytest.raises(ValidationError):
        OrderedSetPartition(shape, ((1,), (2, 3)))
    for blocks in [
        ((1, 1), (2,)),  # duplicate inside a block
        ((1, 3), (3,)),  # duplicate across blocks
        ((0, 1), (2,)),  # 0
        ((1, 4), (2,)),  # n + 1
        ((2, 3), (4,)),
        ((-1, 1), (2,)),
        ((1, 2, 3), ()),  # wrong block sizes
        ((1, 3),),  # wrong number of blocks
        ((1, 3), (2,), ()),
    ]:
        with pytest.raises(ValidationError):
            OrderedSetPartition(shape, blocks)
    assert OrderedSetPartition(shape, [[1.0, 3], [2]]).blocks == ((1, 3), (2,))


def test_enumerate_partitions_counts():
    for n in range(1, 7):
        for shape in all_shapes(n):
            sigmas = list(enumerate_partitions(shape))
            assert len(sigmas) == shape.multinomial()
            assert len({s.blocks for s in sigmas}) == len(sigmas)
    with pytest.raises(ResourceLimitError):
        list(enumerate_partitions(FlagShape.full(10), cap=100))


def test_sigma_stats_example():
    sigma = OrderedSetPartition(FlagShape(3, (2,)), ((1, 2), (3,)))
    stats = sigma_stats(sigma)
    assert stats.perm == (1, 2, 3)
    assert stats.mu == (1, 1, 2)
    assert stats.delta == (1, 1, 0)
    assert stats.lam == 2


def test_sigma_stats_delta_counts_the_free_rows():
    for n in range(1, 7):
        for shape in all_shapes(n):
            for sigma in enumerate_partitions(shape):
                assert sigma_stats(sigma).delta == tuple(map(len, cell_free_rows(sigma)))


def test_lambda_extremes():
    for n in range(2, 7):
        for shape in all_shapes(n):
            c = shape.cuts
            # identity partition has the top dimension
            ident = OrderedSetPartition(
                shape, tuple(tuple(range(c[i] + 1, c[i + 1] + 1)) for i in range(shape.r + 1))
            )
            assert sigma_stats(ident).lam == shape.nu
            # blocks stacked from the top yield dimension zero
            bottom = OrderedSetPartition(
                shape,
                tuple(tuple(range(n - c[i + 1] + 1, n - c[i] + 1)) for i in range(shape.r + 1)),
            )
            assert sigma_stats(bottom).lam == 0
            for sigma in enumerate_partitions(shape):
                stats = sigma_stats(sigma)
                assert 0 <= stats.lam <= shape.nu
                assert (stats.lam == shape.nu) == (stats.perm == tuple(range(1, n + 1)))
                assert (stats.lam == 0) == (all(d == 0 for d in stats.delta))


def test_theta_word_examples():
    sigma = OrderedSetPartition(FlagShape(3, (2,)), ((1, 2), (3,)))
    word = theta_word(sigma)
    assert word.letters == (2, 1, 1)
    assert inversion_count(word) == 2
    sigma = OrderedSetPartition(FlagShape(2, (1,)), ((2,), (1,)))
    assert theta_word(sigma).letters == (1, 2)
    assert sigma_stats(sigma).lam == 0


def test_anti_dimension_is_inversion_count_of_derived_permutation():
    for n in range(1, 7):
        for shape in all_shapes(n):
            for sigma in enumerate_partitions(shape):
                anti_dim = sum(len(rows) for rows in cell_free_rows(sigma, anti=True))
                assert anti_dim == inversion_count(sigma_stats(sigma).perm)


def test_cell_sum_examples():
    assert cell_sum_poly(FlagShape(2, (1,))).coeffs == (1, 1)
    assert cell_sum_poly(FlagShape(3, (1,)), anti=True).coeffs == (1, 1, 1)


def test_tau_examples():
    tau = tau_for_lambda(4, 2, 3)
    assert tau.blocks[0] == (1, 3)
    assert sigma_stats(tau).lam == 3
    assert tau_for_lambda(6, 2, 0).blocks[0] == (5, 6)
    assert tau_for_lambda(6, 2, 8).blocks[0] == (1, 2)
    with pytest.raises(ValidationError):
        tau_for_lambda(4, 2, 5)
    with pytest.raises(ValidationError):
        tau_for_lambda(4, 4, 0)


# ---------------------------------------------------------------------------
# cell forms


def test_cell_form_identity_shape():
    shape = FlagShape(2, (1,))
    sigma, form, g = cell_form(FpMatrix.identity(3, 2), shape)
    assert sigma.blocks == ((1,), (2,))
    assert form.matrix.entries == FpMatrix.identity(3, 2).entries
    assert g.entries == FpMatrix.identity(3, 2).entries


def test_cell_form_rejects_singular():
    with pytest.raises(ValidationError):
        cell_form(FpMatrix(2, [[1, 1], [1, 1]]), FlagShape(2, (1,)))


def test_cell_form_random_shapes():
    rng = random.Random(RNG_SEED)
    for p in (2, 3, 5):
        for n in range(2, 5):
            for shape in all_shapes(n):
                for anti in (False, True):
                    a = _random_invertible(n, p, rng)
                    sigma, form, g = cell_form(a, shape, anti=anti)
                    assert is_parabolic_member(g, shape)
                    assert (a @ g).entries == form.matrix.entries
                    assert form.matches_pattern()
                    # idempotence: the normal form is its own representative
                    sigma2, form2, g2 = cell_form(form.matrix, shape, anti=anti)
                    assert sigma2.blocks == sigma.blocks
                    assert form2.matrix.entries == form.matrix.entries
                    assert g2.entries == FpMatrix.identity(p, n).entries
                    # the whole coset reduces to the same form
                    h = _random_parabolic(shape, p, rng)
                    sigma3, form3, _ = cell_form(a @ h, shape, anti=anti)
                    assert form3.matrix.entries == form.matrix.entries


def test_cell_decomposition_gl32_exhaustive():
    group = list(enumerate_general_linear(3, 2))
    assert len(group) == 168
    for d in [(1,), (2,), (1, 2)]:
        shape = FlagShape(3, d)
        by_form = Counter()
        for matrix in group:
            sigma, form, g = cell_form(matrix, shape)
            assert is_parabolic_member(g, shape)
            assert form.matches_pattern()
            assert form.free_entry_count() == sigma_stats(sigma).lam
            by_form[form.matrix.entries] += 1
        expected = q_multinomial(shape).eval_at(2)
        assert len(by_form) == expected
        assert set(by_form.values()) == {168 // expected}
        by_sigma = Counter()
        for entries in by_form:
            sigma, _, _ = cell_form(FpMatrix(2, entries), shape)
            by_sigma[sigma.blocks] += 1
        for sigma in enumerate_partitions(shape):
            assert by_sigma[sigma.blocks] == 2 ** sigma_stats(sigma).lam


def test_same_form_iff_same_coset():
    group = list(enumerate_general_linear(3, 2))
    shape = FlagShape(3, (1, 2))
    forms = [cell_form(m, shape)[1].matrix.entries for m in group]
    inverses = [m.inverse() for m in group]
    rng = random.Random(RNG_SEED)
    for a in range(len(group)):
        for b in rng.sample(range(len(group)), 30):
            same_form = forms[a] == forms[b]
            same_coset = is_parabolic_member(inverses[b] @ group[a], shape)
            assert same_form == same_coset


# ---------------------------------------------------------------------------
# flags


def test_phi_flag_standard():
    shape = FlagShape(3, (1, 2))
    flag = phi_flag(FpMatrix.identity(2, 3), shape)
    assert flag.bases[0].entries == ((1,), (0,), (0,))
    assert flag.bases[1].entries == ((1, 0), (0, 1), (0, 0))


def test_phi_invariance_under_parabolic_action():
    rng = random.Random(RNG_SEED)
    for shape, p in [(FlagShape(4, (1, 3)), 2), (FlagShape(4, (2,)), 3), (FlagShape(3, (1, 2)), 5)]:
        for _ in range(20):
            a = _random_invertible(shape.n, p, rng)
            g = _random_parabolic(shape, p, rng)
            assert phi_flag(a, shape) == phi_flag(a @ g, shape)


def test_coset_law_exhaustive_f2():
    shape = FlagShape(3, (1,))
    group = list(enumerate_general_linear(3, 2))
    flags = [phi_flag(m, shape) for m in group]
    inverses = [m.inverse() for m in group]
    for a in range(len(group)):
        for b in range(len(group)):
            assert (flags[a] == flags[b]) == is_parabolic_member(inverses[b] @ group[a], shape)
    assert len(set(flags)) == q_multinomial(shape).eval_at(2)


def test_coset_law_sampled_f3():
    shape = FlagShape(3, (1, 2))
    rng = random.Random(RNG_SEED)
    group = list(enumerate_general_linear(3, 3))
    assert len(group) == (27 - 1) * (27 - 3) * (27 - 9)
    sample = rng.sample(group, 50)
    for a in sample:
        for b in sample[:15]:
            assert (phi_flag(a, shape) == phi_flag(b, shape)) == is_parabolic_member(
                b.inverse() @ a, shape
            )


def test_subspace_enumeration_counts():
    for n in range(1, 5):
        for e in range(n + 1):
            for p in (2, 3):
                bases = list(reduced_echelon_bases(n, e, p))
                assert len(bases) == len({b.entries for b in bases})
                for basis in bases:
                    _assert_canonical(basis)
                assert len(bases) == q_binomial(n, e).eval_at(p)


def test_flag_rejects_malformed_chains():
    shape = FlagShape(3, (1, 2))
    e1 = FpMatrix(2, [[1], [0], [0]])
    e12 = FpMatrix(2, [[1, 0], [0, 1], [0, 0]])
    e23 = FpMatrix(2, [[0, 0], [1, 0], [0, 1]])
    assert Flag(shape, 2, (e1, e12)).bases == (e1, e12)
    with pytest.raises(ValidationError, match="rank deficient"):
        Flag(shape, 2, (e1, FpMatrix(2, [[1, 1], [0, 0], [0, 0]])))
    with pytest.raises(ValidationError, match="rank deficient"):
        Flag(shape, 2, (FpMatrix(2, [[0], [0], [0]]), e12))
    with pytest.raises(ValidationError, match="not nested"):
        Flag(shape, 2, (e1, e23))
    with pytest.raises(ValidationError, match="do not match"):
        Flag(shape, 3, (e1, e12))  # bases over F_2, flag over F_3
    with pytest.raises(ValidationError, match="do not match"):
        Flag(shape, 2, (e12, e12))  # first level has the wrong dimension
    with pytest.raises(ValidationError, match="do not match"):
        Flag(shape, 2, (FpMatrix(2, [[1], [0]]), e12))  # wrong number of rows
    with pytest.raises(ValidationError, match="expected 2 subspaces"):
        Flag(shape, 2, (e1,))
    with pytest.raises(ValidationError, match="prime"):
        Flag(shape, 4, (e1, e12))


def _reference_flags(shape, p):
    # every chain x basis pair, filtered by the rank of the stacked pair
    chains = [()]
    for dim in shape.d:
        level = list(reduced_echelon_bases(shape.n, dim, p))
        chains = [
            chain + (basis,)
            for chain in chains
            for basis in level
            if not chain or basis.hstack(chain[-1]).rank() == dim
        ]
    return chains


def test_enumerate_flags_matches_rank_filtered_reference():
    for n in range(1, 5):
        for shape in all_shapes(n):
            for p in (2, 3):
                flags = enumerate_flags(shape, p)
                assert [f.bases for f in flags] == _reference_flags(shape, p), (shape, p)
                assert all(f.shape == shape and f.p == p for f in flags)


def test_flag_enumeration_examples():
    assert len(enumerate_flags(FlagShape(2, (1,)), 2)) == 3
    assert len(enumerate_flags(FlagShape(3, (1, 2)), 2)) == 21
    assert len(enumerate_flags(FlagShape(4, (2,)), 2)) == 35
    assert len(enumerate_flags(FlagShape(3, ()), 3)) == 1


def test_flag_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_flags(FlagShape.full(4), 3, cap=100)


def test_group_formula_examples():
    assert flag_count_group_formula(FlagShape(3, (1, 2)), 2) == 21
    assert flag_count_group_formula(FlagShape(2, (1,)), 3) == 4
    assert flag_count_group_formula(FlagShape(4, ()), 7) == 1
    assert flag_count_group_formula(FlagShape(3, (1, 2)), 2) == q_factorial(3).eval_at(2)


def test_gl_enumeration_rejection_matches_order_formula():
    for n, p in [(2, 2), (3, 2), (2, 3), (2, 5)]:
        order = math.prod(p**n - p**i for i in range(n))
        matrices = list(enumerate_general_linear(n, p))
        for m in matrices:
            _assert_canonical(m)
        group = [m.entries for m in matrices]
        assert group == sorted(set(group))
        assert len(group) == order
        assert all(FpMatrix(p, m).rank() == n for m in group)


def test_echelon_containment_matches_rank():
    for p in (2, 3):
        for n in range(1, 5):
            bases = [b for e in range(n + 1) for b in reduced_echelon_bases(n, e, p)]
            for big in bases:
                for small in bases:
                    contained = _contains(big, _pivot_rows(big), small)
                    assert contained == (big.hstack(small).rank() == big.cols)


def test_require_prime_is_exact():
    def trial_division(q):
        return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))

    for q in range(-3, 3000):
        assert _is_accepted(q) == trial_division(q), q
    # 10^18 + 3, 10^18 + 9 and the largest prime below 2^64
    for q in (10**18 + 3, 10**18 + 9, 2**64 - 59):
        assert _is_accepted(q)
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every base up to 23,
    # and a product of two primes above 2^30
    for q in (3215031751, 3825123056546413051, (2**32 - 5) * (2**31 - 1)):
        assert not _is_accepted(q)
    with pytest.raises(ValidationError, match="below 2"):
        FpMatrix(2**64 + 13, [[1]])


def _is_accepted(q):
    try:
        _require_prime(q)
    except ValidationError:
        return False
    return True


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=2**20),
)
def test_phi_flag_bases_are_nested_of_right_rank(n, p, seed):
    rng = random.Random(seed)
    d = tuple(sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))) if n > 1 else ()
    shape = FlagShape(n, d)
    a = _random_invertible(n, p, rng)
    flag = phi_flag(a, shape)
    for dim, basis in zip(shape.d, flag.bases):
        assert basis.rank() == dim
    for first, second in zip(flag.bases, flag.bases[1:]):
        assert second.hstack(first).rank() == second.cols
