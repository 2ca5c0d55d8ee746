import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qcomb import (
    CellForm,
    Flag,
    FlagShape,
    FpMatrix,
    MultisetWord,
    OrderedSetPartition,
    ResourceLimitError,
    ValidationError,
    all_shapes,
    cell_dimension,
    cell_form,
    cell_sum_poly,
    enumerate_flags,
    enumerate_general_linear,
    enumerate_partitions,
    enumerate_words,
    flag_count_group_formula,
    inversion_count,
    inversion_distribution_oracle,
    is_parabolic_member,
    phi_flag,
    psi,
    q_binomial,
    q_factorial,
    q_multinomial,
    reduced_echelon_bases,
    s_reduce,
    tau_for_lambda,
    theta_word,
)
from qcomb.flagcells import _require_prime, _widen

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
    with pytest.raises(ValidationError, match="only square matrices can be inverted"):
        FpMatrix(2, [[1, 0]]).inverse()


def test_non_integral_entries_are_refused():
    with pytest.raises(ValidationError, match="integers"):
        FpMatrix(2, [[1.5, 0], [0, 1]])
    assert FpMatrix(3, [[1.0, -1], [4, 2]]).entries == ((1, 2), (1, 2))
    rows = (iter(row) for row in [[1, 0], [0, 1]])  # read once
    assert FpMatrix(2, rows).entries == FpMatrix.identity(2, 2).entries
    shape = FlagShape(3, (2,))
    with pytest.raises(ValidationError, match="integers"):
        OrderedSetPartition(shape, [[1.5, 3], [2]])
    blocks = (iter(block) for block in [[1, 3], [2]])
    assert OrderedSetPartition(shape, blocks).blocks == ((1, 3), (2,))


def test_float_modulus_is_refused():
    shape = FlagShape(2, (1,))
    e1 = FpMatrix(2, [[1], [0]])
    for call in (
        lambda: FpMatrix(2.0, [[1, 1], [0, 1]]),
        lambda: Flag(shape, 2.0, (e1,)),
        lambda: enumerate_flags(shape, 3.0),
        lambda: flag_count_group_formula(shape, 2.0),
    ):
        with pytest.raises(ValidationError, match="modulus must be an integer"):
            call()


def test_square_check_at_each_entry_point():
    shape = FlagShape(2, (1,))
    sigma = OrderedSetPartition(shape, ((1,), (2,)))
    for bad in (FpMatrix(2, [[1, 0, 0], [0, 1, 0]]), FpMatrix.identity(2, 3)):
        for call in (
            lambda: is_parabolic_member(bad, shape),
            lambda: CellForm(sigma, bad),
            lambda: cell_form(bad, shape),
            lambda: phi_flag(bad, shape),
        ):
            with pytest.raises(ValidationError, match="expected an 2x2 matrix"):
                call()


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


@st.composite
def _square_matrices(draw):
    """Square matrices over F_2, F_3 and F_5; half get a last row that is a
    multiple of the first, so singular ones are common at every p."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 5))
    rows = [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        c = draw(st.integers(0, p - 1))
        rows[-1] = [c * x for x in rows[0]]
    return FpMatrix(p, rows)


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
def test_inverse_exists_exactly_at_full_rank(m):
    # rank and inverse read one row elimination; the products check its right half
    ident = FpMatrix.identity(m.p, m.rows)
    try:
        inverse = m.inverse()
    except ValidationError as error:
        assert str(error) == "matrix is singular"
        assert m.rank() < m.rows
    else:
        assert m.rank() == m.rows
        assert m @ inverse == ident and inverse @ m == ident


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
    results = [m.column_block(0, e // 2), m.hstack(m), m @ other, square.inverse()]
    shape = rng.choice(list(all_shapes(square.rows)))
    for anti in (False, True):
        _, reduced, g = s_reduce(square, anti=anti)
        _, form, h = cell_form(square, shape, anti=anti)
        results += [reduced, g, form.matrix, h]
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
            v = m.entries[i - 1][j]
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
    # so does a singular diagonal block, with nothing below the diagonal blocks
    singular_block = FpMatrix(3, [[1, 2, 0], [2, 1, 1], [0, 0, 1]])
    assert not is_parabolic_member(singular_block, FlagShape(3, (2,)))
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
            blocks = [sigma.blocks for sigma in enumerate_partitions(shape)]
            assert len(blocks) == shape.multinomial()
            assert blocks == sorted(set(blocks))  # lex order, no repeats
    with pytest.raises(ResourceLimitError):
        list(enumerate_partitions(FlagShape.full(10), cap=100))


def _assert_public_twin(built, public):
    assert built == public and hash(built) == hash(public) and repr(built) == repr(public)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerated_objects_match_public_constructors(n):
    # the enumerators and theta_word skip the public constructors' checks;
    # each object they build must pass those checks and equal the checked copy
    for shape in all_shapes(n):
        for word in enumerate_words(shape):
            assert type(word.letters) is tuple
            _assert_public_twin(word, MultisetWord(word.letters, shape))
        for sigma in enumerate_partitions(shape):
            assert type(sigma.blocks) is tuple and all(type(b) is tuple for b in sigma.blocks)
            _assert_public_twin(sigma, OrderedSetPartition(shape, sigma.blocks))
            word = theta_word(sigma)
            assert type(word.letters) is tuple
            _assert_public_twin(word, MultisetWord(word.letters, shape))
        for p in (2, 3) if n <= 4 else ():
            for flag in enumerate_flags(shape, p):
                assert type(flag.bases) is tuple
                _assert_public_twin(flag, Flag(shape, p, flag.bases))


def test_cell_dimension_example():
    sigma = OrderedSetPartition(FlagShape(3, (2,)), ((1, 2), (3,)))
    # row 3 is free under the pivots of columns 1 and 2, above none of them
    assert cell_dimension(sigma) == 2
    assert cell_dimension(sigma, anti=True) == 0


def test_lambda_extremes():
    for n in range(2, 7):
        for shape in all_shapes(n):
            c = shape.cuts
            # identity partition has the top dimension
            ident = OrderedSetPartition(
                shape, tuple(tuple(range(c[i] + 1, c[i + 1] + 1)) for i in range(shape.r + 1))
            )
            assert cell_dimension(ident) == shape.nu
            # blocks stacked from the top yield dimension zero
            bottom = OrderedSetPartition(
                shape,
                tuple(tuple(range(n - c[i + 1] + 1, n - c[i] + 1)) for i in range(shape.r + 1)),
            )
            assert cell_dimension(bottom) == 0
            for sigma in enumerate_partitions(shape):
                lam = cell_dimension(sigma)
                assert 0 <= lam <= shape.nu
                assert (lam == shape.nu) == (sigma == ident)
                assert (lam == 0) == (sigma == bottom)


def test_theta_word_examples():
    sigma = OrderedSetPartition(FlagShape(3, (2,)), ((1, 2), (3,)))
    word = theta_word(sigma)
    assert word.letters == (2, 1, 1)
    assert inversion_count(word) == 2
    sigma = OrderedSetPartition(FlagShape(2, (1,)), ((2,), (1,)))
    assert theta_word(sigma).letters == (1, 2)
    assert cell_dimension(sigma) == 0


def test_anti_dimension_is_inversion_count_of_derived_permutation():
    for n in range(1, 7):
        for shape in all_shapes(n):
            for sigma in enumerate_partitions(shape):
                perm = [v for block in sigma.blocks for v in block]
                assert cell_dimension(sigma, anti=True) == inversion_count(perm)


def test_cell_sum_examples():
    assert cell_sum_poly(FlagShape(2, (1,))).coeffs == (1, 1)
    assert cell_sum_poly(FlagShape(3, (1,)), anti=True).coeffs == (1, 1, 1)


def test_tau_examples():
    tau = tau_for_lambda(4, 2, 3)
    assert tau.blocks[0] == (1, 3)
    assert cell_dimension(tau) == 3
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


def test_matches_pattern_frees_lambda_entries():
    # setting one entry of a pivot pattern to 2 keeps the form only on a free entry
    for shape in all_shapes(4):
        for sigma in enumerate_partitions(shape):
            pivots = [v for block in sigma.blocks for v in block]
            base = [[int(i == v) for v in pivots] for i in range(1, 5)]
            for anti in (False, True):
                assert CellForm(sigma, FpMatrix(3, base), anti).matches_pattern()
                accepted = 0
                for i, j in itertools.product(range(4), repeat=2):
                    rows = [list(row) for row in base]
                    rows[i][j] = 2
                    accepted += CellForm(sigma, FpMatrix(3, rows), anti).matches_pattern()
                assert accepted == cell_dimension(sigma, anti)


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


def test_subspace_enumeration_counts():
    for n in range(1, 5):
        for e in range(n + 1):
            for p in (2, 3):
                bases = list(reduced_echelon_bases(n, e, p))
                assert len(bases) == len({b.entries for b in bases})
                for basis in bases:
                    _assert_canonical(basis)
                assert len(bases) == q_binomial(n, e).eval_at(p)


def test_subspace_enumeration_refuses_negative_sizes():
    for n, e in [(-1, 0), (2, -1)]:
        with pytest.raises(ValidationError, match="nonnegative"):
            next(reduced_echelon_bases(n, e, 2))
    assert list(reduced_echelon_bases(2, 3, 2)) == []  # no 3-dimensional subspaces of F_2^2


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
    # the n = 5 shapes with at most two cuts over F_2 are the ones the
    # oracles benchmark draws
    cases = [(shape, p) for n in range(1, 5) for shape in all_shapes(n) for p in (2, 3)]
    cases += [(shape, 2) for shape in all_shapes(5) if len(shape.d) <= 2]
    for shape, p in cases:
        flags = enumerate_flags(shape, p)
        assert [f.bases for f in flags] == _reference_flags(shape, p), (shape, p)
        assert all(f.shape == shape and f.p == p for f in flags)


def test_flag_enumeration_examples():
    assert len(enumerate_flags(FlagShape(2, (1,)), 2)) == 3
    assert len(enumerate_flags(FlagShape(3, (1, 2)), 2)) == 21
    assert len(enumerate_flags(FlagShape(4, (2,)), 2)) == 35
    assert len(enumerate_flags(FlagShape(3, ()), 3)) == 1


def test_flag_enumeration_cap():
    # nu = 6 is below the cap's 7 bits, so the exact count [4]_3! = 2080 is named
    with pytest.raises(ResourceLimitError, match=" 2080 items, above the cap of 100$"):
        enumerate_flags(FlagShape.full(4), 3, cap=100)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_huge_over_cap_amounts_raise_one_line():
    # An in-process cli.run lifts the int-to-str digit limit for the session.
    # Put the default back, under which a decimal amount past 4300 digits
    # raises ValueError, and give it back afterwards.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ResourceLimitError, match=r"^signed subset enumeration requires "
                           r"enumerating at least 2\^20000 items, above the cap of 1000000$"):
            psi(20000, 3, "subset-oracle")
        # nu = 40000: refused by its size, before any group order is computed
        with pytest.raises(ResourceLimitError, match=r"^flag enumeration requires "
                           r"enumerating at least 2\^40000 items, above the cap of 1000000$"):
            enumerate_flags(FlagShape(400, (200,)), 2)
        # |GL(n, p)| >= 2^(n(n-1)): refused by that bound, before the order is computed
        with pytest.raises(ResourceLimitError, match=r"^general linear group enumeration requires "
                           r"enumerating at least 2\^99990000 items, above the cap of 1000000$"):
            next(enumerate_general_linear(10**4, 2))
    finally:
        sys.set_int_max_str_digits(limit)


def test_histogram_oracles_refuse_before_allocating():
    # nu = 10^8: a histogram of nu + 1 entries laid out before the cap check
    # would take about 800 MB; the refusal must come first
    shape = FlagShape(20000, (10000,))
    for oracle in (inversion_distribution_oracle, cell_sum_poly):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"at least 2\^10000 items"):
                oracle(shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_group_formula_examples():
    assert flag_count_group_formula(FlagShape(3, (1, 2)), 2) == 21
    assert flag_count_group_formula(FlagShape(2, (1,)), 3) == 4
    assert flag_count_group_formula(FlagShape(4, ()), 7) == 1
    assert flag_count_group_formula(FlagShape(3, (1, 2)), 2) == q_factorial(3).eval_at(2)


@pytest.mark.parametrize("shape, count", [
    pytest.param(FlagShape(1000, (1,)), 2**1000 - 1, id="n1000-d1"),
    pytest.param(FlagShape(3000, ()), 1, id="n3000-one-block"),
    pytest.param(FlagShape(2000, (2,)), (2**1999 - 1) * (2**2000 - 1) // 3, id="n2000-d2"),
])
def test_group_formula_cancels_before_multiplying(shape, count):
    # |GL(3000, F_2)| alone has about 9 * 10^6 bits; cancelled, nothing exceeds the answer.
    # Cancelling the smaller block of (2, 1998) instead gives the same count in seconds.
    start = time.perf_counter()
    assert flag_count_group_formula(shape, 2) == count
    assert time.perf_counter() - start < 1


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
    assert sum(1 for _ in enumerate_general_linear(3, 3)) == (27 - 1) * (27 - 3) * (27 - 9)
    with pytest.raises(ValidationError, match="nonnegative"):  # not a cap error at large -n
        next(enumerate_general_linear(-5, 2))
    assert [m.entries for m in enumerate_general_linear(0, 2)] == [()]  # GL(0) = {the empty matrix}


def test_echelon_containment_matches_rank():
    # the span set of `big`, built as enumerate_flags builds it, holds every
    # column of `small` exactly when stacking small onto big adds no rank
    for p in (2, 3):
        for n in range(1, 5):
            bases = [b for e in range(n + 1) for b in reduced_echelon_bases(n, e, p)]
            for big in bases:
                span = {(0,) * n}
                for column in zip(*big.entries):
                    span = _widen(span, column, p)
                assert len(span) == p**big.cols
                for small in bases:
                    contained = set(zip(*small.entries)) <= span
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
    _assert_public_twin(flag, Flag(shape, p, flag.bases))
    for dim, basis in zip(shape.d, flag.bases):
        assert basis.rank() == dim
    for first, second in zip(flag.bases, flag.bases[1:]):
        assert second.hstack(first).rank() == second.cols
