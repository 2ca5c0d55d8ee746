"""Prime-field matrices, reduced column forms, and cell decompositions.

An invertible matrix, read in column blocks of sizes e_1, ..., e_{r+1},
determines a chain of nested subspaces (a flag).  Right-multiplying by the
block-upper-triangular subgroup fixes the flag, and each coset contains a
unique representative in a normal form indexed by an ordered set partition
of the row indices: each block's columns are in reduced column-echelon form
with pivot rows given by the block, and rows claimed by earlier blocks are
zeroed out.  One column elimination, `_reduce_blocks`, computes every normal
form: it reduces the column blocks in order on the stacked matrix [A; I],
whose lower rows record the column operations as the transition matrix g;
`s_reduce` is its one-block case and `cell_form` its shape case.  The number
of unconstrained entries of that normal form is the cell dimension, and
transporting the partition to a multiset word turns the dimension into an
inversion count.  `cell_sum_poly` sums the dimensions without building a
partition: by the level rule in its docstring each block's choice of
positions gains a fixed amount, and a depth-first walk makes one histogram
increment per partition, never convolving the levels.  `FpMatrix.rank` and
`inverse` both read one row elimination, `_row_reduce` (Gauss-Jordan), which
shares no code with `_reduce_blocks` because the `cell-decomposition` and
`coset-law` checks use them to check `_reduce_blocks`' output.

Everything is exact arithmetic over F_p, p a prime below 2^64.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from operator import lt, mul
from typing import Iterator, Sequence

from .errors import (DEFAULT_CAP, ValidationError, check_cap, frozen, require_instance, require_int, require_ints,
                     require_prime, require_sequence)
from .inversions import MultisetWord
from .polycore import IntPoly
from .qanalogue import FlagShape, q_multinomial_at

__all__ = [
    "CellForm",
    "Flag",
    "FpMatrix",
    "OrderedSetPartition",
    "cell_dimension",
    "cell_form",
    "cell_sum_poly",
    "enumerate_flags",
    "enumerate_general_linear",
    "enumerate_partitions",
    "flag_count_group_formula",
    "is_parabolic_member",
    "phi_flag",
    "reduced_echelon_bases",
    "s_reduce",
    "tau_for_lambda",
    "theta_word",
]


@frozen
class FpMatrix:
    """A matrix over F_p, entries stored row-major as reduced residues."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, p: int, rows: Sequence[Sequence[int]]):
        require_prime(p)
        data = tuple(require_ints(row, "matrix entries") for row in require_sequence(rows, "matrix rows"))
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValidationError("ragged rows in matrix")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", tuple(tuple(x % p for x in row) for row in data))

    @classmethod
    def _wrap(cls, p: int, entries: tuple[tuple[int, ...], ...]) -> FpMatrix:
        """A matrix from equal-length tuples of residues mod p, p already checked.

        Results computed from matrices are built this way: their entries are
        reduced and the modulus is the operands', so the checks of the public
        constructor would find nothing.
        """
        matrix = object.__new__(cls)
        fields = matrix.__dict__
        fields["p"] = p
        fields["entries"] = entries
        return matrix

    @classmethod
    def identity(cls, p: int, n: int) -> FpMatrix:
        n = require_int(n, "matrix size", 0)
        return cls(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column_block(self, start: int, stop: int) -> FpMatrix:
        return FpMatrix._wrap(self.p, tuple(row[start:stop] for row in self.entries))

    def hstack(self, other: FpMatrix) -> FpMatrix:
        self._check_modulus(other)
        if self.rows != other.rows:
            raise ValidationError("row counts differ in hstack")
        return FpMatrix._wrap(self.p, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def _check_modulus(self, other: FpMatrix) -> None:
        if self.p != other.p:
            raise ValidationError(f"mixed moduli {self.p} and {other.p}")

    def __matmul__(self, other: FpMatrix) -> FpMatrix:
        self._check_modulus(other)
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        p = self.p
        columns = tuple(zip(*other.entries))
        return FpMatrix._wrap(
            p, tuple(tuple(sum(map(mul, row, col)) % p for col in columns) for row in self.entries)
        )

    def rank(self) -> int:
        return len(_row_reduce(self.p, self.entries)[1])

    def inverse(self) -> FpMatrix:
        """Gauss-Jordan on [A | I]: A is invertible iff its columns take every pivot."""
        n = self.rows
        if n != self.cols:
            raise ValidationError("only square matrices can be inverted")
        rows, pivots = _row_reduce(self.p, self.hstack(FpMatrix.identity(self.p, n)).entries)
        if pivots != tuple(range(n)):
            raise ValidationError("matrix is singular")
        return FpMatrix._wrap(self.p, tuple(tuple(row[n:]) for row in rows))


def _row_reduce(p: int, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], tuple[int, ...]]:
    """Gauss-Jordan elimination over F_p: the reduced row-echelon rows and their
    increasing pivot columns.  Row operations only, so `rank` and `inverse`
    share no code with the column elimination `_reduce_blocks` they check.
    """
    work, pivots = [list(row) for row in rows], []
    for col in range(len(work[0]) if work else 0):
        top = len(pivots)
        for r in range(top, len(work)):  # the first row without a pivot that is nonzero here
            if work[r][col]:
                break
        else:
            continue
        inv = pow(work[r][col], -1, p)
        pivot = [x * inv % p for x in work[r]]
        work[r], work[top] = work[top], pivot
        for i in range(len(work)):
            f = work[i][col]
            if f and i != top:
                work[i] = [(a - f * b) % p for a, b in zip(work[i], pivot)]
        pivots.append(col)
    return work, tuple(pivots)


def s_reduce(matrix: FpMatrix, anti: bool = False) -> tuple[tuple[int, ...], FpMatrix, FpMatrix]:
    """Reduced column-echelon form of a full-column-rank n x e matrix.

    Returns (s, M, g) with M = matrix @ g, g invertible e x e, and M in
    reduced form with strictly increasing 1-based pivot rows s: pivot
    entries are 1, pivot rows vanish outside their own column, and entries
    above each pivot (below, for the anti form) vanish.  The pivot sequence
    is an invariant of the column space.  `_reduce_blocks` with one block.
    """
    require_instance(matrix, FpMatrix, "matrix")
    (pivots,), reduced, g = _reduce_blocks(matrix, (0, matrix.cols), anti)
    return pivots, reduced, g


def _reduce_blocks(A: FpMatrix, cuts: Sequence[int], anti: bool) -> tuple[list, FpMatrix, FpMatrix]:
    """Column-reduce A's blocks between consecutive cuts, in order: each block's
    1-based pivot rows, M = A @ g and g.

    The pass works on the columns of the stacked matrix [A; I], whose lower
    rows start as the identity and so record every column operation: when A
    has turned into M they hold g.  Rows are scanned from the top (from the
    bottom, for the anti form).  On each row, the block's first column without
    a pivot that is nonzero there becomes the next pivot column: it moves into
    place, its entry is scaled to 1, and the row is cleared from every other
    column from the block's start on, so the later blocks lose the rows this
    block claims.  The anti scan finds the pivots bottom-up; one reversal
    leaves the block in increasing pivot order.

    >>> blocks, M, g = _reduce_blocks(FpMatrix(2, [[0, 1, 1], [1, 1, 0], [1, 0, 0]]), (0, 1, 3), False)
    >>> blocks
    [(2,), (1, 3)]
    >>> M.entries
    ((0, 1, 0), (1, 0, 0), (1, 0, 1))
    >>> g.entries
    ((1, 0, 1), (0, 0, 1), (0, 1, 1))
    """
    p, n, e = A.p, A.rows, A.cols
    cols = [list(column) + [0] * j + [1] + [0] * (e - j - 1) for j, column in enumerate(zip(*A.entries))]
    blocks = []
    for start, stop in zip(cuts, cuts[1:]):
        pivots: list[int] = []
        for i in reversed(range(n)) if anti else range(n):
            j = start + len(pivots)
            if j == stop:
                break
            for c in range(j, stop):  # the first column without a pivot that is nonzero here
                if cols[c][i]:
                    break
            else:
                continue
            col, cols[c] = cols[c], cols[j]
            if col[i] != 1:
                inv = pow(col[i], -1, p)
                col = [x * inv % p for x in col]
            cols[j] = col
            for k in range(start, e):
                f = cols[k][i]
                if f and k != j:
                    cols[k] = [(a - f * b) % p for a, b in zip(cols[k], col)]
            pivots.append(i + 1)
        if start + len(pivots) < stop:
            raise ValidationError(f"matrix has rank below {stop - start}, cannot column-reduce")
        if anti:
            cols[start:stop] = cols[start:stop][::-1]
            pivots.reverse()
        blocks.append(tuple(pivots))
    rows = tuple(zip(*cols)) or ((),) * n
    return blocks, FpMatrix._wrap(p, rows[:n]), FpMatrix._wrap(p, rows[n:])


def _require_square(A: FpMatrix, shape: FlagShape) -> int:
    """The shape's n, once the shape is a FlagShape and A an n x n FpMatrix."""
    n = require_instance(shape, FlagShape, "shape").n
    if require_instance(A, FpMatrix, "matrix").rows != n or A.cols != n:
        raise ValidationError(f"expected an {n}x{n} matrix")
    return n


def is_parabolic_member(g: FpMatrix, shape: FlagShape) -> bool:
    """True iff g is invertible and block-upper-triangular for the shape's
    blocks.  A block-triangular matrix is invertible exactly when its diagonal
    blocks are, so this is a zero test below the diagonal blocks and one rank."""
    n = _require_square(g, shape)
    c, rows = shape.cuts, g.entries
    if any(any(row[:start]) for start, stop in zip(c, c[1:]) for row in rows[start:stop]):
        return False
    return g.rank() == n


@frozen
class OrderedSetPartition:
    """A partition of [n] into labeled blocks of prescribed sizes."""

    shape: FlagShape
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, shape: FlagShape, blocks: Sequence[Sequence[int]]):
        require_instance(shape, FlagShape, "shape")
        data = tuple(require_ints(block, "blocks") for block in require_sequence(blocks, "blocks"))
        sizes = shape.block_sizes
        if len(data) != len(sizes):
            raise ValidationError(f"expected {len(sizes)} blocks, got {len(data)}")
        for block, size in zip(data, sizes):
            if len(block) != size:
                raise ValidationError(f"block {block} should have {size} elements")
            if not all(map(lt, block, block[1:])):
                raise ValidationError(f"block {block} must be strictly increasing")
        # the sizes add up to n, so the blocks partition 1..n when their union is 1..n
        if set().union(*data) != set(range(1, shape.n + 1)):
            raise ValidationError("blocks must partition 1..n")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", data)


def _check_partition_cap(shape: FlagShape, cap: int) -> None:
    require_instance(shape, FlagShape, "shape")
    check_cap(cap, "ordered set partition enumeration", shape.n - max(shape.block_sizes), shape.multinomial)


def _levels(shape: FlagShape) -> Iterator[tuple[int, int, Iterator[tuple[int, ...]]]]:
    """Each block but the last as (left, size, choices): `left` elements are
    still unplaced, and `choices` yields the block's positions among them,
    every size-subset of range(left) in lex order."""
    left = shape.n
    for size in shape.block_sizes[:-1]:
        yield left, size, itertools.combinations(range(left), size)
        left -= size


def enumerate_partitions(shape: FlagShape, cap: int = DEFAULT_CAP) -> Iterator[OrderedSetPartition]:
    """Every ordered set partition with the shape's block sizes, lex order.

    Each block but the last is a choice of positions among the elements not
    yet placed; the choices and the positions each leaves over depend only on
    the block's level, so they are listed once per level, from `_levels`.
    Each level hands the blocks chosen so far down to the next, and the
    innermost level builds the last two blocks and the partition itself.  The
    partitions of two or more blocks are valid by construction and built
    unchecked, by storing the two fields straight into each new instance's
    __dict__; test_enumerated_objects_match_public_constructors pins them.
    """
    _check_partition_cap(shape, cap)
    everything = tuple(range(1, shape.n + 1))
    if not shape.d:
        yield OrderedSetPartition(shape, (everything,))
        return
    splits = [
        [(chosen, tuple(i for i in range(left) if i not in chosen)) for chosen in choices]
        for left, _, choices in _levels(shape)
    ]
    innermost = len(splits) - 1
    new, cls = object.__new__, OrderedSetPartition

    def rec(head: tuple, remaining: tuple[int, ...], level: int) -> Iterator[OrderedSetPartition]:
        pick = remaining.__getitem__
        if level < innermost:
            for chosen, rest in splits[level]:
                yield from rec(head + (tuple(map(pick, chosen)),), tuple(map(pick, rest)), level + 1)
            return
        for chosen, rest in splits[level]:
            sigma = new(cls)
            fields = sigma.__dict__
            fields["shape"] = shape
            fields["blocks"] = head + (tuple(map(pick, chosen)), tuple(map(pick, rest)))
            yield sigma

    yield from rec((), everything, 0)


def cell_dimension(sigma: OrderedSetPartition, anti: bool = False) -> int:
    """The cell dimension lam(sigma): the free entries of sigma's normal form.

    Column j has its pivot at row v = perm[j], and its free rows are the rows
    of later blocks below v (above v, for the anti form).  They are counted
    by bisecting the sorted pool of those rows, built from the last block back.

    >>> sigma = OrderedSetPartition(FlagShape(3, (2,)), ((1, 2), (3,)))
    >>> cell_dimension(sigma), cell_dimension(sigma, anti=True)
    (2, 0)
    """
    require_instance(sigma, OrderedSetPartition, "partition")
    lam = 0
    pool: list[int] = []  # the rows of the blocks after the current one, sorted
    for block in reversed(sigma.blocks):
        for v in block:
            lam += bisect_left(pool, v) if anti else len(pool) - bisect_right(pool, v)
        pool = sorted(pool + list(block))
    return lam


def theta_word(sigma: OrderedSetPartition) -> MultisetWord:
    """Transport the partition to a multiset word, mirroring the elements.

    Position i receives the index of the block containing element n - i + 1.
    The map is a bijection onto the words of the shape's block content, and
    the word's inversion count equals the cell dimension lam(sigma): both
    count element pairs u < v with v in a strictly later block than u.  Built
    unchecked, like `enumerate_words`' words; test_enumerated_objects_match_public_constructors
    and word-transport pin it.
    """
    shape = require_instance(sigma, OrderedSetPartition, "partition").shape
    member = [0] * (shape.n + 1)
    for ell, block in enumerate(sigma.blocks, start=1):
        for v in block:
            member[v] = ell
    word = object.__new__(MultisetWord)
    fields = word.__dict__
    fields["letters"] = tuple(member[:0:-1])
    fields["shape"] = shape
    return word


@frozen
class CellForm:
    """An invertible matrix in the normal form attached to a partition."""

    sigma: OrderedSetPartition
    matrix: FpMatrix
    anti: bool

    def __init__(self, sigma: OrderedSetPartition, matrix: FpMatrix, anti: bool = False):
        _require_square(matrix, require_instance(sigma, OrderedSetPartition, "partition").shape)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "anti", bool(anti))

    def matches_pattern(self) -> bool:
        """Entry check: 1 on each pivot, 0 outside the free entries.

        Row i may be nonzero in the column whose pivot is row v only if i's
        block comes after v's block and i lies below v (above, for anti).
        """
        block_of = {i: m for m, block in enumerate(self.sigma.blocks) for i in block}
        pivots = [v for block in self.sigma.blocks for v in block]
        for i, row in enumerate(self.matrix.entries, start=1):
            for v, x in zip(pivots, row):
                if i == v:
                    if x != 1:
                        return False
                elif x and not (block_of[i] > block_of[v] and (i < v if self.anti else i > v)):
                    return False
        return True


def cell_form(
    A: FpMatrix, shape: FlagShape, anti: bool = False
) -> tuple[OrderedSetPartition, CellForm, FpMatrix]:
    """The unique normal form in the coset of A.

    `_reduce_blocks` on the shape's column blocks.  Each pivot row a block
    claims is cleared from the later blocks' columns as the pivot is found, so
    each block is reduced with the earlier blocks' rows already zero, and a
    singular A leaves some block short of pivots.  Returns (sigma, form, g)
    with form.matrix = A @ g and g block-upper-triangular.  sigma and form are
    valid by construction and built unchecked, like `enumerate_partitions`'
    partitions; test_enumerated_objects_match_public_constructors pins them.
    """
    _require_square(A, shape)
    blocks, reduced, g = _reduce_blocks(A, shape.cuts, anti)
    sigma = object.__new__(OrderedSetPartition)
    sigma.__dict__.update(shape=shape, blocks=tuple(blocks))
    form = object.__new__(CellForm)
    form.__dict__.update(sigma=sigma, matrix=reduced, anti=bool(anti))
    return sigma, form, g


def cell_sum_poly(shape: FlagShape, anti: bool = False, cap: int = DEFAULT_CAP) -> IntPoly:
    """Generating polynomial of cell dimensions over all partitions of the shape,
    summed by a depth-first walk that builds no partition.

    Level rule: a block that takes positions c_0 < ... < c_{size-1} among the
    `left` elements still unplaced (sorted) gains sum_j (left - size - c_j + j),
    the unchosen positions above each c_j, which are the later blocks' rows
    below its pivot; the anti form gains sum_j (c_j - j), those below.  The
    walk carries the running sum through every tuple of the levels' choices,
    and the innermost level adds 1 to the histogram per choice: one increment
    per partition.  Convolving the levels or memoising a partial histogram
    would make it the q-binomial product it checks.  The cap is checked first.

    On FlagShape(3, (1,)) the first block takes position 0, 1 or 2 of the
    three elements and gains 2, 1 or 0 (anti: 0, 1 or 2); the last gains 0.

    >>> cell_sum_poly(FlagShape(3, (1,))).coeffs, cell_sum_poly(FlagShape(3, (1,)), anti=True).coeffs
    ((1, 1, 1), (1, 1, 1))
    """
    _check_partition_cap(shape, cap)
    gains = []
    for left, size, choices in _levels(shape):
        below = size * (size - 1) // 2  # sum_j j
        if anti:
            gains.append([sum(c) - below for c in choices])
        else:
            gains.append([size * (left - size) + below - sum(c) for c in choices])
    hist = [0] * (shape.nu + 1)
    *outer, inner = gains or [[0]]
    last = len(outer)

    def walk(level: int, acc: int) -> None:
        if level == last:
            for g in inner:
                hist[acc + g] += 1
        else:
            for g in outer[level]:
                walk(level + 1, acc + g)

    walk(0, 0)
    return IntPoly(hist)


def tau_for_lambda(n: int, d1: int, k: int) -> OrderedSetPartition:
    """A two-block partition whose cell dimension is exactly k.

    Writing k = a*e2 + b with 0 <= b < e2, the first block takes 1..a, the
    top e1-a-1 values, and the single value n - e1 + a + 1 - b.
    """
    n, d1, k = require_int(n, "n"), require_int(d1, "d1"), require_int(k, "target dimension")
    if not 1 <= d1 < n:
        raise ValidationError(f"need 1 <= d1 < n, got d1={d1}, n={n}")
    shape = FlagShape(n, (d1,))
    e1, e2 = d1, n - d1
    if not 0 <= k <= e1 * e2:
        raise ValidationError(f"target dimension {k} outside [0, {e1 * e2}]")
    a, b = divmod(k, e2)
    if a == e1:
        first = list(range(1, e1 + 1))
    else:
        first = (
            list(range(1, a + 1))
            + [n - j for j in range(e1 - a - 1)]
            + [n - e1 + a + 1 - b]
        )
    chosen = set(first)
    second = tuple(x for x in range(1, n + 1) if x not in chosen)
    return OrderedSetPartition(shape, (tuple(sorted(first)), second))


@frozen
class Flag:
    """A chain of nested subspaces, stored by canonical echelon bases."""

    shape: FlagShape
    p: int
    bases: tuple[FpMatrix, ...]

    def __init__(self, shape: FlagShape, p: int, bases: Sequence[FpMatrix]):
        require_instance(shape, FlagShape, "shape")
        require_prime(p)
        data = require_sequence(bases, "bases")
        if len(data) != shape.r:
            raise ValidationError(f"expected {shape.r} subspaces, got {len(data)}")
        previous: FpMatrix | None = None
        for dim, basis in zip(shape.d, data):
            if require_instance(basis, FpMatrix, "basis").p != p or basis.rows != shape.n or basis.cols != dim:
                raise ValidationError("basis dimensions do not match the shape")
            if basis.rank() != dim:
                raise ValidationError("basis matrix is rank deficient")
            if previous is not None and basis.hstack(previous).rank() != dim:
                raise ValidationError("subspaces are not nested")
            previous = basis
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "bases", data)

    @classmethod
    def _wrap(cls, shape: FlagShape, p: int, bases: tuple[FpMatrix, ...]) -> Flag:
        """A flag from a chain of nested bases over a checked p, unchecked, for enumerators."""
        flag = object.__new__(cls)
        fields = flag.__dict__
        fields["shape"] = shape
        fields["p"] = p
        fields["bases"] = bases
        return flag


def phi_flag(A: FpMatrix, shape: FlagShape) -> Flag:
    """The flag spanned by the leading column blocks of an invertible matrix."""
    n = _require_square(A, shape)
    if A.rank() != n:
        raise ValidationError("matrix is singular")
    # the canonical bases of an invertible matrix's column prefixes are nested and of full rank
    bases = tuple(s_reduce(A.column_block(0, dim))[1] for dim in shape.d)
    return Flag._wrap(shape, A.p, bases)


def reduced_echelon_bases(n: int, e: int, p: int) -> Iterator[FpMatrix]:
    """Every n x e matrix in reduced column-echelon form, i.e. every
    e-dimensional subspace of F_p^n exactly once."""
    require_prime(p)
    n, e = require_int(n, "n", 0), require_int(e, "e", 0)
    for pivots in itertools.combinations(range(1, n + 1), e):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for j, s in enumerate(pivots)
            for i in range(s + 1, n + 1)
            if i not in pivot_set
        ]
        for values in itertools.product(range(p), repeat=len(free)):
            entries = [[0] * e for _ in range(n)]
            for j, s in enumerate(pivots):
                entries[s - 1][j] = 1
            for (i, j), v in zip(free, values):
                entries[i - 1][j] = v
            yield FpMatrix._wrap(p, tuple(map(tuple, entries)))


def _widen(span: set[tuple[int, ...]], vec: tuple[int, ...], p: int) -> set[tuple[int, ...]]:
    """The span of `span` and `vec` over F_p: every old vector plus each multiple of vec.

    >>> sorted(_widen({(0, 0)}, (1, 2), 3))
    [(0, 0), (1, 2), (2, 1)]
    >>> len(_widen(_widen({(0, 0, 0)}, (1, 0, 1), 2), (0, 1, 1), 2))
    4
    """
    return {tuple((a + c * b) % p for a, b in zip(old, vec)) for old in span for c in range(p)}


def enumerate_flags(shape: FlagShape, p: int, cap: int = DEFAULT_CAP) -> list[Flag]:
    """Brute-force list of all flags of the shape over F_p, in a fixed order.

    Each level lists its subspaces as `reduced_echelon_bases` yields them.
    From the second level on, each basis's span is built once, as the set of
    its p^dim vectors, and a basis of the level before lies in it exactly
    when all its columns do.  A chain extends by the bases whose spans hold
    its last one, in level order, so each pair is tested once however many
    chains end in the smaller basis.  Flags are built unchecked;
    test_enumerated_objects_match_public_constructors pins them.
    """
    require_instance(shape, FlagShape, "shape")
    require_prime(p)
    check_cap(cap, "flag enumeration", shape.nu,  # a monic degree-nu count at p: >= 2^nu
              lambda: flag_count_group_formula(shape, p))
    zero = (0,) * shape.n
    # each chain with the index of its last basis in that basis's level
    chains: list[tuple[tuple[FpMatrix, ...], int]] = [((), 0)]
    previous: list[FpMatrix] = []
    for dim in shape.d:
        level = list(reduced_echelon_bases(shape.n, dim, p))
        if previous:
            spans = []
            for big in level:
                span = {zero}
                for column in zip(*big.entries):
                    span = _widen(span, column, p)
                spans.append(span)
            above = [
                [k for k, span in enumerate(spans) if columns <= span]
                for columns in (set(zip(*small.entries)) for small in previous)
            ]
        else:
            above = [range(len(level))]
        chains = [(bases + (level[k],), k) for bases, j in chains for k in above[j]]
        previous = level
    return [Flag._wrap(shape, p, bases) for bases, _ in chains]


def flag_count_group_formula(shape: FlagShape, p: int) -> int:
    """Flag count as a quotient of group orders.

    |GL(n, F_p)| divided by the order of the block-upper-triangular
    subgroup; an exact integer.  Both orders are p^(n(n-1)/2) times a product
    of factors p^j - 1: j = 1..n for GL(n, F_p), and j = 1..e for each block
    of size e in the subgroup, whose unipotent part and diagonal blocks give
    p^(nu + sum e(e-1)/2) = p^(n(n-1)/2).  The power of p cancels, which
    leaves the q-multinomial at q = p, computed by `q_multinomial_at`.
    """
    require_instance(shape, FlagShape, "shape")
    require_prime(p)
    return q_multinomial_at(shape, p)


def enumerate_general_linear(n: int, p: int, cap: int = DEFAULT_CAP) -> Iterator[FpMatrix]:
    """All invertible n x n matrices over F_p, sorted by their entries.

    Built row by row: each row is a vector of F_p^n outside the span of the
    rows above it, taken in lex order, and `_widen` adds it to that span for
    the rows below.  The last row's span is never built.
    """
    require_prime(p)
    n = require_int(n, "matrix size", 0)
    check_cap(cap, "general linear group enumeration", n * (n - 1),  # each p^n - p^i >= 2^(n-1)
              lambda: math.prod(p**n - p**i for i in range(n)))
    vectors = list(itertools.product(range(p), repeat=n))

    def extend(rows: list[tuple[int, ...]], span: set[tuple[int, ...]]) -> Iterator[FpMatrix]:
        if len(rows) == n:
            yield FpMatrix._wrap(p, tuple(rows))
            return
        for vec in vectors:
            if vec not in span:
                yield from extend(rows + [vec], _widen(span, vec, p) if len(rows) < n - 1 else span)

    yield from extend([], {(0,) * n})
