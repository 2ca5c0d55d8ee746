"""Prime-field matrices, reduced column forms, and cell decompositions.

An invertible matrix, read in column blocks of sizes e_1, ..., e_{r+1},
determines a chain of nested subspaces (a flag).  Right-multiplying by the
block-upper-triangular subgroup fixes the flag, and each coset contains a
unique representative in a normal form indexed by an ordered set partition
of the row indices: each block's columns are in reduced column-echelon form
with pivot rows given by the block, and rows claimed by earlier blocks are
zeroed out.  The number of unconstrained entries of that normal form is the
cell dimension, and transporting the partition to a multiset word turns the
dimension into an inversion count.

Everything is exact arithmetic over F_p, p a prime below 2^64.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from operator import lt, mul
from typing import Iterator, NamedTuple, Sequence

from .errors import DEFAULT_CAP, ValidationError, check_cap, frozen
from .inversions import MultisetWord
from .polycore import IntPoly
from .qanalogue import FlagShape, q_multinomial


_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def _require_prime(p: int) -> None:
    """Reject p unless it is a prime below 2^64.

    Trial division by the primes up to 37 decides every p < 37^2; above
    that, a strong-probable-prime test to those twelve bases (deterministic
    Miller-Rabin) is exact for every p < 2^64.
    """
    if p in _SMALL_PRIMES:
        return
    if p >= 1 << 64:
        raise ValidationError(f"modulus must be below 2^64, got {p}")
    composite = p < 2 or any(p % q == 0 for q in _SMALL_PRIMES)
    if composite or (p >= 37 * 37 and not _strong_probable_prime(p)):
        raise ValidationError(f"modulus must be prime, got {p}")


def _strong_probable_prime(p: int) -> bool:
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@frozen
class FpMatrix:
    """A matrix over F_p, entries stored row-major as reduced residues."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, p: int, rows: Sequence[Sequence[int]]):
        _require_prime(p)
        data = tuple(tuple(int(x) % p for x in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValidationError("ragged rows in matrix")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", data)

    @classmethod
    def _wrap(cls, p: int, entries: tuple[tuple[int, ...], ...]) -> FpMatrix:
        """A matrix from equal-length tuples of residues mod p, p already checked.

        Results computed from matrices are built this way: their entries are
        reduced and the modulus is the operands', so the checks of the public
        constructor would find nothing.
        """
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "p", p)
        object.__setattr__(matrix, "entries", entries)
        return matrix

    @classmethod
    def identity(cls, p: int, n: int) -> FpMatrix:
        return cls(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def column_block(self, start: int, stop: int) -> FpMatrix:
        return FpMatrix._wrap(self.p, tuple(row[start:stop] for row in self.entries))

    def select_rows(self, indices: Sequence[int]) -> FpMatrix:
        return FpMatrix._wrap(self.p, tuple(self.entries[i] for i in indices))

    def hstack(self, other: FpMatrix) -> FpMatrix:
        self._check_modulus(other)
        if self.rows != other.rows:
            raise ValidationError("row counts differ in hstack")
        return FpMatrix._wrap(self.p, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def flip_rows(self) -> FpMatrix:
        return FpMatrix._wrap(self.p, self.entries[::-1])

    def reverse_columns(self) -> FpMatrix:
        return FpMatrix._wrap(self.p, tuple(row[::-1] for row in self.entries))

    def _check_modulus(self, other: FpMatrix) -> None:
        if self.p != other.p:
            raise ValidationError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: FpMatrix) -> FpMatrix:
        self._check_modulus(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("shape mismatch in matrix addition")
        p = self.p
        return FpMatrix._wrap(
            p,
            tuple(
                tuple((a + b) % p for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self) -> FpMatrix:
        p = self.p
        return FpMatrix._wrap(p, tuple(tuple(-x % p for x in row) for row in self.entries))

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
        """Rank by forward Gaussian elimination over F_p.

        Each row in turn is cleared at the pivot columns found so far, by
        multiples of the unscaled pivot rows; if anything is left, its first
        nonzero entry is a new pivot.  Nothing above a pivot is ever cleared.
        """
        p = self.p
        pivots: list[tuple[int, Sequence[int], int]] = []  # column, row, -1/pivot entry
        for row in self.entries:
            for col, top, minus_inv in pivots:
                f = row[col]
                if f:
                    f *= minus_inv
                    row = [(a + f * b) % p for a, b in zip(row, top)]
            for col, x in enumerate(row):
                if x:
                    pivots.append((col, row, p - pow(x, -1, p)))
                    break
        return len(pivots)

    def inverse(self) -> FpMatrix:
        """Gauss-Jordan inverse; rejects non-square or singular input."""
        n = self.rows
        if n != self.cols:
            raise ValidationError("only square matrices can be inverted")
        p = self.p
        work = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                raise ValidationError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            inv = pow(work[col][col], -1, p)
            work[col] = [(x * inv) % p for x in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    f = work[r][col]
                    work[r] = [(a - f * b) % p for a, b in zip(work[r], work[col])]
        return FpMatrix._wrap(p, tuple(tuple(row[n:]) for row in work))

    def solve(self, rhs: FpMatrix) -> FpMatrix:
        """X with self @ X = rhs, for square invertible self."""
        return self.inverse() @ rhs


def s_reduce(matrix: FpMatrix, anti: bool = False) -> tuple[tuple[int, ...], FpMatrix, FpMatrix]:
    """Reduced column-echelon form of a full-column-rank n x e matrix.

    Returns (s, M, g) with M = matrix @ g, g invertible e x e, and M in
    reduced form with strictly increasing 1-based pivot rows s: pivot
    entries are 1, pivot rows vanish outside their own column, and entries
    above each pivot (below, for the anti form) vanish.  The pivot sequence
    is an invariant of the column space.
    """
    if anti:
        s_flip, reduced, g = _s_reduce_straight(matrix.flip_rows())
        n = matrix.rows
        pivots = tuple(sorted(n + 1 - x for x in s_flip))
        return pivots, reduced.flip_rows().reverse_columns(), g.reverse_columns()
    return _s_reduce_straight(matrix)


def _s_reduce_straight(matrix: FpMatrix) -> tuple[tuple[int, ...], FpMatrix, FpMatrix]:
    n, e, p = matrix.rows, matrix.cols, matrix.p
    cols = [list(matrix.column(j)) for j in range(e)]
    gcols = [[1 if i == j else 0 for i in range(e)] for j in range(e)]
    pivots: list[int] = []
    for j in range(e):
        located = None
        for i in range(n):
            hit = next((c for c in range(j, e) if cols[c][i]), None)
            if hit is not None:
                located = (i, hit)
                break
        if located is None:
            raise ValidationError(f"matrix has rank below {e}, cannot column-reduce")
        row, c = located
        cols[j], cols[c] = cols[c], cols[j]
        gcols[j], gcols[c] = gcols[c], gcols[j]
        inv = pow(cols[j][row], -1, p)
        cols[j] = [(x * inv) % p for x in cols[j]]
        gcols[j] = [(x * inv) % p for x in gcols[j]]
        for c2 in range(e):
            if c2 != j and cols[c2][row]:
                f = cols[c2][row]
                cols[c2] = [(a - f * b) % p for a, b in zip(cols[c2], cols[j])]
                gcols[c2] = [(a - f * b) % p for a, b in zip(gcols[c2], gcols[j])]
        pivots.append(row + 1)
    return tuple(pivots), _from_columns(p, cols, n), _from_columns(p, gcols, e)


def _from_columns(p: int, columns: list[list[int]], nrows: int) -> FpMatrix:
    return FpMatrix._wrap(p, tuple(zip(*columns)) if columns else ((),) * nrows)


def is_parabolic_member(g: FpMatrix, shape: FlagShape) -> bool:
    """True iff g is invertible and block-upper-triangular for the shape's
    blocks, with invertible diagonal blocks."""
    n = shape.n
    if g.rows != n or g.cols != n:
        raise ValidationError(f"expected an {n}x{n} matrix")
    c = shape.cuts
    blocks = len(c) - 1
    for bi in range(blocks):
        for bj in range(bi):
            for i in range(c[bi], c[bi + 1]):
                for j in range(c[bj], c[bj + 1]):
                    if g.entry(i, j):
                        return False
    for bi in range(blocks):
        size = c[bi + 1] - c[bi]
        diag = g.select_rows(range(c[bi], c[bi + 1])).column_block(c[bi], c[bi + 1])
        if diag.rank() != size:
            return False
    return True


@frozen
class OrderedSetPartition:
    """A partition of [n] into labeled blocks of prescribed sizes."""

    shape: FlagShape
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, shape: FlagShape, blocks: Sequence[Sequence[int]]):
        data = tuple(tuple(map(int, b)) for b in blocks)
        sizes = shape.block_sizes
        if len(data) != len(sizes):
            raise ValidationError(f"expected {len(sizes)} blocks, got {len(data)}")
        for block, size in zip(data, sizes):
            if len(block) != size:
                raise ValidationError(f"block {block} should have {size} elements")
            if not all(map(lt, block, block[1:])):
                raise ValidationError(f"block {block} must be strictly increasing")
        # the sizes add up to n, so n distinct values in 1..n are exactly 1..n
        seen = set().union(*data)
        if len(seen) != shape.n or min(seen) < 1 or max(seen) > shape.n:
            raise ValidationError("blocks must partition 1..n")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", data)


def enumerate_partitions(shape: FlagShape, cap: int = DEFAULT_CAP) -> Iterator[OrderedSetPartition]:
    """Every ordered set partition with the shape's block sizes, lex order.

    Each block but the last is a choice of positions among the elements not
    yet placed; the choices and the positions each leaves over depend only on
    the block's level, so they are listed once per level.  The last block
    takes what is left.
    """
    check_cap(shape.multinomial(), cap, "ordered set partition enumeration")
    splits = []
    left = shape.n
    for size in shape.block_sizes[:-1]:
        positions = range(left)
        splits.append([
            (chosen, tuple(i for i in positions if i not in chosen))
            for chosen in itertools.combinations(positions, size)
        ])
        left -= size

    def rec(remaining: tuple[int, ...], level: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if level == len(splits):
            yield (remaining,)
            return
        pick = remaining.__getitem__
        for chosen, rest in splits[level]:
            first = tuple(map(pick, chosen))
            for tail in rec(tuple(map(pick, rest)), level + 1):
                yield (first,) + tail

    for blocks in rec(tuple(range(1, shape.n + 1)), 0):
        yield OrderedSetPartition(shape, blocks)


class SigmaStats(NamedTuple):
    perm: tuple[int, ...]          # position -> element, reading blocks in order
    mu: tuple[int, ...]            # position -> 1-based block index
    delta: tuple[int, ...]         # per-position free-entry counts
    lam: int                       # total cell dimension


def cell_free_rows(sigma: OrderedSetPartition, anti: bool = False) -> tuple[tuple[int, ...], ...]:
    """Per column of the normal form, the rows left unconstrained.

    Column j has its pivot at row perm[j]; rows belonging to blocks up to
    and including j's block are pinned, and of the remaining rows only
    those below the pivot (above, for the anti form) are free: a slice of
    the sorted pool of remaining rows, cut where the pivot would sit.  The
    pools are built from the last block back, each merging one block into
    the next pool.
    """
    out: list[tuple[int, ...]] = []
    pool: tuple[int, ...] = ()  # the rows of the blocks after the current one
    for block in reversed(sigma.blocks):
        for v in reversed(block):
            out.append(pool[: bisect_left(pool, v)] if anti else pool[bisect_right(pool, v) :])
        pool = tuple(sorted(pool + block))
    out.reverse()
    return tuple(out)


def sigma_stats(sigma: OrderedSetPartition) -> SigmaStats:
    """The derived permutation, block map, and cell-dimension statistics.

    delta[j] counts the rows `cell_free_rows` lists for column j, the rows
    of later blocks below perm[j], by bisecting the sorted pool of them.
    """
    perm = tuple(v for block in sigma.blocks for v in block)
    mu = tuple(m for m, block in enumerate(sigma.blocks, start=1) for _ in block)
    delta: list[int] = []
    pool: list[int] = []  # the rows of the blocks after the current one, sorted
    for block in reversed(sigma.blocks):
        delta[:0] = [len(pool) - bisect_right(pool, v) for v in block]
        pool = sorted(pool + list(block))
    return SigmaStats(perm, mu, tuple(delta), sum(delta))


def theta_word(sigma: OrderedSetPartition) -> MultisetWord:
    """Transport the partition to a multiset word, mirroring the elements.

    Position i receives the index of the block containing element n - i + 1.
    The map is a bijection onto the words of the shape's block content, and
    the word's inversion count equals the cell dimension lam(sigma): both
    count element pairs u < v with v in a strictly later block than u.
    """
    n = sigma.shape.n
    member = [0] * (n + 1)
    for ell, block in enumerate(sigma.blocks, start=1):
        for v in block:
            member[v] = ell
    letters = tuple(member[n - i + 1] for i in range(1, n + 1))
    return MultisetWord(letters, sigma.shape)


@frozen
class CellForm:
    """An invertible matrix in the normal form attached to a partition."""

    sigma: OrderedSetPartition
    matrix: FpMatrix
    anti: bool

    def __init__(self, sigma: OrderedSetPartition, matrix: FpMatrix, anti: bool = False):
        n = sigma.shape.n
        if matrix.rows != n or matrix.cols != n:
            raise ValidationError(f"cell form must be {n}x{n}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "anti", bool(anti))

    def free_rows(self) -> tuple[tuple[int, ...], ...]:
        return cell_free_rows(self.sigma, self.anti)

    def free_entry_count(self) -> int:
        return sum(len(rows) for rows in self.free_rows())

    def matches_pattern(self) -> bool:
        """Entry check: 1 on the pivot, arbitrary on free rows, 0 elsewhere."""
        perm = sigma_stats(self.sigma).perm
        free = self.free_rows()
        for j in range(self.sigma.shape.n):
            pivot = perm[j]
            free_set = set(free[j])
            for i in range(1, self.sigma.shape.n + 1):
                v = self.matrix.entry(i - 1, j)
                if i == pivot:
                    if v != 1:
                        return False
                elif i not in free_set and v != 0:
                    return False
        return True


def cell_form(
    A: FpMatrix, shape: FlagShape, anti: bool = False
) -> tuple[OrderedSetPartition, CellForm, FpMatrix]:
    """The unique normal form in the coset of A.

    Proceeds block by block: correct the current column block by earlier
    reduced blocks so that all previously claimed pivot rows vanish, then
    column-reduce what is left.  Returns (sigma, form, g) with
    form.matrix = A @ g and g block-upper-triangular.
    """
    n = shape.n
    if A.rows != n or A.cols != n:
        raise ValidationError(f"expected an {n}x{n} matrix")
    A_inverse = A.inverse()  # raises "matrix is singular"
    cuts = shape.cuts
    stacked: FpMatrix | None = None  # the reduced blocks so far, side by side
    sigma_blocks: list[tuple[int, ...]] = []
    claimed: list[int] = []  # pivot rows in block order, 1-based
    for m in range(shape.r + 1):
        block = A.column_block(cuts[m], cuts[m + 1])
        if stacked is not None:
            rows0 = [x - 1 for x in claimed]
            # stacked restricted to claimed rows is unitriangular by blocks,
            # so the correction below always has a unique solution
            correction = stacked.select_rows(rows0).solve(-block.select_rows(rows0))
            block = block + stacked @ correction
        pivots, reduced, _ = s_reduce(block, anti=anti)
        stacked = reduced if stacked is None else stacked.hstack(reduced)
        sigma_blocks.append(pivots)
        claimed.extend(pivots)
    sigma = OrderedSetPartition(shape, tuple(sigma_blocks))
    g = A_inverse @ stacked
    return sigma, CellForm(sigma, stacked, anti), g


def cell_sum_poly(shape: FlagShape, anti: bool = False, cap: int = DEFAULT_CAP) -> IntPoly:
    """Generating polynomial of cell dimensions over all partitions of the shape."""
    hist = [0] * (shape.nu + 1)
    for sigma in enumerate_partitions(shape, cap=cap):
        hist[sum(len(rows) for rows in cell_free_rows(sigma, anti))] += 1
    return IntPoly(hist)


def tau_for_lambda(n: int, d1: int, k: int) -> OrderedSetPartition:
    """A two-block partition whose cell dimension is exactly k.

    Writing k = a*e2 + b with 0 <= b < e2, the first block takes 1..a, the
    top e1-a-1 values, and the single value n - e1 + a + 1 - b.
    """
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
    first_sorted = tuple(sorted(first))
    second = tuple(x for x in range(1, n + 1) if x not in set(first_sorted))
    return OrderedSetPartition(shape, (first_sorted, second))


@frozen
class Flag:
    """A chain of nested subspaces, stored by canonical echelon bases."""

    shape: FlagShape
    p: int
    bases: tuple[FpMatrix, ...]

    def __init__(self, shape: FlagShape, p: int, bases: Sequence[FpMatrix]):
        _require_prime(p)
        data = tuple(bases)
        if len(data) != shape.r:
            raise ValidationError(f"expected {shape.r} subspaces, got {len(data)}")
        previous: FpMatrix | None = None
        for dim, basis in zip(shape.d, data):
            if basis.p != p or basis.rows != shape.n or basis.cols != dim:
                raise ValidationError("basis dimensions do not match the shape")
            if basis.rank() != dim:
                raise ValidationError("basis matrix is rank deficient")
            if previous is not None and basis.hstack(previous).rank() != dim:
                raise ValidationError("subspaces are not nested")
            previous = basis
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "bases", data)


def phi_flag(A: FpMatrix, shape: FlagShape) -> Flag:
    """The flag spanned by the leading column blocks of an invertible matrix."""
    n = shape.n
    if A.rows != n or A.cols != n:
        raise ValidationError(f"expected an {n}x{n} matrix")
    if A.rank() != n:
        raise ValidationError("matrix is singular")
    bases = []
    for dim in shape.d:
        _, canonical, _ = s_reduce(A.column_block(0, dim))
        bases.append(canonical)
    return Flag(shape, A.p, tuple(bases))


def reduced_echelon_bases(n: int, e: int, p: int) -> Iterator[FpMatrix]:
    """Every n x e matrix in reduced column-echelon form, i.e. every
    e-dimensional subspace of F_p^n exactly once."""
    _require_prime(p)
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


def _pivot_rows(big: FpMatrix) -> list[int]:
    """0-based row of the first nonzero entry of each column."""
    rows = big.entries
    return [next(i for i, row in enumerate(rows) if row[j]) for j in range(big.cols)]


def _contains(big: FpMatrix, pivots: Sequence[int], small: FpMatrix) -> bool:
    """True iff every column of `small` lies in the column span of `big`.

    `big` must be in reduced column-echelon form, as `reduced_echelon_bases`
    yields it, with `pivots = _pivot_rows(big)`: column j's first nonzero
    entry is a 1 on row pivots[j], where every other column is 0.  So a
    vector lies in the span iff it equals the combination of big's columns
    weighted by its own pivot-row entries.
    """
    p, rows = big.p, big.entries
    for column in zip(*small.entries):
        weights = [column[i] for i in pivots]
        for row, x in zip(rows, column):
            if (sum(map(mul, weights, row)) - x) % p:
                return False
    return True


def enumerate_flags(shape: FlagShape, p: int, cap: int = DEFAULT_CAP) -> list[Flag]:
    """Brute-force list of all flags of the shape over F_p, in a fixed order.

    Every basis of each level is tested against every basis of the level
    before; a chain extends by the bases that contain its last one, so each
    pair is tested once however many chains end in the smaller basis.
    """
    _require_prime(p)
    check_cap(q_multinomial(shape).eval_at(p), cap, "flag enumeration")
    # each chain with the index of its last basis in that basis's level
    chains: list[tuple[tuple[FpMatrix, ...], int]] = [((), 0)]
    previous: list[FpMatrix] = []
    for dim in shape.d:
        level = list(reduced_echelon_bases(shape.n, dim, p))
        if previous:
            pivots = [_pivot_rows(big) for big in level]
            above = [
                [k for k, big in enumerate(level) if _contains(big, pivots[k], small)]
                for small in previous
            ]
        else:
            above = [range(len(level))]
        chains = [(bases + (level[k],), k) for bases, j in chains for k in above[j]]
        previous = level
    return [Flag(shape, p, bases) for bases, _ in chains]


def flag_count_group_formula(shape: FlagShape, p: int) -> int:
    """Flag count as a quotient of group orders.

    |GL(n, F_p)| divided by the order of the block-upper-triangular
    subgroup; an exact integer.
    """
    _require_prime(p)
    n = shape.n
    gl_order = math.prod(p**n - p**i for i in range(n))
    parabolic = math.prod(
        math.prod(p**e - p**j for j in range(e)) for e in shape.block_sizes
    ) * p**shape.nu
    if gl_order % parabolic:
        raise RuntimeError("group order is not divisible by parabolic order")
    return gl_order // parabolic


def enumerate_general_linear(n: int, p: int, cap: int = DEFAULT_CAP) -> Iterator[FpMatrix]:
    """All invertible n x n matrices over F_p, sorted by their entries.

    Built row by row, each new row taken from outside the span of the
    rows before it; the last row ends the matrix, so its span is never built.
    """
    _require_prime(p)
    order = math.prod(p**n - p**i for i in range(n))
    check_cap(order, cap, "general linear group enumeration")
    vectors = list(itertools.product(range(p), repeat=n))

    def extend(rows: list[tuple[int, ...]], span: set[tuple[int, ...]]) -> Iterator[FpMatrix]:
        if len(rows) == n:
            yield FpMatrix._wrap(p, tuple(rows))
            return
        for vec in vectors:
            if vec in span:
                continue
            if len(rows) == n - 1:  # the last row's span would never be read
                yield FpMatrix._wrap(p, (*rows, vec))
                continue
            larger = {
                tuple((a + c * b) % p for a, b in zip(old, vec))
                for old in span
                for c in range(p)
            }
            yield from extend(rows + [vec], larger)

    zero = tuple([0] * n)
    yield from extend([], {zero})
