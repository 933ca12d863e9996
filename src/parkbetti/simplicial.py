"""Face families of finite simplicial complexes and exact reduced homology.

A complex is passed around as its face family, a plain dict
{dimension: [sorted index tuples]}; no complex type is stored. Two
degenerate cases are distinguished: the void complex, {} (no faces at
all, zero homology everywhere), and the empty complex, {-1: [()]} (whose
only face is the empty one, carrying one unit of reduced homology in
degree -1). Homology ranks are computed over a prime field or, for
characteristic 0, over the rationals.

A family need not be downward closed: a complex minus a subcomplex (a
relative family, such as the ones ``homology.relative_faces`` builds,
relative to the star of one vertex) spans its relative chain complex,
because the boundary terms that fall outside the family are the ones that
vanish in the quotient. The core has one reduction path: the boundary maps
are assembled and reduced bottom-up by one sparse integer elimination that
pivots on every +-1 entry it can reach, filling in entries as it goes, and
the faces that were pivot columns of one map, fill-in pivots included, are
cleared from the rows of the next (clearing, as in Bauer-Kerber-Reininghaus
and Ripser). A map with no rows or no columns is never assembled. Only the
entries no unit pivot can remove, such as RP2's 2-torsion, are left; they
are exact Python ints of any size, ranked on Python ints, which never wrap:
by row echelon elimination mod p for every prime p < 2^31, and by
fraction-free (Bareiss) elimination over the rationals.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush


def _unit_eliminate(rows: list[dict[int, int]], col_rows: list[set[int]]):
    """Sparse integer elimination on unit pivots, in place.

    The matrix is given twice: ``rows`` as {column: entry} dicts of nonzero
    integers, one per row, and ``col_rows`` as the set of rows holding an
    entry, one per column. Each step takes the shortest live column, from a
    lazily updated heap of column counts, and in it the shortest row
    holding a +-1 entry. That entry is cleared from the other rows of its
    column by integer row operations, which may fill in entries, and its row
    and column are deleted. A column with no unit entry is passed over until
    a row operation changes it: deleting a row only removes entries, so it
    never makes a unit. Singleton rows and columns are the pivots that fill
    in nothing. No step scans the whole matrix.

    Returns the pivot columns, in pivot order, and the entries no unit pivot
    can remove, on the rows and columns that hold them, as a list of rows of
    exact Python ints (empty when nothing is left). Every pivot is a
    unit and every row operation has integer factors, so the steps are the
    same over the integers and every field, the pivot block has determinant
    +-1, and the rank over any field is the pivot count plus the rank of
    what is left."""
    # heap keys are count * stride + column: one int compares faster than a pair
    stride = len(col_rows)
    heap = [len(live) * stride + c for c, live in enumerate(col_rows) if live]
    heapify(heap)
    pivots: list[int] = []
    while heap:
        count, c = divmod(heappop(heap), stride)
        live = col_rows[c]
        if live is None:
            continue
        if count != len(live):
            if live:
                heappush(heap, len(live) * stride + c)
            continue
        if count == 1:  # most pivots are singleton columns: no search
            (r,) = live
            if rows[r][c] not in (1, -1):
                continue
        else:
            r = min(
                (r for r in live if rows[r][c] in (1, -1)),
                key=lambda r: len(rows[r]),
                default=None,
            )
            if r is None:
                continue
        pivot_row = rows[r]
        unit = pivot_row.pop(c)
        for r2 in live:
            if r2 == r:
                continue
            row = rows[r2]
            f = row.pop(c) * unit
            for c2, v in pivot_row.items():
                new = row.get(c2, 0) - f * v
                if new:
                    row[c2] = new
                    col_rows[c2].add(r2)
                else:
                    del row[c2]
                    col_rows[c2].discard(r2)
        col_rows[c] = None
        pivots.append(c)
        # a count that only fell is fixed when its old key comes up, but a
        # new singleton is keyed at once; a filled column may have gained
        # a unit, so it is keyed again too
        filled = count > 1
        for c2 in pivot_row:
            live = col_rows[c2]
            live.discard(r)
            n = len(live)
            if n == 1 or filled and n:
                heappush(heap, n * stride + c2)
        rows[r] = {}
    left = [row for row in rows if row]
    kept = sorted({c for row in left for c in row})
    return pivots, [[row.get(c, 0) for c in kept] for row in left]


def homology_from_faces_multi(
    faces: dict[int, list[tuple[int, ...]]], chars
) -> dict[int, dict[int, int]]:
    """Homology dimensions per characteristic of the augmented chain complex
    spanned by an explicit face family.

    For a downward-closed family (a complex) these are its reduced homology
    dimensions. The family may also be relative, a complex minus a
    subcomplex: boundary terms that fall outside the family are dropped,
    which is the boundary of the quotient complex, so the dimensions are
    those of the relative homology.

    The boundary maps B_0, B_1, ... (B_d takes d-faces to (d-1)-faces; B_0
    is the augmentation) are assembled and reduced by unit pivots with
    fill-in (``_unit_eliminate``) from the bottom up, once for all
    characteristics; only the entries no unit pivot removes are ranked, per
    characteristic. A map with no rows or no columns has rank 0 and is not
    assembled, so a family in one dimension is never assembled at all. The
    d-faces that were pivot columns of B_d are cleared from the rows of
    B_{d+1}: the pivot block of B_d is invertible over the integers and
    B_d B_{d+1} = 0, which holds in the quotient complex as in any chain
    complex, so those rows are integer combinations of the kept ones and
    the rank of B_{d+1} is the same over every field."""
    for c in chars:
        _check_char(c)
    if not faces:
        return {c: {} for c in chars}
    top = max(faces)
    ranks: dict[int, dict[int, int]] = {c: {} for c in chars}
    row_of = {f: i for i, f in enumerate(faces.get(-1, ()))}
    for d in range(0, top + 1):
        cells = faces.get(d, [])
        if not (cells and row_of):
            row_of = {f: i for i, f in enumerate(cells)}
            continue
        rows: list[dict[int, int]] = [{} for _ in row_of]
        col_rows = []
        drops = [(k, -1 if k % 2 else 1) for k in range(d + 1)]
        for j, f in enumerate(cells):
            live = set()
            for k, sign in drops:
                r = row_of.get(f[:k] + f[k + 1:])
                if r is not None:
                    rows[r][j] = sign
                    live.add(r)
            col_rows.append(live)
        pivots, core = _unit_eliminate(rows, col_rows)
        for c in chars:
            ranks[c][d] = len(pivots) + (rank_over(core, c) if core else 0)
        cleared = set(pivots)
        row_of = {f: i for i, f in enumerate(f for j, f in enumerate(cells) if j not in cleared)}
    return {
        c: {d: len(faces.get(d, ())) - r.get(d, 0) - r.get(d + 1, 0) for d in range(-1, top + 1)}
        for c, r in ranks.items()
    }


def rank_over(matrix, char: int) -> int:
    """Matrix rank over GF(char) for a prime char < 2^31, or exactly over
    the rationals for char = 0. ``matrix`` is any sequence of integer rows,
    whose entries may be of any size: it is ranked on Python ints, by row
    echelon elimination mod char, or by Bareiss elimination for char 0."""
    _check_char(char)
    return bareiss(matrix)[0] if char == 0 else _rank_mod_p(matrix, char)


def _rank_mod_p(rows, p: int) -> int:
    """Row-echelon rank over GF(p), on Python ints reduced into [0, p)."""
    a = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        lead = top[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            if f:
                a[i] = [(x * lead - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
    return rank


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free Gaussian elimination over the integers (Bareiss).

    Returns the rank and the last pivot, negated once per row swap. Every
    division is exact, and for a square matrix of full rank the signed last
    pivot is its determinant."""
    a = [[int(x) for x in row] for row in rows]
    rank, sign, prev = 0, 1, 1
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        lead = top[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            a[i] = [(x * lead - f * y) // prev for x, y in zip(a[i], top)]
        prev = lead
        rank += 1
    return rank, sign * prev


@lru_cache(maxsize=None)
def _check_char(char: int) -> None:
    # the bound also keeps the trial division of _is_prime short
    if char != 0 and not (char < 1 << 31 and _is_prime(char)):
        raise ValueError(f"characteristic must be 0 or a prime below 2^31, got {char}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True
