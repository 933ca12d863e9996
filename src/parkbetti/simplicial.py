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
takes the columns in index order and pivots each on its shortest row with
a +-1 entry, filling in entries as it goes, and the faces that were pivot
columns of one map are cleared from the rows of the next (clearing, as in
Bauer-Kerber-Reininghaus and Ripser). A map with no rows or no columns is
never assembled. Only the entries no unit pivot removed, such as RP2's
2-torsion, are left; they are exact Python ints of any size, ranked on
Python ints, which never wrap, by one fraction-free (Bareiss) elimination:
over GF(p) for every prime p < 2^31, and exactly over the rationals.
"""

from __future__ import annotations

from functools import lru_cache


def _unit_eliminate(rows: list[dict[int, int]], col_rows: list[set[int]]):
    """Sparse integer elimination on unit pivots, in place.

    The matrix is given twice: ``rows`` as {column: entry} dicts of nonzero
    integers, one per row, and ``col_rows`` as the set of rows holding an
    entry, one per column. The columns are taken in index order. In each,
    the shortest row holding a +-1 entry is the pivot: that entry is
    cleared from the other rows of its column by integer row operations,
    which may fill in entries, and the pivot row is deleted from the row
    sets of its other columns. A column that holds entries but no +-1 at
    its turn is passed over; a later pivot's fill-in can make a unit in it
    (rows [1, 1, 0], [1, -2, 1], [0, -2, 1] do), so the passed columns are
    taken again, in order, until a pass makes no pivot. What is left holds
    no +-1 entry and is ranked as the leftover. No step scans the whole
    matrix.

    The families reduced here come from strong-collapse cores, and on them
    no column is passed over with entries left: fill-in makes entries of
    absolute value 2 or more (946 in ``verify_graph`` of K7), but each
    cancels before its column's turn, over ``verify_graph`` of the 401-graph
    acceptance corpus, the 112 six-vertex graphs and K7. The shortest unit
    row and clearing (in ``homology_from_faces_multi``) both pay: on K7's
    reductions, the first unit row instead of the shortest, or no clearing,
    each takes more than three times as long (``BENCH_28.json``).

    Returns the pivot columns, in pivot order, and the entries no unit pivot
    removed, on the rows and columns that hold them, as a list of rows of
    exact Python ints (empty when nothing is left). Every pivot is a
    unit and every row operation has integer factors, so the steps are the
    same over the integers and every field, the pivot block has determinant
    +-1, and the rank over any field is the pivot count plus the rank of
    what is left."""
    pivots: list[int] = []
    todo = range(len(col_rows))
    while todo:
        passed, made = [], len(pivots)
        for c in todo:
            live = col_rows[c]
            r = min(
                (r for r in live if rows[r][c] in (1, -1)),
                key=lambda r: len(rows[r]),
                default=None,
            )
            if r is None:
                if live:
                    passed.append(c)
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
            for c2 in pivot_row:
                col_rows[c2].discard(r)
            pivots.append(c)
            rows[r] = {}
        # a later pivot's fill-in may have made a unit in a passed column
        todo = passed if len(pivots) > made else ()
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
    whose entries may be of any size: it is ranked on Python ints by
    ``bareiss``."""
    _check_char(char)
    return bareiss(matrix, char)[0]


def bareiss(rows, p: int = 0) -> tuple[int, int]:
    """Fraction-free Gaussian elimination (Bareiss), over the integers for
    p = 0 and over GF(p) for a prime p, with entries kept in [0, p).

    Returns the rank and the last pivot, negated once per row swap. Over
    the integers each step divides exactly by the previous pivot, and for a
    square matrix of full rank the signed last pivot is its determinant.
    Over GF(p) no step divides: each row operation scales a row by a
    nonzero pivot, which keeps the rank."""
    if p:
        a = [[int(x) % p for x in row] for row in rows]
    else:
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
            if not p:
                a[i] = [(x * lead - f * y) // prev for x, y in zip(a[i], top)]
            elif f:
                a[i] = [(x * lead - f * y) % p for x, y in zip(a[i], top)]
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
