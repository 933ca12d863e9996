"""Face families of finite simplicial complexes and exact reduced homology.

A complex is passed around as its face family, a plain dict
{dimension: [sorted index tuples]}; no complex type is stored. A complex
given by generating facets becomes such a dict through ``faces_by_dim``.
Two degenerate cases are distinguished: the void complex, {} (no faces at
all, zero homology everywhere), and the empty complex, {-1: [()]} (whose
only face is the empty one, carrying one unit of reduced homology in
degree -1). Homology ranks are computed over a prime field or, for
characteristic 0, over the rationals.

A family need not be downward closed: a complex minus a subcomplex (a
relative family, such as the crosscut complex of an lcm-lattice interval
taken relative to the star of one atom) spans its relative chain complex,
because the boundary terms that fall outside the family are the ones that
vanish in the quotient. The core has one reduction path: the boundary maps
are assembled and reduced bottom-up, unit pivots first, and the faces that
were pivot columns of one map are cleared from the rows of the next
(clearing, as in Bauer-Kerber-Reininghaus and Ripser). What is left is a
small dense core, ranked by one int64 elimination for every prime
p < 2^31, or by fraction-free (Bareiss) elimination over the rationals.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations

import numpy as np


def faces_by_dim(facets) -> dict[int, list[tuple[int, ...]]]:
    """Every face of the complex generated by ``facets`` (vertex
    collections), as sorted index tuples grouped by dimension, each
    dimension in lexicographic order; the empty face sits at -1. No facets
    give the void complex, {}; the facet () alone gives the empty complex,
    {-1: [()]}. Facets need not be maximal."""
    grouped: dict[int, set] = {}
    for f in {tuple(sorted(set(f))) for f in facets}:
        for r in range(len(f) + 1):
            grouped.setdefault(r - 1, set()).update(combinations(f, r))
    return {d: sorted(fs) for d, fs in sorted(grouped.items())}


def _unit_pivot_reduce(rows, cols, signs, n_rows: int, n_cols: int):
    """Structural rank reduction on a sparse pattern with unit entries.

    A row or column holding exactly one surviving nonzero (always a unit
    here) can be pivoted away by deleting its row and column; no other entry
    changes, so the step is exact over every field. Cascading these pivots
    returns their columns, in pivot order, plus the dense residual core.
    Each pivot is alone in its row or its column among the rows and columns
    still alive, so the pivot block has determinant +-1."""
    entry_alive = [True] * len(rows)
    row_entries: list[list[int]] = [[] for _ in range(n_rows)]
    col_entries: list[list[int]] = [[] for _ in range(n_cols)]
    for e, (r, c) in enumerate(zip(rows, cols)):
        row_entries[r].append(e)
        col_entries[c].append(e)
    row_count = [len(es) for es in row_entries]
    col_count = [len(es) for es in col_entries]
    row_alive = [True] * n_rows
    col_alive = [True] * n_cols
    queue = deque()
    for r in range(n_rows):
        if row_count[r] == 1:
            queue.append((0, r))
    for c in range(n_cols):
        if col_count[c] == 1:
            queue.append((1, c))
    pivots: list[int] = []

    def kill(r: int, c: int):
        row_alive[r] = False
        col_alive[c] = False
        for e in row_entries[r]:
            if entry_alive[e]:
                entry_alive[e] = False
                cc = cols[e]
                col_count[cc] -= 1
                if col_alive[cc] and col_count[cc] == 1:
                    queue.append((1, cc))
        for e in col_entries[c]:
            if entry_alive[e]:
                entry_alive[e] = False
                rr = rows[e]
                row_count[rr] -= 1
                if row_alive[rr] and row_count[rr] == 1:
                    queue.append((0, rr))

    while queue:
        kind, idx = queue.popleft()
        if kind == 0:
            if not row_alive[idx] or row_count[idx] != 1:
                continue
            e = next(e for e in row_entries[idx] if entry_alive[e])
            pivots.append(cols[e])
            kill(idx, cols[e])
        else:
            if not col_alive[idx] or col_count[idx] != 1:
                continue
            e = next(e for e in col_entries[idx] if entry_alive[e])
            pivots.append(idx)
            kill(rows[e], idx)

    live_rows = [r for r in range(n_rows) if row_alive[r] and row_count[r] > 0]
    live_cols = [c for c in range(n_cols) if col_alive[c] and col_count[c] > 0]
    row_pos = {r: i for i, r in enumerate(live_rows)}
    col_pos = {c: i for i, c in enumerate(live_cols)}
    core = np.zeros((len(live_rows), len(live_cols)), dtype=np.int64)
    for e, alive in enumerate(entry_alive):
        if alive:
            core[row_pos[rows[e]], col_pos[cols[e]]] = signs[e]
    return pivots, core


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
    is the augmentation) are assembled and unit-pivot reduced from the
    bottom up, once for all characteristics; only the dense cores are
    ranked per characteristic. The d-faces that were pivot columns of B_d
    are cleared from the rows of B_{d+1}: the pivot block of B_d is
    invertible over the integers and B_d B_{d+1} = 0, which holds in the
    quotient complex as in any chain complex, so those rows are
    combinations of the kept ones and the rank of B_{d+1} is the same over
    every field."""
    for c in chars:
        _check_char(c)
    if not faces:
        return {c: {} for c in chars}
    top = max(faces)
    ranks: dict[int, dict[int, int]] = {c: {} for c in chars}
    row_of = {f: i for i, f in enumerate(faces.get(-1, ()))}
    for d in range(0, top + 1):
        cells = faces.get(d, [])
        rows_ix, cols_ix, signs = [], [], []
        for j, f in enumerate(cells):
            for k in range(len(f)):
                r = row_of.get(f[:k] + f[k + 1:])
                if r is not None:
                    rows_ix.append(r)
                    cols_ix.append(j)
                    signs.append(-1 if k % 2 else 1)
        pivots, core = _unit_pivot_reduce(rows_ix, cols_ix, signs, len(row_of), len(cells))
        for c in chars:
            ranks[c][d] = len(pivots) + (rank_over(core, c) if core.size else 0)
        cleared = set(pivots)
        row_of = {f: i for i, f in enumerate(f for j, f in enumerate(cells) if j not in cleared)}
    return {
        c: {d: len(faces.get(d, ())) - r.get(d, 0) - r.get(d + 1, 0) for d in range(-1, top + 1)}
        for c, r in ranks.items()
    }


def rank_over(matrix: np.ndarray, char: int) -> int:
    """Matrix rank over GF(char) for a prime char < 2^31, or exactly over
    the rationals for char = 0."""
    _check_char(char)
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.size == 0:
        return 0
    if char == 0:
        return bareiss(matrix.tolist())[0]
    return _rank_mod_p(matrix, char)


def _rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Row-echelon rank over GF(p) in int64. Entries stay in [0, p), so no
    product exceeds (p - 1)^2 < 2^62 for p < 2^31."""
    a = np.mod(matrix, p)
    if a.shape[1] > a.shape[0]:
        a = np.ascontiguousarray(a.T)
    rank = 0
    for col in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, col])
        if below.size:
            a[below, col:] = (a[below, col:] - np.outer(a[below, col], a[rank, col:])) % p
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
