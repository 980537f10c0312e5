"""Exact Gaussian elimination over small finite fields.

Matrices are tuples of row tuples; entries are base ints handled through an
ops object (`field._BaseOps`: inv, neg and the row helpers scale_row and
sub_row).  Pivoting is fixed (leftmost column, lowest row index) so reduced
echelon forms are canonical and runs are reproducible.
"""

from __future__ import annotations


def rref(rows, ops):
    """Reduced row echelon form and its pivot columns."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r] = ops.scale_row(ops.inv(mat[r][c]), mat[r])
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                mat[i] = ops.sub_row(mat[i], mat[i][c], mat[r])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = tuple(tuple(row) for row in mat[:r])
    return out, tuple(pivots)


def solve(rows, rhs, ops):
    """All solutions of rows . v = rhs, read off one RREF of the augmented matrix.

    Returns (one solution, kernel basis), or None if the system is
    inconsistent.  The solution is 0 at every free column; the kernel basis
    has one vector per free column, in column order, and is not reduced
    (`ore.Subspace.from_vectors` makes it canonical).
    """
    ncols = len(rows[0]) if rows else 0
    aug = tuple(tuple(row) + (b,) for row, b in zip(rows, rhs))
    red, pivots = rref(aug, ops)
    if ncols in pivots:
        return None
    v = [0] * ncols
    for r, pc in enumerate(pivots):
        v[pc] = red[r][ncols]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        u = [0] * ncols
        u[fc] = 1
        for r, pc in enumerate(pivots):
            u[pc] = ops.neg(red[r][fc])
        basis.append(tuple(u))
    return tuple(v), tuple(basis)
