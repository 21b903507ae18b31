"""Exact linear-algebra oracles for the tests, independent of toricq's
fraction-free kernel: a cofactor determinant and a Fraction Gauss-Jordan
elimination.  Both accept ints or Fractions."""

from fractions import Fraction


def cofactor_det(rows):
    """Determinant of a square matrix by cofactor expansion along the first
    row; 1 for the empty matrix."""
    if not rows:
        return 1
    return sum((-1) ** j * c * cofactor_det([r[:j] + r[j + 1:]
                                              for r in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


def gauss_jordan(rows, ncols):
    """Reduced row echelon form on the first ncols columns, in Fractions:
    (rows, pivot columns).  Columns past ncols are carried along."""
    M = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [e / M[r][col] for e in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(col)
    return M, pivots
