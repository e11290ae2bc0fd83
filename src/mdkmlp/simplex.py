"""Exact vertex of an LP basis, over Fractions.

This is the fallback behind the LP toolkit: the fast path rounds HiGHS's
float optimum to small rationals and certifies the guess exactly; when that
fails, :func:`exact_simplex` solves the basis HiGHS ended on, exactly, and
the toolkit certifies that pair instead (after Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", ORL 2007, and
Gleixner, Steffy & Wolter, "Iterative refinement for linear programming",
INFORMS JoC 2016). The LP's rows are integer (A and b); only the objective
c may be rational. With B the basic columns and R the rows whose slack is
nonbasic (the tight rows), it solves A[R, B] x_B = b[R] and
A[R, B]^T y_R = c_B by sparse Gaussian elimination; every other column of
x, and every other row's multiplier, is 0. The name is kept: the benchmark's
tracer counts its calls as the solves that needed the fallback.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple


def exact_simplex(
    lp, basic: Sequence[int], tight: Sequence[int]
) -> Optional[Tuple[Dict[int, Fraction], Dict[int, Fraction]]]:
    """The vertex and duals of a basis of ``lp``, a
    :class:`mdkmlp.lp_toolkit.LinearProgram`: ``basic`` its basic columns,
    ``tight`` its rows whose slack is nonbasic.

    Returns (x, y) on their supports, x by column and y by row, or None if
    the basis matrix A[tight, basic] is not square or is singular.
    """
    if len(basic) != len(tight):
        return None
    pos = {j: k for k, j in enumerate(basic)}
    primal = []  # A[tight, basic] x_B = b[tight], by row
    dual = [({}, lp.objective[j]) for j in basic]  # its transpose = c_B
    indptr, indices, coefs, rhs = lp.csr()
    starts, ends, bs = (a[tight].tolist() for a in (indptr[:-1], indptr[1:], rhs))
    cols, ints = indices.tolist(), coefs.tolist()
    for r, (s, e, b) in enumerate(zip(starts, ends, bs)):
        eq = {}
        for j, a in zip(cols[s:e], ints[s:e]):
            k = pos.get(j)
            if k is not None:
                eq[k] = a
                dual[k][0][r] = a
        primal.append((eq, b))
    xs, ys = _solve(primal), _solve(dual)
    if xs is None or ys is None:
        return None
    return (
        {basic[k]: v for k, v in xs.items() if v},
        {tight[r]: v for r, v in ys.items() if v},
    )


def _solve(eqs: List[Tuple[Dict[int, object], object]]) -> Optional[Dict[int, Fraction]]:
    """x with sum(a * x[k] for k, a in eq.items()) == r for each (eq, r)
    of n equations in the unknowns 0..n-1, or None if they are singular.
    The equations are consumed.

    Elimination takes next a remaining equation with the fewest nonzeros,
    and in it the unknown that occurs in the fewest remaining equations; the
    pivot equations, in order, are then solved back to front."""
    where: Dict[int, set] = {}  # unknown -> the remaining equations holding it
    for i, (eq, _) in enumerate(eqs):
        for k in eq:
            where.setdefault(k, set()).add(i)
    heap = [(len(eq), i) for i, (eq, _) in enumerate(eqs)]
    heapify(heap)
    done = set()
    pivots = []  # (unknown, equation)
    while heap:
        size, i = heappop(heap)
        eq, r = eqs[i]
        if i in done or size != len(eq):
            continue
        if not eq:
            return None
        done.add(i)
        for k in eq:
            where[k].discard(i)
        p = min(eq, key=lambda k: (len(where[k]), k))
        inv = 1 / Fraction(eq.pop(p))
        eq = {k: a * inv for k, a in eq.items()}
        r = r * inv
        eqs[i] = (eq, r)
        pivots.append((p, i))
        for h in where.pop(p):
            other, rh = eqs[h]
            f = other.pop(p)
            for k, a in eq.items():
                v = other.get(k, 0) - f * a
                if v:
                    if k not in other:
                        where[k].add(h)
                    other[k] = v
                elif k in other:
                    del other[k]
                    where[k].discard(h)
            eqs[h] = (other, rh - f * r)
            heappush(heap, (len(other), h))
    x: Dict[int, Fraction] = {}
    for p, i in reversed(pivots):
        eq, r = eqs[i]
        x[p] = r - sum(a * x[k] for k, a in eq.items())
    return x
