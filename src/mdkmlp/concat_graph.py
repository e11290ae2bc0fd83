"""Lower-envelope curves, the concatenation graph, and the mu* constant.

The concatenation graph CG(C_1..C_n) has an arc (o, l) of length
C_l * (n - (o + l)/2) for o < l; its shortest 1->n path is the device that
stitches partial tours of increasing coverage into one latency-bounded
route. The shortest path only needs nodes whose (index, cost) pair is an
extreme point of the lower convex hull, so the path is computed from the
lower envelope of the points (l, C_l): its corners are the graph's nodes.
A sequence C_1..C_n is searched as ``shortest_concat_path(lower_envelope(
enumerate(C, 1)))``; the stitching solvers pass the envelope of their
(coverage, cost bound) points directly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple


@dataclass(frozen=True)
class EnvelopeCurve:
    """Lower convex hull of (coverage, cost) points, as corner list."""

    corners: Tuple[Tuple[Fraction, Fraction], ...]

    @property
    def domain(self) -> Tuple[Fraction, Fraction]:
        return self.corners[0][0], self.corners[-1][0]

    def value(self, x) -> Fraction:
        """Evaluate the envelope at x by linear interpolation."""
        x = Fraction(x)
        lo, hi = self.domain
        if x < lo or x > hi:
            raise ValueError(f"x={x} outside envelope domain [{lo},{hi}]")
        corners = self.corners
        for i in range(len(corners) - 1):
            (x1, y1), (x2, y2) = corners[i], corners[i + 1]
            if x1 <= x <= x2:
                if x1 == x2:
                    return min(y1, y2)
                return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
        return corners[-1][1]


@dataclass(frozen=True)
class ConcatPath:
    """A 1->n path in the concatenation graph with its exact length."""

    node_indices: Tuple[int, ...]
    length: Fraction


def mu_star(tolerance) -> Fraction:
    """The root of mu*ln(mu) = mu + 1 on [3,4], to the requested residual.

    Bisection keeping the lower bracket end, so the returned value never
    exceeds the true root (in particular it stays strictly below 3.5912).
    """
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    def g(m: float) -> float:
        return m * math.log(m) - m - 1.0

    lo, hi = 3.0, 4.0
    while abs(g(lo)) > tol:
        mid = (lo + hi) / 2.0
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return Fraction(lo)


# mu* to a residual of 1e-9: the default growth rate and the guarantee factor
MU = mu_star(Fraction(1, 10**9))


def edge_length(c_l, n: int, o: int, l: int) -> Fraction:
    """Length of the concatenation-graph arc (o, l) into a node of cost
    c_l = C_l: c_l * (n - (o+l)/2)."""
    if not (1 <= o < l <= n):
        raise ValueError(f"need 1 <= o < l <= n, got o={o}, l={l}, n={n}")
    return Fraction(c_l) * (Fraction(n) - Fraction(o + l, 2))


def lower_envelope(points: Iterable[Tuple]) -> EnvelopeCurve:
    """Lower convex hull corners of a point set with x >= 1, y >= 0."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if not pts:
        raise ValueError("empty point set")
    for x, y in pts:
        if x < 1 or y < 0:
            raise ValueError(f"point ({x},{y}) outside x>=1, y>=0")
    # per x keep the lowest y, then the standard monotone-chain lower hull
    best = {}
    for x, y in pts:
        if x not in best or y < best[x]:
            best[x] = y
    ordered = sorted(best.items())
    hull: List[Tuple[Fraction, Fraction]] = []
    for x, y in ordered:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point unless it turns strictly upward
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return EnvelopeCurve(corners=tuple(hull))


def envelope_integral(curve: EnvelopeCurve, lo, hi) -> Fraction:
    """Exact integral of the piecewise-linear envelope over [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    dlo, dhi = curve.domain
    if lo > hi:
        raise ValueError("empty or reversed range")
    if lo < dlo or hi > dhi:
        raise ValueError(f"[{lo},{hi}] outside envelope domain [{dlo},{dhi}]")
    if lo == hi:
        return Fraction(0)
    total = Fraction(0)
    corners = curve.corners
    for i in range(len(corners) - 1):
        (x1, y1), (x2, y2) = corners[i], corners[i + 1]
        a, b = max(x1, lo), min(x2, hi)
        if a >= b:
            continue
        ya = y1 + (y2 - y1) * (a - x1) / (x2 - x1)
        yb = y1 + (y2 - y1) * (b - x1) / (x2 - x1)
        total += (ya + yb) * (b - a) / 2
    return total


def shortest_concat_path(curve: EnvelopeCurve) -> ConcatPath:
    """Exact shortest 1->n path in CG(C), DP over the corners of `curve`,
    the lower envelope of the points (l, C_l); n is its last corner.

    The envelope must start at (1, 0), i.e. C_1 = 0. Ties are broken toward
    fewer hops, then lexicographically smaller index sequences, for
    determinism.
    """
    (first, c_1), (last, _) = curve.corners[0], curve.corners[-1]
    if first != 1 or c_1 != 0:
        raise ValueError("the envelope must start at (1, 0): C_1 must be 0")
    n = int(last)
    # best[l] = (length, hops, path) with the stated tie-breaking
    best = {1: (Fraction(0), 0, (1,))}
    for x, c_l in curve.corners[1:]:
        l = int(x)
        best[l] = min(
            (plen + edge_length(c_l, n, o, l), hops + 1, path + (l,))
            for o, (plen, hops, path) in best.items()
        )
    length, _, path = best[n]
    return ConcatPath(node_indices=path, length=length)
