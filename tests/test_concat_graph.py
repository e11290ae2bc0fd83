import math
import random
from fractions import Fraction

import pytest

from mdkmlp.concat_graph import (
    ConcatPath,
    edge_length,
    envelope_integral,
    lower_envelope,
    mu_star,
    shortest_concat_path,
)


class TestMuStar:
    def test_tight_tolerance(self):
        mu = mu_star(Fraction(1, 10**9))
        assert abs(float(mu) - 3.59112) < 1e-5
        assert mu < Fraction("3.5912")

    def test_defining_equation_residual(self):
        mu = float(mu_star(Fraction(1, 10**9)))
        assert abs(mu * math.log(mu) - mu - 1) <= 1e-9

    def test_loose_tolerance_stays_bracketed(self):
        mu = mu_star(Fraction(1, 2))
        assert 3 <= mu <= 4
        m = float(mu)
        assert abs(m * math.log(m) - m - 1) <= 0.5


def concat_path(C):
    """The shortest 1->n path in CG(C_1..C_n)."""
    return shortest_concat_path(lower_envelope(enumerate(C, start=1)))


class TestEdgeLength:
    def test_examples(self):
        # C = (0, 2, 6)
        assert edge_length(2, 3, 1, 2) == 3
        assert edge_length(6, 3, 1, 3) == 6
        assert edge_length(6, 3, 2, 3) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            edge_length(2, 3, 2, 2)


class TestLowerEnvelope:
    def test_convex_input_keeps_all_corners(self):
        env = lower_envelope({(1, 0), (2, 2), (3, 6)})
        assert env.corners == ((1, 0), (2, 2), (3, 6))

    def test_interior_point_above_chord_dropped(self):
        env = lower_envelope({(1, 0), (2, 5), (3, 6)})
        assert env.corners == ((1, 0), (3, 6))
        assert env.value(2) == 3

    def test_equal_x_keeps_lower_y(self):
        env = lower_envelope([(1, 0), (2, 2), (2, 1)])
        assert env.corners == ((1, 0), (2, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lower_envelope([])


class TestEnvelopeIntegral:
    def test_single_segment(self):
        env = lower_envelope([(1, 0), (3, 6)])
        assert envelope_integral(env, 1, 3) == 6

    def test_two_segments(self):
        env = lower_envelope([(1, 0), (2, 2), (3, 6)])
        assert envelope_integral(env, 1, 3) == 5

    def test_empty_range(self):
        env = lower_envelope([(1, 0), (3, 6)])
        assert envelope_integral(env, 2, 2) == 0


class TestShortestConcatPath:
    def test_tie_prefers_fewer_hops(self):
        got = concat_path((0, 2, 6))
        assert got.length == 6
        assert got.node_indices == (1, 3)

    def test_all_zero(self):
        got = concat_path((0,) * 7)
        assert got.length == 0
        assert got.node_indices == (1, 7)

    def test_degenerate(self):
        got = concat_path((0,))
        assert got.length == 0
        assert got.node_indices == (1,)

    def test_nonzero_first_entry_rejected(self):
        with pytest.raises(ValueError):
            concat_path((1, 2))


def _full_dp(C):
    """Unrestricted all-pairs shortest-path DP for cross-checking."""
    n = len(C)
    best = [None] * (n + 1)
    best[1] = Fraction(0)
    for ell in range(2, n + 1):
        for o in range(1, ell):
            if best[o] is None:
                continue
            cand = best[o] + edge_length(C[ell - 1], n, o, ell)
            if best[ell] is None or cand < best[ell]:
                best[ell] = cand
    return best[n]


class TestProperties:
    def test_restriction_lossless_and_bounds(self):
        rng = random.Random(42)
        mu = mu_star(Fraction(1, 10**9))
        for _ in range(300):
            n = rng.randint(1, 20)
            C = (0,) + tuple(
                Fraction(rng.randint(0, 100)) for _ in range(n - 1)
            )
            got = concat_path(C)
            assert got.length == _full_dp(C)
            assert got.length <= mu / 2 * sum(C) + Fraction(1, 10**6)
            env = lower_envelope(list(enumerate(C, start=1)))
            f_sum = sum(env.value(ell) for ell in range(1, n + 1))
            assert got.length <= mu / 2 * f_sum + Fraction(1, 10**6)
            if n > 1:
                integral = envelope_integral(env, 1, n)
                slack = env.value(n) * Fraction(1, 10**6)
                assert got.length <= mu / 2 * (integral + slack)

    def test_scaling_homogeneity(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(2, 12)
            C = (0,) + tuple(
                Fraction(rng.randint(0, 50)) for _ in range(n - 1)
            )
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            base = concat_path(C)
            scaled = concat_path(tuple(lam * c for c in C))
            assert scaled.length == lam * base.length
            assert scaled.node_indices == base.node_indices
