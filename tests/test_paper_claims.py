"""The abstract's claims on the configuration LP, each checked exactly on
random instances small enough for the exact oracle.

Every test quotes the claim it checks (PAPER.md). OPT is
``exact_oracles.exact_kmlp`` and LP2 the joint-configuration LP
``build_and_solve_lp2`` on ``time_horizon(inst).T``; both are exact
rationals, so each claim is one exact inequality per instance.

The allowed-depot family is left out on purpose: LP2 ignores allowed
depots (ROADMAP item 2), so OPT there can exceed what the claims bound
until that item lands.
"""

import math
import random
from fractions import Fraction

from conftest import random_instance

from mdkmlp.exact_oracles import exact_kmlp
from mdkmlp.instance import time_horizon
from mdkmlp.lp_toolkit import build_and_solve_lp2

# a stated rational above mu* ~ 3.59112, the root of mu ln mu = mu + 1
MU_PLUS = Fraction(3592, 1000)


def opt_and_lp2(inst):
    return exact_kmlp(inst).value, build_and_solve_lp2(inst, time_horizon(inst).T).objective_value


def plain_instances(seed, ks, count):
    """``count`` plain instances per k in ``ks`` and per depot layout (one
    shared depot, or k distinct ones), with k + 2 to 8 nodes."""
    rng = random.Random(seed)
    for k in ks:
        for single_depot in (True, False):
            for _ in range(count):
                yield random_instance(rng, rng.randint(k + 2, 8), k, single_depot=single_depot)


def test_mu_plus_is_above_mu_star():
    # mu ln mu - mu - 1 increases on [3, 4] and vanishes at mu*
    mu = float(MU_PLUS)
    assert mu * math.log(mu) - mu - 1 > 1e-4


def test_config_lp_gap_at_most_3592_with_several_depots():
    # "We prove that the integrality gap of this LP is at most 3.592, even
    # for the multi-depot problem"
    for inst in plain_instances(4401, (1, 2, 3), 20):
        opt, lp2 = opt_and_lp2(inst)
        assert lp2 > 0
        assert opt <= MU_PLUS * lp2, (inst, opt, lp2)


def test_config_lp_gap_at_most_303_at_k1():
    # "[...] by showing that it is at least as powerful as a stroll-based
    # lower bound that is oft-used for minimum-latency problems; the latter
    # result implies an integrality gap of at most 3.03 when k=1."
    for inst in plain_instances(4402, (1,), 20):
        opt, lp2 = opt_and_lp2(inst)
        assert lp2 > 0
        assert opt <= Fraction(303, 100) * lp2, (inst, opt, lp2)
