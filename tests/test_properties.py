"""Randomized property suite over >= 100 cases per invariant.

Pure-algebra properties draw from a seeded generator so the whole suite
is reproducible; the quadrature-backed properties use compact mixtures
and weights so each case stays fast.
"""

import random
from fractions import Fraction

from heatcalc.mixtures import GaussianMixture
from heatcalc.oracle import functional_result
from heatcalc.reduction import is_canonical, reduce
from heatcalc.terms import Combination, d_dt, d_dy, make_monomial

CASES = 120


def _rng(salt: int) -> random.Random:
    return random.Random(0xC0FFEE + salt)


def random_monomial(rnd: random.Random, max_order: int, max_factors: int):
    k = rnd.randint(1, max_factors)
    return make_monomial([rnd.randint(1, max_order) for _ in range(k)])


def random_combination(
    rnd: random.Random, max_order: int = 5, max_factors: int = 5, max_terms: int = 4
) -> Combination:
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        coeff = Fraction(rnd.randint(-9, 9), rnd.randint(1, 10))
        if coeff:
            terms[random_monomial(rnd, max_order, max_factors)] = coeff
    return Combination(terms) if terms else Combination.term(make_monomial([1, 1]))


def random_mixture(rnd: random.Random) -> GaussianMixture:
    n = rnd.randint(1, 2)
    raw = [
        (rnd.uniform(0.2, 1.0), rnd.uniform(-2.0, 2.0), rnd.uniform(0.4, 1.5))
        for _ in range(n)
    ]
    total = sum(w for w, _, _ in raw)
    return GaussianMixture(tuple((w / total, mu, v) for w, mu, v in raw))


def test_reduce_idempotent_100_cases():
    rnd = _rng(1)
    for _ in range(CASES):
        c = random_combination(rnd)
        once = reduce(c)
        assert reduce(once) == once
        for mono, _ in once.items():
            assert is_canonical(mono)


def test_reduce_preserves_weight_100_cases():
    rnd = _rng(2)
    for _ in range(CASES):
        c = random_combination(rnd)
        allowed = {m.weight for m, _ in c.items()}
        for mono, _ in reduce(c).items():
            assert mono.weight in allowed


def test_derivations_commute_100_cases():
    rnd = _rng(3)
    for _ in range(CASES):
        c = random_combination(rnd, max_order=4, max_factors=4)
        assert d_dt(d_dy(c)) == d_dy(d_dt(c))


def test_functional_invariant_under_reduce_100_cases():
    rnd = _rng(4)
    ts = (0.3, 1.0, 3.0)
    for i in range(CASES):
        c = random_combination(rnd, max_order=4, max_factors=4, max_terms=2)
        reduced = reduce(c)
        mix = random_mixture(rnd)
        t = ts[i % 3]
        before = functional_result(c, mix, t).value
        after = functional_result(reduced, mix, t).value
        assert abs(before - after) < 1e-8, (c, mix, t)


def test_total_derivative_vanishes_100_cases():
    rnd = _rng(5)
    ts = (0.3, 1.0, 3.0)
    for i in range(CASES):
        c = random_combination(rnd, max_order=4, max_factors=4, max_terms=2)
        exact = d_dy(c)
        mix = random_mixture(rnd)
        t = ts[i % 3]
        assert abs(functional_result(exact, mix, t).value) < 1e-8, (c, mix, t)
