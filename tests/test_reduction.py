"""IBP reduction: canonical classification, rewriting, and entropy derivatives."""

import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcalc import reduction
from heatcalc.reduction import (
    IBP_IDENTITIES,
    ReductionDepthError,
    ReductionStep,
    ReductionTrace,
    entropy_derivative,
    is_canonical,
    reduce,
    rewrite_once,
    verify_ibp_identities,
)
from heatcalc.certificates import partitions
from heatcalc.terms import Combination, d_dt, d_dy, make_monomial, parse_monomial


class TestIsCanonical:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("f2 f4/f^1", False),
            ("f3^2/f^1", True),
            ("f1^6/f^5", True),
            ("f1^2 f2^2/f^3", True),
            ("f1 f2 f3/f^2", False),
            ("f1", False),
            ("f2", False),
            ("f1^2/f^1", True),
        ],
    )
    def test_examples(self, text, expected):
        assert is_canonical(parse_monomial(text)) is expected

    def test_bare_density_rejected(self):
        with pytest.raises(ValueError):
            is_canonical(make_monomial([]))


class TestReduce:
    def test_single_step_examples(self):
        got = reduce(Combination.term(parse_monomial("f1^4 f2/f^4")))
        assert got == Combination({parse_monomial("f1^6/f^5"): Fraction(4, 5)})

    def test_multi_step_example(self):
        got = reduce(Combination.term(parse_monomial("f2 f4/f^1")))
        expected = Combination(
            {
                parse_monomial("f3^2/f^1"): -1,
                parse_monomial("f2^3/f^2"): Fraction(-1, 2),
                parse_monomial("f1^2 f2^2/f^3"): 1,
            }
        )
        assert got == expected

    def test_weight8_example(self):
        got = reduce(Combination.term(parse_monomial("f3 f5/f^1")))
        expected = Combination(
            {
                parse_monomial("f4^2/f^1"): -1,
                parse_monomial("f2 f3^2/f^2"): Fraction(-1, 2),
                parse_monomial("f1^2 f3^2/f^3"): 1,
            }
        )
        assert got == expected

    def test_total_derivative_vanishes(self):
        assert reduce(Combination.term(make_monomial([1]))).is_zero()
        assert reduce(Combination.term(make_monomial([3]))).is_zero()

    def test_trace_replays_to_final(self):
        start = Combination.term(parse_monomial("f2 f4/f^1")) + Combination.term(
            parse_monomial("f1^3 f3/f^3"), Fraction(2, 3)
        )
        final, trace = reduce(start, trace=True)
        assert trace.replay(start) == final
        assert trace.final == final
        assert len(trace.steps) >= 2

    def test_rule_gap_raises_after_one_rewrite(self, monkeypatch):
        # a rule whose replacement keeps its target leaves it non-canonical
        calls = []

        def stuck(mono):
            calls.append(mono)
            return Combination.term(mono)

        monkeypatch.setattr(reduction, "rewrite_once", stuck)
        target = parse_monomial("f3 f5/f^1")
        with pytest.raises(ReductionDepthError, match=re.escape(str(target))):
            reduce(Combination.term(target))
        assert calls == [target]

    def test_mixed_weights_allowed(self):
        c = Combination.term(parse_monomial("f1 f2/f^1")) + Combination.term(
            parse_monomial("f2 f4/f^1")
        )
        out = reduce(c)
        assert set(out.weights()) <= {3, 6}
        for mono, _ in out.items():
            assert is_canonical(mono)

    def test_rewrite_once_rejects_canonical(self):
        with pytest.raises(ValueError):
            rewrite_once(parse_monomial("f3^2/f^1"))


class TestLemmaIdentities:
    def test_all_thirteen_pass(self):
        report = verify_ibp_identities()
        assert len(report) == 13
        for chk in report:
            assert chk.passed, f"{chk.label}: residual {chk.residual}"

    @pytest.mark.parametrize(
        "lhs,rhs",
        [
            (
                "f1 f2 f3/f^2",
                {"f2^3/f^2": Fraction(-1, 2), "f1^2 f2^2/f^3": Fraction(1)},
            ),
            (
                "f1^4 f4/f^4",
                {
                    "f1^2 f2^3/f^4": Fraction(6),
                    "f1^4 f2^2/f^5": Fraction(-28),
                    "f1^8/f^7": Fraction(120, 7),
                },
            ),
            ("f1^6 f2/f^6", {"f1^8/f^7": Fraction(6, 7)}),
        ],
    )
    def test_selected_rows(self, lhs, rhs):
        got = reduce(Combination.term(parse_monomial(lhs)))
        assert got == Combination({parse_monomial(m): c for m, c in rhs.items()})


class TestEntropyDerivative:
    def test_first_is_fisher_integrand(self):
        assert entropy_derivative(1) == Combination.term(make_monomial([1, 1]))

    def test_second(self):
        expected = Combination(
            {
                make_monomial([2, 2]): -1,
                make_monomial([1] * 4): Fraction(1, 3),
            }
        )
        assert entropy_derivative(2) == expected

    def test_third(self):
        expected = Combination(
            {
                make_monomial([3, 3]): 1,
                make_monomial([2, 2, 2]): 1,
                make_monomial([1, 1, 2, 2]): -3,
                make_monomial([1] * 6): Fraction(6, 5),
            }
        )
        assert entropy_derivative(3) == expected

    def test_fourth(self):
        expected = Combination(
            {
                make_monomial([4, 4]): -1,
                make_monomial([2, 3, 3]): -4,
                make_monomial([1, 1, 3, 3]): 4,
                make_monomial([2] * 4): -3,
                make_monomial([1, 1, 2, 2, 2]): 24,
                make_monomial([1, 1, 1, 1, 2, 2]): -36,
                make_monomial([1] * 8): Fraction(90, 7),
            }
        )
        assert entropy_derivative(4) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_weight_homogeneous_and_canonical(self, n):
        c = entropy_derivative(n)
        assert c.weights() == (2 * n,)
        for mono, _ in c.items():
            assert is_canonical(mono)

    def test_sign_of_leading_square_term(self):
        # the f_n^2/f coefficient alternates: +1 for odd n, -1 for even n
        for n in range(1, 7):
            lead = entropy_derivative(n).coefficient(make_monomial([n, n]))
            assert lead == (-1) ** (n + 1)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            entropy_derivative(0)

    @pytest.mark.parametrize(
        "n,steps,terms",
        [
            (2, 2, 2),
            (3, 4, 4),
            (4, 8, 7),
            (5, 15, 12),
            (6, 26, 21),
            (7, 45, 34),
            (8, 75, 55),
            (9, 121, 88),
            (10, 193, 137),
        ],
    )
    def test_pinned_rewrite_counts(self, n, steps, terms):
        start = d_dt(entropy_derivative(n - 1))
        final, trace = reduce(start, trace=True)
        assert len(trace.steps) == steps
        assert len(final) == terms
        assert final == entropy_derivative(n)
        assert trace.replay(start) == final
        # each rewrite only produces lower maximal orders, so the targets
        # come out in strictly decreasing (max order, degree, exponents)
        keys = [(s.target.max_order, s.target.degree, s.target.exps) for s in trace.steps]
        assert all(a > b for a, b in zip(keys, keys[1:]))

    def test_fourth_derivative_line_serialization_golden(self):
        expected = "\n".join(
            [
                "-1 * f4^2/f^1",
                "-4 * f2 f3^2/f^2",
                "4 * f1^2 f3^2/f^3",
                "-3 * f2^4/f^3",
                "24 * f1^2 f2^3/f^4",
                "-36 * f1^4 f2^2/f^5",
                "90/7 * f1^8/f^7",
            ]
        )
        assert entropy_derivative(4).to_lines() == expected


# -- pinned exact output ------------------------------------------------------

# sha256 of str(C_n), n = 1..12
C_N_DIGESTS = {
    1: "ebe2089a0d9ed015ca584b6ed46a2db5697474ce418c6249d696597ce3842ccf",
    2: "7490e4dbd04d327f9bd8caf2be41c80ca473c51e640209464a01f32da14eb215",
    3: "be997a85dc06a48c5835dd470e3f7e1efaabad9e0f943ac9df2dcad916231ec1",
    4: "85d1602b5256f560874f3a00bf1991fc2d524e90fd7b6f37d3f9de87a8bdd092",
    5: "810a9362fee1535cd8a49166d5fab7e31ef50bbd35dd605dc58e7fc2f5d675db",
    6: "f1270c04c6e5ef8545de98272add282fd21885e85bee462265e89c24738c1a02",
    7: "886668f87d5754d39f797a920f8d79aaeef7f2e5af8c656e39447464cebefe87",
    8: "32c89a5fdf25f1f8ab798b7b91b2d1c8bb81ef895b9700ad2deb5d06cc974650",
    9: "1191de503cf3a6754c41b27bf9f3db450b86e388d0ee5b597f74b35566a7b01b",
    10: "478de6612a835a5e485ac9807f8ebe94776adba344f97ae5b04dec4cea079ac3",
    11: "48eb3d30e5538077eb007783d78c26d4c19f17f08b7aaab5e841ebee7af15686",
    12: "7cb3dd8e02bedfa5d75c3cd2f97404a45a037a568b95a601850b531da337e21f",
}
# sha256 of the sorted "m -> rewrite_once(m)" lines, joined by newlines, of
# every non-canonical monomial of weight <= 10
REWRITE_DIGEST = "c59e49c78b6501402cb85c62ac77b673f057b3449dce0a9e9e0f400ab7097759"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedExactOutput:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_entropy_derivative(self, n):
        assert _sha256(str(entropy_derivative(n))) == C_N_DIGESTS[n]

    def test_every_rewrite_up_to_weight_ten(self):
        lines = [
            f"{m} -> {rewrite_once(m)}"
            for w in range(1, 11)
            for m in map(make_monomial, partitions(w))
            if not is_canonical(m)
        ]
        assert len(lines) == 97
        assert _sha256("\n".join(sorted(lines))) == REWRITE_DIGEST


# -- flux ---------------------------------------------------------------------


class TestFlux:
    """A start minus its reduction is d_dy of the trace's flux, checked without ``reduce``."""

    @staticmethod
    def _assert_flux(start):
        final, trace = reduce(start, trace=True)
        assert start - final == d_dy(trace.flux)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_time_derivative_of_each_order(self, n):
        self._assert_flux(d_dt(entropy_derivative(n)))

    @pytest.mark.parametrize("label", list(IBP_IDENTITIES))
    def test_identity_left_sides(self, label):
        self._assert_flux(IBP_IDENTITIES[label][0])

    def test_single_steps(self):
        # f1^4 f2 = (f1^5/f^4)'/5 + 4/5 f1^6/f^5; the total derivatives f1
        # and f3 are the derivatives of f and f2
        cases = [
            ("f1^4 f2/f^4", "f1^5/f^4", Fraction(1, 5)),
            ("f1", "f", Fraction(1)),
            ("f3", "f2", Fraction(1)),
        ]
        for target, flux, coeff in cases:
            _, trace = reduce(Combination.term(parse_monomial(target)), trace=True)
            assert trace.flux == Combination.term(parse_monomial(flux), coeff)


# -- randomized properties ----------------------------------------------------

orders = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6)
monomials = orders.map(make_monomial)
coefficients = st.fractions(
    min_value=-8, max_value=8, max_denominator=10
).filter(lambda q: q != 0)
combinations = st.dictionaries(monomials, coefficients, min_size=1, max_size=4).map(
    Combination
)


@settings(max_examples=150, deadline=None)
@given(combinations)
def test_reduce_is_idempotent(c):
    once = reduce(c)
    assert reduce(once) == once


@settings(max_examples=150, deadline=None)
@given(combinations)
def test_reduce_preserves_weight(c):
    reduced = reduce(c)
    in_weights = {m.weight for m, _ in c.items()}
    for mono, _ in reduced.items():
        assert mono.weight in in_weights


@settings(max_examples=100, deadline=None)
@given(combinations)
def test_canonical_fixpoint(c):
    reduced = reduce(c)
    for mono, _ in reduced.items():
        assert is_canonical(mono)
    assert reduce(reduced) == reduced


@settings(max_examples=60, deadline=None)
@given(combinations)
def test_reduce_commutes_with_time_derivative_reduction(c):
    # reducing before or after d_dt must agree once both sides are reduced
    assert reduce(d_dt(reduce(c))) == reduce(d_dt(c))


@settings(max_examples=100, deadline=None)
@given(combinations)
def test_total_derivatives_reduce_to_zero_symbolically(c):
    assert reduce(d_dy(c)).is_zero()


# -- rewrite order ------------------------------------------------------------


def _reduce_one_max_per_step(c):
    """Reference reduction: one ``max`` over every pending monomial per rewrite.

    ``reduce`` sorts each level of maximal order once instead; the targets,
    their replacements and the result must come out the same.
    """

    def priority(m):
        return (m.max_order, m.degree, m.exps)

    def needs(m):
        return not m.is_empty() and not is_canonical(m)

    log = ReductionTrace()
    current = dict(c.items())
    pending = {m: priority(m) for m in current if needs(m)}
    while pending:
        target = max(pending, key=pending.__getitem__)
        replacement = rewrite_once(target)
        coeff = current.pop(target)
        del pending[target]
        for mono, r in replacement.items():
            total = current.get(mono, Fraction(0)) + coeff * r
            if total:
                current[mono] = total
                if mono not in pending and needs(mono):
                    pending[mono] = priority(mono)
            else:
                del current[mono]
                pending.pop(mono, None)
        rule = "total-derivative" if target.degree == 1 else f"ibp(top=f{target.max_order})"
        log.steps.append(ReductionStep(target, rule, replacement))
    log.final = Combination(current)
    return log.final, log


def _mixed_levels():
    """Terms of maximal order 1 to 5, weights 3 to 8, a total derivative and a canonical term."""
    return Combination(
        {
            parse_monomial("f2 f4/f^1"): 1,
            parse_monomial("f1^3 f3/f^3"): Fraction(2, 3),
            parse_monomial("f3 f5/f^1"): -3,
            parse_monomial("f1 f2/f^1"): Fraction(5, 7),
            parse_monomial("f1^2 f2 f4/f^3"): Fraction(-1, 4),
            parse_monomial("f4"): 2,
            parse_monomial("f1"): -1,
            parse_monomial("f3^2/f^1"): 1,
        }
    )


class TestRewriteOrder:
    """Sorting a level once gives the parent loop's one-``max``-per-step sequence."""

    @staticmethod
    def _assert_same(start):
        final, trace = reduce(start, trace=True)
        ref_final, ref_trace = _reduce_one_max_per_step(start)
        assert trace.steps == ref_trace.steps
        assert final == ref_final == trace.final
        assert str(final) == str(ref_final)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_time_derivative_of_each_order(self, n):
        self._assert_same(d_dt(entropy_derivative(n - 1)))

    @pytest.mark.parametrize("label", list(IBP_IDENTITIES))
    def test_identity_left_sides(self, label):
        self._assert_same(IBP_IDENTITIES[label][0])

    def test_mixed_levels(self):
        start = _mixed_levels()
        assert len({m.max_order for m in start.monomials()}) == 5
        self._assert_same(start)

    @settings(max_examples=100, deadline=None)
    @given(combinations)
    def test_random_combinations(self, c):
        self._assert_same(c)
