"""Certificate tests: partition basis, square expansion, exact verification, search."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcalc.certificates import (
    Certificate,
    GramSystem,
    SearchConfig,
    SquareForm,
    builtin_certificate,
    canonical_basis,
    certificate_from_json,
    certificate_to_json,
    check_order2_family,
    check_order3_family,
    expand_square,
    order2_family,
    order3_certificate,
    order3_family,
    order3_family_coefficients,
    order3_family_upper_endpoint,
    partitions,
    search_certificate,
    square_basis,
    verify_certificate,
)
from heatcalc.certificates import _coeff_vector, _gram_tensor
from heatcalc.reduction import entropy_derivative, reduce
from heatcalc.terms import Combination, make_monomial, parse_monomial


class TestPartitionBasis:
    def test_partitions_of_four(self):
        assert partitions(4) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, ["f2", "f1^2/f^1"]),
            (3, ["f3", "f1 f2/f^1", "f1^3/f^2"]),
            (4, ["f4", "f1 f3/f^1", "f2^2/f^1", "f1^2 f2/f^2", "f1^4/f^3"]),
        ],
    )
    def test_square_basis(self, n, expected):
        assert [str(m) for m in square_basis(n)] == expected

    def test_basis_size_is_partition_count(self):
        assert len(square_basis(5)) == 7
        assert len(square_basis(6)) == 11

    def test_canonical_basis_weight8(self):
        names = [str(m) for m in canonical_basis(8)]
        assert names == [
            "f4^2/f^1",
            "f2 f3^2/f^2",
            "f1^2 f3^2/f^3",
            "f2^4/f^3",
            "f1^2 f2^3/f^4",
            "f1^4 f2^2/f^5",
            "f1^8/f^7",
        ]


class TestExpandSquare:
    def test_order4_leading_square(self):
        sq = SquareForm.from_vector(
            4, [1, Fraction(-6, 5), Fraction(-7, 10), Fraction(8, 5), Fraction(-1, 2)]
        )
        got = expand_square(sq)
        expected = Combination(
            {
                parse_monomial("f4^2/f^1"): 1,
                parse_monomial("f1^2 f3^2/f^3"): Fraction(-104, 25),
                parse_monomial("f2^4/f^3"): Fraction(899, 300),
                parse_monomial("f1^4 f2^2/f^5"): Fraction(1839, 50),
                parse_monomial("f1^8/f^7"): Fraction(-1837, 140),
                parse_monomial("f2 f3^2/f^2"): 4,
                parse_monomial("f1^2 f2^3/f^4"): Fraction(-122, 5),
            }
        )
        assert got == expected

    def test_order4_second_square(self):
        sq = SquareForm.from_vector(
            4, [0, Fraction(2, 5), 0, Fraction(-1, 3), Fraction(9, 100)]
        )
        got = expand_square(sq)
        expected = Combination(
            {
                parse_monomial("f1^2 f3^2/f^3"): Fraction(4, 25),
                parse_monomial("f1^4 f2^2/f^5"): Fraction(-704, 900),
                parse_monomial("f1^8/f^7"): Fraction(18567, 70000),
                parse_monomial("f1^2 f2^3/f^4"): Fraction(2, 5),
            }
        )
        assert got == expected

    def test_order4_third_square(self):
        sq = SquareForm.from_vector(
            4, [0, 0, 0, Fraction(-4, 100), Fraction(4, 100)]
        )
        got = expand_square(sq)
        expected = Combination(
            {
                parse_monomial("f1^4 f2^2/f^5"): Fraction(16, 10000),
                parse_monomial("f1^8/f^7"): Fraction(-80, 70000),
            }
        )
        assert got == expected

    def test_even_in_coefficients(self):
        sq = SquareForm.from_vector(3, [1, Fraction(-1, 2), Fraction(2, 7)])
        neg = SquareForm.from_vector(3, [-1, Fraction(1, 2), Fraction(-2, 7)])
        assert expand_square(sq) == expand_square(neg)


class TestVerifyCertificate:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_builtin_certificates_verify(self, n):
        ok, residual = verify_certificate(builtin_certificate(n))
        assert ok
        assert residual.is_zero()

    def test_order3_certificate_contents(self):
        cert = order3_certificate()
        assert cert.sign == 1
        assert [str(c) for c in cert.squares[0].vector()] == ["1", "-1", "1/3"]
        assert cert.remainder == Combination(
            {make_monomial([1] * 6): Fraction(1, 45)}
        )

    def test_perturbed_remainder_fails_with_exact_residual(self):
        base = order3_certificate()
        bad = Certificate(
            3,
            base.squares,
            Combination({make_monomial([1] * 6): Fraction(1, 44)}),
            1,
        )
        ok, residual = verify_certificate(bad)
        assert not ok
        assert residual == Combination(
            {make_monomial([1] * 6): Fraction(1, 44) - Fraction(1, 45)}
        )

    def test_wrong_sign_rejected(self):
        base = order3_certificate()
        with pytest.raises(ValueError):
            verify_certificate(Certificate(3, base.squares, base.remainder, -1))

    def test_odd_exponent_remainder_rejected(self):
        base = order3_certificate()
        bad_remainder = Combination({parse_monomial("f2^3/f^2"): 1})
        with pytest.raises(ValueError):
            verify_certificate(Certificate(3, base.squares, bad_remainder, 1))

    def test_negative_remainder_rejected(self):
        base = order3_certificate()
        bad_remainder = Combination({make_monomial([1] * 6): -1})
        with pytest.raises(ValueError):
            verify_certificate(Certificate(3, base.squares, bad_remainder, 1))


class TestParameterFamilies:
    def test_order2_examples(self):
        assert check_order2_family(1, -1, 0)
        assert check_order2_family(1, Fraction(-1, 3), 0)
        assert not check_order2_family(1, Fraction(-1, 4), 0)

    def test_order2_interval_in_beta(self):
        for k in range(-120, 61):
            beta = Fraction(k, 60)
            expected = Fraction(-1) <= beta <= Fraction(-1, 3)
            assert check_order2_family(1, beta, 0) is expected, beta

    def test_order3_examples(self):
        ok, coeffs = check_order3_family(Fraction(1, 3))
        assert ok and coeffs == (0, Fraction(1, 45))
        ok, _ = check_order3_family(Fraction(1, 2))
        assert not ok
        # 17/50 lies just above the exact upper endpoint (-8+sqrt(94))/5
        ok, coeffs = check_order3_family(Fraction(17, 50))
        assert not ok and coeffs[1] == Fraction(-9, 2500)

    def test_order3_upper_endpoint_symbolic(self):
        beta = order3_family_upper_endpoint()
        assert beta.d == 94
        assert (beta.a, beta.b) == (Fraction(-8, 5), Fraction(1, 5))
        assert 0.339 < float(beta) < 0.3391

    def test_families_are_identities_for_any_rationals(self):
        # remainder may go negative, but the decomposition is always exact
        for params in [(Fraction(3, 7), Fraction(-5, 2), Fraction(1, 9)), (2, 1, -3)]:
            cert = order2_family(*params)
            total = Combination.zero()
            for sq in cert.squares:
                total = total + expand_square(sq)
            total = total + reduce(cert.remainder)
            assert total.scaled(-1) == entropy_derivative(2)
        for beta in [Fraction(9, 11), Fraction(-2, 3), 5]:
            cert = order3_family(beta)
            total = expand_square(cert.squares[0]) + reduce(cert.remainder)
            assert total == entropy_derivative(3)

    def test_family_feasibility_matches_certificate_validity(self):
        for k in range(-30, 31):
            beta = Fraction(k, 20)
            coeffs = order3_family_coefficients(beta)
            feasible = coeffs[0] >= 0 and coeffs[1] >= 0
            if feasible:
                ok, _ = verify_certificate(order3_family(beta))
                assert ok
            else:
                with pytest.raises(ValueError):
                    verify_certificate(order3_family(beta))


# Pythagorean scalings keep sqrt(a^2 + b^2) rational, so the two-square
# merge identity can be checked with exact arithmetic.
_PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_PYTHAGOREAN),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda q: q != 0),
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        min_size=4,
        max_size=4,
    ),
)
def test_square_merge_identity(triple, scale, coeffs):
    """(aA+B)^2 + (bA+C)^2 equals its rotated two-square form after expansion."""
    p, q, r = triple
    a, b = scale * p, scale * q
    hyp = abs(scale) * r
    b1, b2, c1, c2 = coeffs
    basis_a = [Fraction(1), Fraction(0), Fraction(0)]  # A = f3/f

    def vec(head, x, y):
        return [head, x, y]

    first = SquareForm.from_vector(3, vec(a, b1, b2))
    second = SquareForm.from_vector(3, vec(b, c1, c2))
    merged_main = SquareForm.from_vector(
        3,
        vec(hyp, (a * b1 + b * c1) / hyp, (a * b2 + b * c2) / hyp),
    )
    merged_rest = SquareForm.from_vector(
        3,
        vec(Fraction(0), (b * b1 - a * c1) / hyp, (b * b2 - a * c2) / hyp),
    )
    lhs = expand_square(first) + expand_square(second)
    rhs = expand_square(merged_main) + expand_square(merged_rest)
    assert lhs == rhs


class TestSearch:
    def test_rediscovers_order3_with_builtin_seed(self):
        out = search_certificate(3, SearchConfig(starts=4, seed=0))
        assert out.certificate is not None
        ok, _ = verify_certificate(out.certificate)
        assert ok

    def test_order2_from_random_starts(self):
        out = search_certificate(
            2, SearchConfig(starts=24, seed=5, seed_builtin=False)
        )
        assert out.certificate is not None
        ok, _ = verify_certificate(out.certificate)
        assert ok
        # any exact order-2 certificate lies in the feasible family:
        # head coefficient bounded by 1, remainder nonnegative
        head = out.certificate.squares[0].vector()[0]
        assert head * head <= 1

    def test_order3_from_random_starts(self):
        out = search_certificate(
            3, SearchConfig(starts=24, seed=5, seed_builtin=False)
        )
        assert out.certificate is not None
        ok, _ = verify_certificate(out.certificate)
        assert ok

    def test_search_reports_without_asserting(self):
        out = search_certificate(4, SearchConfig(starts=1, seed=0))
        assert out.best_residual < 1e-9
        assert out.starts == 1

    def test_order5_search_reports_residual_and_candidate(self):
        # no exact order-5 certificate is known; the search must report its
        # best residual and candidate without claiming success
        out = search_certificate(5, SearchConfig(starts=1, seed=3))
        assert out.best_residual == out.best_residual  # finite, not nan
        assert out.best_residual >= 0
        if out.certificate is not None:
            ok, _ = verify_certificate(out.certificate)
            assert ok  # only an exactly-verified certificate may be returned
        else:
            assert out.best_squares  # the candidate is still reported


    @pytest.mark.parametrize("starts", [0, -2])
    def test_needs_at_least_one_start(self, starts):
        with pytest.raises(ValueError, match="starts must be >= 1"):
            search_certificate(3, SearchConfig(starts=starts))


class TestGramTensor:
    """The search's float model A(F^T F) + E u^2 against the exact expansion."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_builtin_certificates_through_the_gram_map(self, n):
        cert = builtin_certificate(n)
        basis = canonical_basis(2 * n)
        gram = _gram_tensor(n, basis)
        assert np.array_equal(gram, gram.transpose(1, 0, 2))

        factor = np.array([[float(v) for v in sq.vector()] for sq in cert.squares])
        remainder = [float(c) for c in _coeff_vector(cert.remainder, basis)]
        even = [i for i, m in enumerate(basis) if not any(k % 2 for _, k in m.exps)]
        assert all(remainder[i] == 0 for i in range(len(basis)) if i not in even)
        roots = np.sqrt([remainder[i] for i in even])

        model = np.tensordot(factor.T @ factor, gram, axes=2)
        model[even] += roots**2
        target = _coeff_vector(entropy_derivative(n).scaled(cert.sign), basis)
        assert np.max(np.abs(model - [float(c) for c in target])) < 1e-12

        # the search's residual is the same model in its packed variables
        system = GramSystem(n)
        full = np.zeros((len(gram), len(gram)))
        full[: len(factor)] = factor
        x = np.concatenate([full[system.triu], roots])
        assert np.array_equal(system.factor(x), full)
        assert np.max(np.abs(system.residual(x))) < 1e-12


class TestGramJacobian:
    """The search's exact Jacobian against central differences of its residual."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_central_differences(self, n):
        system = GramSystem(n)
        rng = np.random.default_rng(100 + n)
        step = 1e-5
        for _ in range(3):
            x = rng.normal(size=system.size)
            jac = system.jacobian(x)
            assert jac.shape == (len(system.target), system.size)
            numeric = np.column_stack(
                [
                    (system.residual(x + step * e) - system.residual(x - step * e)) / (2 * step)
                    for e in np.eye(system.size)
                ]
            )
            assert np.max(np.abs(jac - numeric)) <= 1e-6 * np.max(np.abs(jac))


class TestCertificateJson:
    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.pop("sign"), "field sign is missing"),
            (lambda d: d.update(order=True), "field order: expected an integer"),
            (lambda d: d.update(squares="x"), "field squares: expected a list"),
            (lambda d: d["squares"][0].append(["f3"]), "field squares[0][3]"),
            (lambda d: d["squares"][0][0].__setitem__(1, "1/0"), "invalid coefficient '1/0'"),
            (lambda d: d["squares"][0][0].__setitem__(1, float("inf")), "invalid coefficient inf"),
            (lambda d: d["squares"][0][0].__setitem__(1, None), "field squares[0][0]"),
            (lambda d: d["remainder"][0].__setitem__(0, "f0^6"), "field remainder[0]"),
        ],
    )
    def test_bad_fields_are_named(self, mutate, needle):
        import json

        payload = json.loads(certificate_to_json(builtin_certificate(3)))
        mutate(payload)
        with pytest.raises(ValueError, match=re.escape(needle)):
            certificate_from_json(json.dumps(payload))


class TestCertifiedSignsHoldNumerically:
    def test_certified_sign_matches_oracle(self):
        from heatcalc.mixtures import BIMODAL_MIXTURE, GaussianMixture
        from heatcalc.oracle import functional

        mixes = [
            GaussianMixture.single(0.0, 1.0),
            GaussianMixture.create([(0.3, -1.0, 0.5), (0.7, 2.0, 1.2)]),
            BIMODAL_MIXTURE,
        ]
        for n in (2, 3, 4):
            cert = builtin_certificate(n)
            ok, _ = verify_certificate(cert)
            assert ok
            for mix in mixes:
                for t in (0.4, 1.0, 3.0):
                    value = functional(entropy_derivative(n), mix, t)
                    assert value * cert.sign > 0, (n, mix, t, value)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip(self, n):
        cert = builtin_certificate(n)
        again = certificate_from_json(certificate_to_json(cert))
        assert again.order == cert.order
        assert again.sign == cert.sign
        assert again.remainder == cert.remainder
        assert [s.coeffs for s in again.squares] == [s.coeffs for s in cert.squares]
        ok, _ = verify_certificate(again)
        assert ok
