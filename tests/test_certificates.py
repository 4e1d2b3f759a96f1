"""Certificate tests: partition basis, square expansion, exact verification, search."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcalc import certificates
from heatcalc.certificates import (
    Certificate,
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
    verify_witness,
)
from heatcalc.certificates import _coeff_vector, _gram_problem
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

    def test_weight_scales_the_expansion(self):
        vec = [1, Fraction(-1, 2), Fraction(2, 7)]
        weighted = SquareForm.from_vector(3, vec, weight=Fraction(5, 3))
        plain = SquareForm.from_vector(3, vec)
        assert expand_square(weighted) == expand_square(plain).scaled(Fraction(5, 3))

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

    def test_negative_weight_rejected(self):
        base = order3_certificate()
        square = SquareForm.from_vector(3, base.squares[0].vector(), weight=-1)
        with pytest.raises(ValueError, match="square 0 has negative weight -1"):
            verify_certificate(Certificate(3, (square,), base.remainder, 1))

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
    """One deterministic Gram problem: an exact certificate or an exact witness."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_found_from_scratch(self, n):
        out = search_certificate(n)
        assert out.certificate is not None and out.witness is None
        assert out.margin > 0
        ok, _ = verify_certificate(out.certificate)
        assert ok
        assert all(sq.weight > 0 for sq in out.certificate.squares)

    def test_search_reports_without_asserting(self):
        out = search_certificate(4)
        assert out.best_residual < 1e-9

    @pytest.mark.parametrize("n", [5, 6])
    def test_higher_orders_end_in_an_exact_witness(self, n):
        out = search_certificate(n)
        assert out.certificate is None
        assert out.margin < 0
        assert len(out.witness) == len(canonical_basis(2 * n))
        assert verify_witness(n, out.witness)

    @pytest.mark.parametrize("n", [5, 6])
    def test_the_search_builds_its_gram_problem_once(self, n, monkeypatch):
        # the candidate witnesses are checked against the search's own
        # problem; verify_witness rebuilds it only for a stored witness
        calls = []

        def counted(order):
            calls.append(order)
            return _gram_problem(order)

        monkeypatch.setattr(certificates, "_gram_problem", counted)
        assert search_certificate(n).witness is not None
        assert calls == [n]

    def test_witness_check_is_sharp(self):
        # move the coordinate that most lowers the smallest eigenvalue of
        # A*(y) by one unit of the rounding denominator: the check must fail
        n = 6
        witness = search_certificate(n).witness
        gram = np.array(_gram_problem(n)[1], dtype=float)
        dual = np.tensordot(gram, np.array(witness, dtype=float), axes=1)
        v = np.linalg.eigh(dual)[1][:, 0]
        pull = np.einsum("a,abk,b->k", v, gram, v)
        k = int(np.argmax(np.abs(pull)))
        moved = list(witness)
        moved[k] -= Fraction(int(np.sign(pull[k])), 10**6)
        assert not verify_witness(n, moved)

    def test_witness_must_have_every_coordinate(self):
        with pytest.raises(ValueError, match="expected 12 witness coordinates"):
            verify_witness(5, [0] * 11)

    @pytest.mark.parametrize("n", [4, 5])
    def test_two_calls_agree(self, n):
        assert search_certificate(n) == search_certificate(n)


class TestGramTensor:
    """The map A of the Gram formulation against the exact expansion."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_builtin_certificates_through_the_gram_map(self, n):
        cert = builtin_certificate(n)
        basis = canonical_basis(2 * n)
        _, exact, _ = _gram_problem(n)
        assert all(exact[a][b] == exact[b][a] for a in range(len(exact)) for b in range(a))

        # the squares and the remainder as one Gram matrix: a remainder slot
        # is the diagonal entry of its half partition
        pb = square_basis(n)
        q = [[Fraction(0)] * len(pb) for _ in pb]
        for sq in cert.squares:
            vec = sq.vector()
            for a in range(len(pb)):
                for b in range(len(pb)):
                    q[a][b] += sq.weight * vec[a] * vec[b]
        for mono, coeff in cert.remainder.items():
            half = pb.index(make_monomial([m for m, k in mono.exps for _ in range(k // 2)]))
            q[half][half] += coeff
        image = [
            sum(q[a][b] * exact[a][b][s] for a in range(len(pb)) for b in range(len(pb)))
            for s in range(len(basis))
        ]
        assert image == _coeff_vector(entropy_derivative(n).scaled(cert.sign), basis)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_even_slots_are_gram_diagonals(self, n):
        basis = canonical_basis(2 * n)
        _, exact, _ = _gram_problem(n)
        pb = square_basis(n)
        even = [s for s, m in enumerate(basis) if not any(k % 2 for _, k in m.exps)]
        assert even
        for s in even:
            half = make_monomial([m for m, k in basis[s].exps for _ in range(k // 2)])
            unit = [Fraction(int(i == s)) for i in range(len(basis))]
            assert exact[pb.index(half)][pb.index(half)] == unit


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
            (lambda d: d.update(weights=["-1/2"]), "field weights[0]: weight '-1/2' is negative"),
            (lambda d: d.update(weights=[1, 1]), "field weights: expected a list of 1 weights"),
            (lambda d: d.update(weights=["x"]), "field weights[0]: invalid weight 'x'"),
            (lambda d: d.update(weights=[True]), "field weights[0]: expected a string or number"),
            (
                lambda d: d.update(remainder=[["f1^6/f^5", "-1"], ["f1^6/f^5", "1/45"]]),
                "field remainder[1]: monomial f1^6/f^5 is repeated",
            ),
            (
                lambda d: d["squares"][0].insert(1, ["f3", "2"]),
                "field squares[0][1]: monomial f3 is repeated",
            ),
            (
                lambda d: d["squares"][0].append(["f2", "1"]),
                "field squares[0][3]: monomial f2 has weight 2, expected 3",
            ),
            (
                lambda d: d["remainder"][0].__setitem__(0, "f3/f^x"),
                "field remainder[0]: bad denominator 'f^x' in 'f3/f^x'",
            ),
            (
                lambda d: d["squares"][0][0].__setitem__(0, "f3 f1^0"),
                "field squares[0][0]: bad factor 'f1^0' in 'f3 f1^0'",
            ),
        ],
    )
    def test_bad_fields_are_named(self, mutate, needle):
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
        assert "weights" not in json.loads(certificate_to_json(cert))

    def test_weights_round_trip(self):
        cert = search_certificate(3).certificate
        text = certificate_to_json(cert)
        assert json.loads(text)["weights"] == [str(sq.weight) for sq in cert.squares]
        again = certificate_from_json(text)
        assert again.squares == cert.squares
        ok, _ = verify_certificate(again)
        assert ok
