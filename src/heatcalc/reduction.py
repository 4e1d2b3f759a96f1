"""Integration-by-parts reduction of derivative-monomial integrands.

Two monomials can denote the same integral: whenever the highest
derivative order in a term appears with exponent one, the term is a total
derivative in disguise and integrates by parts (boundary terms vanish for
heat-flow densities).  A monomial is *canonical* when that is impossible,
i.e. its highest-order derivative has exponent at least two, or it is a
pure power of f1.

``reduce`` rewrites any combination into canonical form while preserving
its integral over y, term weight, and exact rational coefficients.  One
rewrite step takes the maximal order m* (exponent one) of a target and
its flux Phi, the target with f_{m*} removed and f_{m*-1}^e raised to
f_{m*-1}^{e+1}, and replaces the target by

    target - D_y(Phi) / (e+1),

which has the same integral and in which the target cancels, so every
produced term has maximal order m* - 1.  So one pass per level, from the
highest down, reaches canonical form; a monomial left non-canonical after
it can only come from a gap in the rules, and raises.  The trace sums the
fluxes, so a start minus its reduction is exactly ``d_dy`` of one flux.

``entropy_derivative(n)`` chains the heat-flow time derivative with this
reduction to produce the canonical integrand C_n with
``integral(C_n) = 2 * d^n h(X + sqrt(t) Z) / dt^n``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .terms import (
    _ZERO,
    _derive,
    Combination,
    DerivMonomial,
    d_dt,
    make_monomial,
    monomial,
    parse_monomial,
)


class ReductionDepthError(RuntimeError):
    """Rewriting left a monomial that still needs a rewrite.

    This signals a gap in the rewrite rules (an internal error), not a
    problem with the caller's input.
    """


def is_canonical(mono: DerivMonomial) -> bool:
    """True iff no IBP rewrite applies.

    Holds when the maximal derivative order has exponent >= 2, or the
    monomial is f1^K / f^(K-1) with K >= 2.  Total-derivative terms of
    degree one (f1, f2/1, ...) are not canonical; they integrate to zero.
    """
    if mono.is_empty():
        raise ValueError("the bare density has no canonical classification")
    top = mono.exps[-1]
    if top[1] >= 2:
        return True
    return mono.max_order == 1 and mono.degree >= 2


class ReductionStep(NamedTuple):
    """One rewrite: every occurrence of ``target`` replaced by ``replacement``."""

    target: DerivMonomial
    rule: str
    replacement: Combination


class ReductionTrace(NamedTuple):
    """Audit trail for a reduction; replaying the steps reproduces ``final``.

    ``flux`` is what the steps integrated away: the start minus ``final``
    is exactly ``d_dy(flux)``, the sum of coeff * Phi/(e+1) over the steps.
    """

    steps: Tuple[ReductionStep, ...]
    final: Combination
    flux: Combination

    def replay(self, start: Combination) -> Combination:
        current = start
        for step in self.steps:
            coeff = current.coefficient(step.target)
            current = current - Combination.term(step.target, coeff) + step.replacement.scaled(coeff)
        return current


def _antiderivative(mono: DerivMonomial) -> Tuple[DerivMonomial, int]:
    """The flux Phi of a non-canonical ``mono`` and the exponent e of f_{m*-1} in it.

    Phi is ``mono`` with f_{m*} removed and f_{m*-1}^e raised to
    f_{m*-1}^{e+1} (the bare density f for m* = 1), so D_y(Phi) holds
    ``mono`` with coefficient e + 1.
    """
    if mono.is_empty() or is_canonical(mono):
        raise ValueError(f"{mono} is already canonical")
    mstar = mono.max_order
    exps = dict(mono.exps[:-1])
    e = exps.get(mstar - 1, 0)
    if mstar > 1:
        exps[mstar - 1] = e + 1
    return monomial(exps), e


def rewrite_once(mono: DerivMonomial) -> Combination:
    """Apply a single IBP rewrite to a non-canonical monomial: mono - D_y(Phi)/(e+1)."""
    phi, e = _antiderivative(mono)
    terms = _derive(phi, 1, Fraction(-1, e + 1))
    # D_y(Phi)/(e+1) holds mono once, which the rewrite cancels
    del terms[mono]
    return Combination(terms)


def _rewrite_priority(mono: DerivMonomial) -> Tuple[int, int, Tuple[Tuple[int, int], ...]]:
    """Order in which ``reduce`` rewrites: the largest key goes first.

    Largest maximal order first, then larger total degree, then the
    exponent map itself.  The key is unique per monomial, so the choice
    does not depend on how the terms are stored.
    """
    return (mono.max_order, mono.degree, mono.exps)


def _needs_rewrite(mono: DerivMonomial) -> bool:
    return not mono.is_empty() and not is_canonical(mono)


def reduce(
    c: Combination, *, trace: bool = False
) -> Combination | Tuple[Combination, ReductionTrace]:
    """Rewrite ``c`` so every monomial is canonical.

    The result denotes the same integral over y; weights and exact
    coefficients are preserved term by term.  With ``trace=True`` also
    returns the step-by-step audit trail.

    The rewrites go one level of maximal order m* at a time, from the
    highest down.  Rewriting a monomial of level m* yields only terms of
    level m* - 1, so while a level is rewritten its non-canonical monomials
    neither grow in number nor change coefficient: each level is one pass
    over them, sorted largest ``_rewrite_priority`` first, which is the
    order of always taking the largest key still to rewrite.  The working
    terms live in one dict updated in place, so a rewrite costs the size of
    its replacement.  A monomial still non-canonical after the last level
    raises ``ReductionDepthError``: only a gap in the rules can leave one.
    """
    steps: List[ReductionStep] | None = [] if trace else None
    flux: Dict[DerivMonomial, Fraction] = {}
    current: Dict[DerivMonomial, Fraction] = dict(c.items())
    for top in range(max((m.max_order for m in current), default=0), 0, -1):
        level = sorted(
            (m for m in current if m.max_order == top and _needs_rewrite(m)),
            key=_rewrite_priority,
            reverse=True,
        )
        for target in level:
            replacement = rewrite_once(target)
            coeff = current.pop(target)
            for mono, r in replacement.items():
                total = current.get(mono, _ZERO) + coeff * r
                if total:
                    current[mono] = total
                else:
                    del current[mono]
            if steps is not None:
                rule = "total-derivative" if target.degree == 1 else f"ibp(top=f{target.max_order})"
                steps.append(ReductionStep(target, rule, replacement))
                phi, e = _antiderivative(target)
                flux[phi] = flux.get(phi, _ZERO) + coeff / (e + 1)
    stuck = [m for m in current if _needs_rewrite(m)]
    if stuck:
        raise ReductionDepthError(f"a gap in the rewrite rules left {stuck[0]} non-canonical")
    result = Combination(current)
    if steps is not None:
        return result, ReductionTrace(tuple(steps), result, Combination(flux))
    return result


_ENTROPY_CACHE: Dict[int, Combination] = {1: Combination.term(make_monomial([1, 1]))}


def entropy_derivative(n: int) -> Combination:
    """Canonical integrand C_n with ``integral(C_n) dy = 2 d^n/dt^n h(Y_t)``.

    C_1 = f1^2/f (so its integral is the Fisher information); each further
    order applies the heat-flow time derivative and reduces to canonical
    form.  Every term of C_n has weight 2n.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    top = max(_ENTROPY_CACHE)
    while top < n:
        nxt = reduce(d_dt(_ENTROPY_CACHE[top]))
        top += 1
        _ENTROPY_CACHE[top] = nxt
    return _ENTROPY_CACHE[n]


def _identity(lhs: str, rhs: Dict[str, str]) -> Tuple[Combination, Combination]:
    left = Combination.term(parse_monomial(lhs))
    right = Combination({parse_monomial(m): Fraction(c) for m, c in rhs.items()})
    return left, right


# The thirteen IBP identities used to assemble the weight-6 and weight-8
# canonical forms, keyed by their left-hand monomial.
IBP_IDENTITIES: Dict[str, Tuple[Combination, Combination]] = {
    # weight 6
    "f1^4 f2/f^4": _identity("f1^4 f2/f^4", {"f1^6/f^5": "4/5"}),
    "f1^3 f3/f^3": _identity("f1^3 f3/f^3", {"f1^2 f2^2/f^3": "-3", "f1^6/f^5": "12/5"}),
    "f1 f2 f3/f^2": _identity("f1 f2 f3/f^2", {"f2^3/f^2": "-1/2", "f1^2 f2^2/f^3": "1"}),
    "f2 f4/f^1": _identity(
        "f2 f4/f^1", {"f3^2/f^1": "-1", "f2^3/f^2": "-1/2", "f1^2 f2^2/f^3": "1"}
    ),
    # weight 8
    "f1^6 f2/f^6": _identity("f1^6 f2/f^6", {"f1^8/f^7": "6/7"}),
    "f1^5 f3/f^5": _identity("f1^5 f3/f^5", {"f1^4 f2^2/f^5": "-5", "f1^8/f^7": "30/7"}),
    "f1^3 f2 f3/f^4": _identity(
        "f1^3 f2 f3/f^4", {"f1^2 f2^3/f^4": "-3/2", "f1^4 f2^2/f^5": "2"}
    ),
    "f1 f2^2 f3/f^3": _identity(
        "f1 f2^2 f3/f^3", {"f2^4/f^3": "-1/3", "f1^2 f2^3/f^4": "1"}
    ),
    "f1^4 f4/f^4": _identity(
        "f1^4 f4/f^4",
        {"f1^2 f2^3/f^4": "6", "f1^4 f2^2/f^5": "-28", "f1^8/f^7": "120/7"},
    ),
    "f1^2 f2 f4/f^3": _identity(
        "f1^2 f2 f4/f^3",
        {
            "f2^4/f^3": "2/3",
            "f1^2 f2^3/f^4": "-13/2",
            "f1^2 f3^2/f^3": "-1",
            "f1^4 f2^2/f^5": "6",
        },
    ),
    "f2^2 f4/f^2": _identity(
        "f2^2 f4/f^2",
        {"f2 f3^2/f^2": "-2", "f2^4/f^3": "-2/3", "f1^2 f2^3/f^4": "2"},
    ),
    "f1 f3 f4/f^2": _identity(
        "f1 f3 f4/f^2", {"f2 f3^2/f^2": "-1/2", "f1^2 f3^2/f^3": "1"}
    ),
    "f3 f5/f^1": _identity(
        "f3 f5/f^1",
        {"f4^2/f^1": "-1", "f2 f3^2/f^2": "-1/2", "f1^2 f3^2/f^3": "1"},
    ),
}


class IdentityCheck(NamedTuple):
    label: str
    passed: bool
    residual: Combination


def verify_ibp_identities() -> List[IdentityCheck]:
    """Reduce each identity's left side and compare with its right side exactly."""
    report = []
    for label, (lhs, rhs) in IBP_IDENTITIES.items():
        residual = reduce(lhs) - rhs
        report.append(IdentityCheck(label, residual.is_zero(), residual))
    return report
