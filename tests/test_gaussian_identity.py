"""The exact Gaussian identity: the integral of phi_s C_n is (-1)^(n+1) (n-1)! / s^n.

On N(0, s) each ratio f_m/f is (-1)^m He_m(z) / s^(m/2) with z = y/sqrt(s),
so a term f * prod (f_m/f)^k of weight 2n integrates to
s^(-n) E[prod ((-1)^m He_m(Z))^k].  Hermite polynomials and the moments of
Z are integers, so the integral of every C_n from ``entropy_derivative`` is
checked in exact arithmetic, with s scaled out: it must be twice the n-th
s-derivative of h = log(2 pi e s) / 2.  Nothing here loads numpy.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import heatcalc
from heatcalc.reduction import entropy_derivative


def _times(p, q):
    """The product of two integer polynomials, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


@lru_cache(maxsize=None)
def signed_hermite(m):
    """(-1)^m He_m, from (-1)^m He_m = -z (-1)^(m-1) He_(m-1) - (m-1) (-1)^(m-2) He_(m-2)."""
    if m < 2:
        return ((1,), (0, -1))[m]
    prev, last = signed_hermite(m - 2), signed_hermite(m - 1)
    out = [0] + [-c for c in last]
    for i, c in enumerate(prev):
        out[i] -= (m - 1) * c
    return tuple(out)


@lru_cache(maxsize=None)
def _power(m, k):
    return signed_hermite(m) if k == 1 else _times(_power(m, k - 1), signed_hermite(m))


def _moment(poly):
    """E[poly(Z)] for Z ~ N(0, 1): E[Z^j] = (j - 1)!! for even j, 0 for odd j."""
    total, double_factorial = 0, 1  # (j - 1)!! at j = 0
    for j in range(0, len(poly), 2):
        total += poly[j] * double_factorial
        double_factorial *= j + 1
    return total


def gaussian_integral(n):
    """s^n times the integral of phi_s C_n, exactly."""
    total = Fraction(0)
    for mono, coeff in entropy_derivative(n).items():
        poly = (1,)
        for m, k in mono.exps:
            poly = _times(poly, _power(m, k))
        total += coeff * _moment(poly)
    return total


def test_signed_hermite_polynomials():
    assert signed_hermite(2) == (-1, 0, 1)  # z^2 - 1
    assert signed_hermite(3) == (0, 3, 0, -1)  # -(z^3 - 3 z)
    assert signed_hermite(4) == (3, 0, -6, 0, 1)
    # E[He_m He_n] = m! when m = n, else 0
    for m in range(1, 7):
        for k in range(1, 7):
            moment = _moment(_times(signed_hermite(m), signed_hermite(k))) * (-1) ** (m + k)
            assert moment == (math.factorial(m) if m == k else 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_gaussian_integral_of_c_n_is_exact(n):
    assert gaussian_integral(n) == (-1) ** (n + 1) * math.factorial(n - 1)


def test_the_check_loads_no_numpy():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_gaussian_identity import gaussian_integral\n"
        "assert gaussian_integral(6) == -120\n"
        "print('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(heatcalc.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["False"]
