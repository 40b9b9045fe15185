"""Isomorphic models as a metamorphic oracle for `classify_points`.

The substitution x = lam*x' + mu carries y^2 = f(x) to y^2 = f(lam*x' + mu).
Its leading coefficient lam^(2g+2) lc(f) is still a square, and the places
at infinity stay at infinity; oo+ and oo- swap when lam^(g+1) < 0.  Every
layer runs on other numbers: another f, other primes, other shifts in the
quadratic norms, other kernels.  Yet every class of X0(71) must get the
same verdict, and a split or ramified witness over p(x) must become the
witness over p(lam*x' + mu), made monic.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import X0_71_COEFFS
from oracles import poly
from primpoints.arith import UniPoly
from primpoints.formats import parse_mw_file
from primpoints.hyperell import INERT, curve_new
from primpoints.pipeline import classify_points

X0_71_MW = "order 35\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo-\n"


@lru_cache(maxsize=None)
def _verdicts(lam, mu, d):
    """{label: verdict} of classify_points on the model f(lam*x + mu)."""
    curve = curve_new(UniPoly.make(X0_71_COEFFS).compose(poly(mu, lam)))
    report = classify_points(curve, parse_mw_file(X0_71_MW, curve), d)
    return {v.label[0]: v for v in report.verdicts}


def _image_label(a, d, lam):
    """The label of a's class on the new model.  When oo+ and oo- swap, a
    class a*(oo+ - oo-) + shift maps to -(a + r)*(oo+ - oo-) + shift, as
    `_shift_divisor` puts the remainder r = d mod 2 at oo+; labels run over
    -17..17 modulo 35."""
    if lam ** 7 > 0:  # lam^(g+1), g = 6
        return a
    return (-a - d % 2 + 17) % 35 - 17


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("lam, mu", [(-1, 0), (2, 1), (Fraction(1, 3), -2)], ids=str)
def test_an_affine_change_of_model_keeps_every_verdict(lam, mu, d):
    old, new = _verdicts(1, 0, d), _verdicts(lam, mu, d)
    assert len(new) == len(old) == 35
    for a, before in old.items():
        after = new[_image_label(a, d, lam)]
        assert (after.ell, after.outcome, after.subfield_degree) == (
            before.ell,
            before.outcome,
            before.subfield_degree,
        )
        if before.witness_minpoly is None:
            assert after.witness_minpoly is None
            continue
        assert after.witness_minpoly.degree == before.witness_minpoly.degree
        place = before.witness_divisor.terms[0][0]
        if place.branch != INERT:
            assert after.witness_minpoly == before.witness_minpoly.compose(poly(mu, lam)).monic()
