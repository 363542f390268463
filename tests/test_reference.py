import numpy as np
import pytest
from scipy.integrate import simpson

from cgoplane.reference import rhombus_functional


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 1.5, 1.9])
def test_closed_form_matches_a_2d_simpson_sum(t):
    # independent check of the sine/cosine-integral form: Simpson's rule on
    # the rotated square, 1025 points a side (about 40 per oscillation at lam = 8)
    lam = 8.0
    u = v = np.linspace(0.0, 2.0, 1025)
    integrand = np.exp(1j * lam * np.outer(v, u + 2.0 * t))
    brute = lam / (2 * np.pi) * simpson(simpson(integrand, x=u, axis=1), x=v)
    assert rhombus_functional(lam, t) == pytest.approx(brute, rel=1e-6)
