"""The positive mixture: its weights against 50-digit mpmath, and its pdf,
cdf, MGF and error rate against independent oracles at every point, not
only where the long-double pass hands points over."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from twdp import ModulationSpec, TwdpParams
from twdp.asep import _asep_pass
from twdp.dist import _cdf_pass, _pdf_pass
from twdp.mgf import _mgf_series_pass
from twdp.specfun import _MIX_MAX_TERMS, Pass, k_top, mixture_terms, mixture_weights

from conftest import asep_oracle, mgf_mp, phase_average_cdf, phase_average_pdf, to_mpf

REL = 1e-11
HIGH_K = [(14.0, 1.0), (30.0, 0.3), (60.0, 0.0), (60.0, 1.0), (90.0, 0.0), (90.0, 1.0)]


@functools.cache
def weights_reference(k: float, gamma: float, n: int) -> list:
    """w_0..w_(n-1) at 50 digits: the Poisson(a) law convolved with v_j =
    z^j (1/2)_j/(j!)^2 e^-z 1F1(1/2; j+1; z) (Kummer's form of the arcsine
    average), a = K (1-Gamma)^2/(1+Gamma^2), z = 4 K Gamma/(1+Gamma^2)."""
    with mp.workdps(50):
        k, g = mp.mpf(k), mp.mpf(gamma)
        a, z = k * (1 - g) ** 2 / (1 + g * g), 4 * k * g / (1 + g * g)
        poisson = [mp.exp(-a) * a ** i / mp.factorial(i) for i in range(n)]
        v = [z ** j * mp.rf(0.5, j) / mp.factorial(j) ** 2 * mp.exp(-z) * mp.hyp1f1(0.5, j + 1, z)
             if z else mp.mpf(j == 0) for j in range(n)]
        return [mp.fsum(poisson[i] * v[j - i] for i in range(j + 1)) for j in range(n)]


class TestWeights:
    @pytest.mark.parametrize("k", [8.0, 14.0, 90.0, 300.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_against_50_digit_mpmath(self, k, gamma):
        p = TwdpParams(k=k, gamma=gamma)
        n = mixture_terms(p)
        w = mixture_weights(p, n)
        ref = weights_reference(k, gamma, n)
        kt = int(k_top(p.k, p.gamma))
        with mp.workdps(30):
            for j in sorted({0, 1, kt // 2, kt, min(2 * kt, n - 1), n - 1}):
                assert abs(to_mpf(w[j]) / ref[j] - 1) <= 1e-13, j
            assert abs(to_mpf(w.sum()) - 1) <= 4e-15

    def test_positive_and_normalized_far_past_double_range(self):
        # the pdf's upper tail reaches weights far below 1e-308
        p = TwdpParams(k=14.0, gamma=1.0)
        w = mixture_weights(p, 400)
        assert (w > 0).all() and w[-1] < 1e-300
        assert abs(float(w.sum()) - 1) <= 4e-15


def mixture(pass_fn, size):
    """The mixture pass over all `size` points of a grid: (value, terms)."""
    value, _, n, trunc, ratio, converged = pass_fn(Pass("mixture", np.arange(size)))
    assert converged.all() and (ratio == 1.0).all()
    assert (trunc <= np.finfo(np.longdouble).eps).all()
    return value


@pytest.mark.parametrize("k,gamma", HIGH_K)
class TestAgainstOracles:
    """Both tails of every quantity, with no absolute floor."""

    R_NORM = np.array([0.02, 0.1, 0.5, 1.0, 1.5, 2.5, 3.5])

    def test_pdf(self, k, gamma):
        p = TwdpParams(k=k, gamma=gamma)
        r = self.R_NORM * math.sqrt(p.omega)
        got = mixture(lambda ps: _pdf_pass(p, r, ps), len(r))
        assert got == pytest.approx(phase_average_pdf(p, r), rel=REL, abs=0)

    def test_cdf(self, k, gamma):
        # the cdf's upper tail: x up to (sqrt(K') + 6)^2, where the clamp
        # to 1 takes over
        p = TwdpParams(k=k, gamma=gamma)
        r_top = (math.sqrt(k_top(p.k, p.gamma)) + 6.0) * math.sqrt(2 * p.sigma2)
        r = np.append(self.R_NORM[:4] * math.sqrt(p.omega), r_top * np.array([0.9, 1.0]))
        x = r.astype(np.longdouble) ** 2 / (2 * np.longdouble(p.sigma2))
        got = mixture(lambda ps: _cdf_pass(p, x, ps), len(x))
        assert got == pytest.approx(phase_average_cdf(p, r), rel=REL, abs=0)

    def test_mgf(self, k, gamma):
        p, gamma0 = TwdpParams(k=k, gamma=gamma), 10.0
        s = np.array([-1e3, -100.0, -10.0, -1.0, -0.01])
        got = mixture(lambda ps: _mgf_series_pass(p, gamma0, s, ps), len(s))
        assert got == pytest.approx([float(mgf_mp(p, gamma0, v)) for v in s], rel=REL, abs=0)

    @pytest.mark.parametrize("m_order", [2, 16])
    def test_error_rate(self, k, gamma, m_order):
        p, mod = TwdpParams(k=k, gamma=gamma), ModulationSpec(m_order)
        g0 = 10.0 ** (np.array([-10.0, 0.0, 20.0, 40.0]) / 10.0)
        got = mixture(lambda ps: _asep_pass(p, mod, g0, ps), len(g0))
        assert got == pytest.approx([asep_oracle(p, m_order, v) for v in g0], rel=REL, abs=0)


def test_cdf_point_past_the_budget_gives_up_only_itself():
    # K' = 2000: x = 5000 alone needs more than the 5,000 terms (the clamp
    # takes such a point first on a grid), x = 1 needs far fewer and keeps
    # what a pass of its own gives
    p = TwdpParams(k=1000.0, gamma=1.0)
    x = np.array([1.0, 5000.0], dtype=np.longdouble)
    assert mixture_terms(p, 5000.0) > _MIX_MAX_TERMS >= mixture_terms(p, 1.0)
    value, _, n, _, _, converged = _cdf_pass(p, x, Pass("mixture", np.arange(2)))
    alone = _cdf_pass(p, x[:1], Pass("mixture", np.arange(1)))
    assert converged.tolist() == [True, False] and n[1] == _MIX_MAX_TERMS
    assert value[0] == alone[0][0] and n[0] == alone[2][0]
