import os
import subprocess
import sys

import numpy as np
import pytest

from ptfidelity import (
    AtExceptionalMomentumError,
    GridCrossesEPError,
    biorthogonal_eig,
    chi_perturbative,
    chi_rr_perturbative,
    metricized_fidelity,
)
from ptfidelity.ssh import (
    GOLDEN_V2,
    SshParams,
    band_discriminant,
    band_point,
    bloch_dv1,
    bloch_matrix,
    chi_k_metricized,
    chi_k_rr,
    chi_total,
    complex_berry_phase,
    ep_momenta,
    ground_state_pt_class,
    many_body_fidelity,
    open_boundary_spectrum,
    positive_divergence_curve,
    positive_divergence_parametric_golden,
    re_mod_2pi,
    single_particle_states,
)
from ptfidelity.ssh import _Bands


class TestBlochMatrix:
    def test_flat_limit(self):
        # u = 0, v1 = v2 = 0: eta = -w = -1 at any momentum
        H = bloch_matrix(1.234, SshParams(v1=0.0, v2=0.0, u=0.0, L=4))
        assert np.allclose(H, [[0.0, -1.0], [-1.0, 0.0]])

    def test_vanishing_eta_at_pi(self):
        H = bloch_matrix(np.pi, SshParams(v1=1.0, v2=0.0, u=0.09, L=4))
        assert np.allclose(H, [[0.09j, 0.0], [0.0, -0.09j]], atol=1e-15)

    def test_traceless(self, rng):
        for _ in range(10):
            p = SshParams(v1=rng.uniform(0.1, 2), v2=rng.uniform(0, 2),
                          u=rng.uniform(0, 0.5), L=4)
            assert abs(np.trace(bloch_matrix(rng.uniform(0, 2 * np.pi), p))) < 1e-15

    def test_per_momentum_pt_commutation(self, rng):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(20):
            p = SshParams(v1=rng.uniform(0.1, 1.8), v2=rng.uniform(0, 1.7),
                          u=rng.uniform(0, 0.6), L=4)
            H = bloch_matrix(rng.uniform(0, 2 * np.pi), p)
            assert np.abs(H @ sx - sx @ np.conj(H)).max() < 1e-14


class TestBandPoint:
    def test_hermitian_gap_closing(self):
        bp = band_point(np.pi, SshParams(v1=1.0, v2=0.0, u=0.0, L=4))
        assert bp.branch == "ep"
        assert abs(bp.delta) < 1e-12

    def test_finite_grid_all_real(self):
        # far from the EP lines every grid momentum stays on the real branch
        p = SshParams(v1=0.85, v2=0.0, u=0.09, L=101)
        assert all(band_point(k, p).branch == "real" for k in p.momenta())
        assert ground_state_pt_class(p) == "unbroken"

    def test_ep_location_closed_form(self):
        p = SshParams(v1=1.0, v2=0.0, u=0.2, L=4)
        k = np.arccos(-0.98)
        assert abs(band_point(k, p).delta) < 1e-12

    def test_broken_branch_energies(self):
        p = SshParams(v1=1.0, v2=0.0, u=np.sqrt(2.0 + 0.01), L=4)
        bp = band_point(np.pi / 2, p)     # Delta = -0.01
        assert bp.branch == "broken"
        assert abs(bp.energy_plus - 0.1j) < 1e-12
        assert abs(bp.energy_minus + 0.1j) < 1e-12


class TestSingleParticleStates:
    @pytest.mark.parametrize("v1,v2,u,k", [
        (0.85, 0.0, 0.09, 3.0),        # real branch
        (0.92, 0.0, 0.09, 3.1),        # broken branch near pi
        (1.3, GOLDEN_V2, 0.25, 2.4),   # golden ladder
        (0.6, 0.8, 0.3, 5.1),
    ])
    def test_biorthonormality_both_branches(self, v1, v2, u, k):
        p = SshParams(v1=v1, v2=v2, u=u, L=8)
        s = single_particle_states(k, p)
        H = bloch_matrix(k, p)
        for sigma in (+1, -1):
            l, r, e = s.left(sigma), s.right(sigma), s.energy(sigma)
            assert np.abs(H @ r - e * r).max() < 1e-12
            assert np.abs(l @ H - e * l).max() < 1e-12
            assert abs(l @ r - 1.0) < 1e-11
            assert abs(np.vdot(r, r) - 1.0) < 1e-11
        assert abs(s.left(+1) @ s.right(-1)) < 1e-11
        assert abs(s.left(-1) @ s.right(+1)) < 1e-11

    def test_hermitian_left_is_conjugate(self):
        s = single_particle_states(2.0, SshParams(v1=0.7, v2=0.0, u=0.0, L=8))
        assert np.abs(s.left_minus - np.conj(s.right_minus).T).max() < 1e-12

    def test_exceptional_momentum_raises(self):
        p = SshParams(v1=1.0, v2=0.0, u=0.2, L=4)
        with pytest.raises(AtExceptionalMomentumError):
            single_particle_states(np.arccos(-0.98), p)


class TestChiK:
    def test_hermitian_point_value(self):
        # u = 0, v2 = 0, v1 = 1, k = pi/2: numerator sin^2 = 1, Delta = 2
        chi = chi_k_metricized(np.pi / 2, SshParams(v1=1.0, v2=0.0, u=0.0, L=4))
        assert abs(chi - 1.0 / 16.0) < 1e-14

    def test_negative_on_broken_branch(self, rng):
        for _ in range(20):
            v1 = rng.uniform(0.85, 1.15)
            u = rng.uniform(0.05, 0.4)
            p = SshParams(v1=v1, v2=0.0, u=u, L=8)
            ks = np.linspace(0, 2 * np.pi, 400)
            deltas = band_discriminant(ks, p)
            for k, d in zip(ks, deltas):
                if d < -1e-4:
                    assert chi_k_metricized(k, p) < 0

    def test_matches_generic_two_band_formula(self, rng):
        from ptfidelity.fidelity import metricized_fidelity

        for _ in range(40):
            v2 = rng.choice([0.0, GOLDEN_V2])
            p = SshParams(v1=rng.uniform(0.2, 1.8), v2=float(v2),
                          u=rng.uniform(0, 0.5), L=8)
            k = rng.uniform(0, 2 * np.pi)
            if abs(band_discriminant(k, p)) < 5e-2:
                continue
            s = single_particle_states(k, p)
            V = bloch_dv1(k)
            chi_generic = ((s.left_minus @ V @ s.right_plus)
                           * (s.left_plus @ V @ s.right_minus)
                           / (s.energy_minus - s.energy_plus) ** 2)
            assert abs(chi_generic.imag) < 1e-10 * max(1, abs(chi_generic))
            assert abs(chi_k_metricized(k, p) - chi_generic) < 1e-10 * max(
                1, abs(chi_generic))

    def test_band_symmetry(self, rng):
        for _ in range(20):
            p = SshParams(v1=rng.uniform(0.2, 1.8), v2=rng.uniform(0, 1.6),
                          u=rng.uniform(0, 0.5), L=8)
            k = rng.uniform(0, 2 * np.pi)
            if abs(band_discriminant(k, p)) < 1e-2:
                continue
            s = single_particle_states(k, p)
            V = bloch_dv1(k)
            chi_minus = ((s.left_minus @ V @ s.right_plus)
                         * (s.left_plus @ V @ s.right_minus)
                         / (s.energy_minus - s.energy_plus) ** 2)
            chi_plus = ((s.left_plus @ V @ s.right_minus)
                        * (s.left_minus @ V @ s.right_plus)
                        / (s.energy_plus - s.energy_minus) ** 2)
            assert abs(chi_plus - chi_minus) < 1e-12 * max(1, abs(chi_minus))


class TestChiKRR:
    def test_hermitian_equals_metricized(self, rng):
        for _ in range(15):
            p = SshParams(v1=rng.uniform(0.2, 1.8), v2=rng.uniform(0, 1.6),
                          u=0.0, L=8)
            k = rng.uniform(0, 2 * np.pi)
            if band_discriminant(k, p) < 1e-2:
                continue
            assert abs(chi_k_rr(k, p) - chi_k_metricized(k, p)) < 1e-10 * max(
                1, abs(chi_k_metricized(k, p)))

    def test_matches_double_sum_oracle(self, rng):
        for _ in range(40):
            v2 = rng.choice([0.0, GOLDEN_V2, rng.uniform(0, 1.5)])
            p = SshParams(v1=rng.uniform(0.2, 1.8), v2=float(v2),
                          u=rng.uniform(0.02, 0.5), L=8)
            k = rng.uniform(0, 2 * np.pi)
            if abs(band_discriminant(k, p)) < 5e-2:
                continue
            es = biorthogonal_eig(bloch_matrix(k, p))
            oracle = chi_rr_perturbative(es, bloch_dv1(k), es.ground_index())
            assert abs(chi_k_rr(k, p) - oracle) < 1e-10 * max(1, abs(oracle))

    def test_broken_branch_sign_bookkeeping(self):
        # Delta < 0 and Upsilon fix the sign: compare against the oracle
        p = SshParams(v1=1.0, v2=0.0, u=0.3, L=8)
        k = np.pi - 0.05
        assert band_discriminant(k, p) < 0
        es = biorthogonal_eig(bloch_matrix(k, p))
        oracle = chi_rr_perturbative(es, bloch_dv1(k), es.ground_index())
        assert abs(chi_k_rr(k, p) - oracle) < 1e-9 * max(1, abs(oracle))


class TestManyBody:
    def test_identical_parameters_give_unity(self):
        p = SshParams(v1=0.9, v2=0.0, u=0.1, L=51)
        mb = many_body_fidelity(p, 0.9, 0.9)
        assert abs(mb.value - 1.0) < 1e-12

    def test_two_crossing_momenta_at_one_half(self):
        p = SshParams(v1=1.08, v2=0.0, u=0.2, L=101)
        mb = many_body_fidelity(p, 1.08, 1.13)
        pa = SshParams(v1=1.08, v2=0.0, u=0.2, L=101)
        pb = SshParams(v1=1.13, v2=0.0, u=0.2, L=101)
        crossings = [
            m for m, k in enumerate(p.momenta())
            if (band_discriminant(k, pa) > 0) != (band_discriminant(k, pb) > 0)
        ]
        assert len(crossings) == 2
        for m in crossings:
            assert abs(mb.per_k[m].real - 0.5) < 1e-9
        # wide-bracket product sits near (1/2)^2 only approximately
        assert abs(mb.value.real - 0.25) < 0.05

    def test_chi_total_far_from_peak_is_small(self):
        far = chi_total(SshParams(v1=0.85, v2=0.0, u=0.09, L=101))
        near = chi_total(SshParams(v1=0.995, v2=0.0, u=0.09, L=101))
        assert 0 < far.value / 101 < 1.0
        assert near.value / 101 > 5.0

    def test_exceptional_grid_point_reports_index(self):
        # u chosen so the m = 25 momentum is exactly exceptional
        p = SshParams(v1=1.0, v2=0.0, u=0.0, L=4)   # k = pi at m = 2
        with pytest.raises(AtExceptionalMomentumError) as err:
            chi_total(p)
        assert err.value.momentum_index == 2

    def test_exceptional_momentum_on_second_endpoint(self):
        # only the v1 = 1 endpoint puts k = pi (m = 2) on its EP
        with pytest.raises(AtExceptionalMomentumError) as err:
            many_body_fidelity(SshParams(v1=0.5, u=0.0, L=4), 0.5, 1.0)
        assert err.value.momentum_index == 2
        assert err.value.k == pytest.approx(np.pi)


@pytest.fixture
def mp():
    """``mpmath`` at 50 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath


class TestNearEpPrecision:
    """A v1 step next to the EP of momenta 49 and 52 (u = 0.2, L = 101),
    where Delta_k ~ -1.35e-6 is a small difference of O(1) terms.  The
    references take the same double inputs as the program (w = 1, v2 = 0)."""

    V1, U, L = 1.1716133978951926, 0.2, 101

    def mp_delta(self, mp, k, v1):
        k, v1 = mp.mpf(float(k)), mp.mpf(v1)
        return (1 + v1 * mp.cos(k)) ** 2 + (v1 * mp.sin(k)) ** 2 - mp.mpf(self.U) ** 2

    def mp_fidelity(self, mp, v1_a, v1_b):
        """Lower-band metricized fidelity: ``f_k`` is
        ``(L_a R_b)(L_b R_a) / ((L_a R_a)(L_b R_b))`` with the right vector
        ``(eta, E - iu)`` and the left covector ``(conj eta, E - iu)``."""
        def dot(x, y):
            return x[0] * y[0] + x[1] * y[1]

        F = mp.mpf(1)
        for k in SshParams(v1=v1_a, u=self.U, L=self.L).momenta():
            states = []
            for v1 in (v1_a, v1_b):
                d = self.mp_delta(mp, k, v1)
                E = -mp.sqrt(d) if d > 0 else -1j * mp.sqrt(-d)
                eta = -1 - mp.mpf(v1) * mp.exp(-1j * mp.mpf(float(k)))
                lower = E - 1j * mp.mpf(self.U)
                states.append(((eta, lower), (mp.conj(eta), lower)))
            (ra, la), (rb, lb) = states
            F *= dot(la, rb) * dot(lb, ra) / (dot(la, ra) * dot(lb, rb))
        return complex(F)

    @pytest.mark.parametrize("shift", [0.0, 1e-3])
    def test_discriminant_relative_error(self, mp, shift):
        p = SshParams(v1=self.V1 + shift, u=self.U, L=self.L)
        ks = p.momenta()
        delta = band_discriminant(ks, p)
        assert np.min(np.abs(delta)) < 1e-3      # momenta 49 and 52 sit next to their EP
        for k, d in zip(ks, delta):
            ref = self.mp_delta(mp, k, p.v1)
            assert abs((mp.mpf(float(d)) - ref) / ref) < 1e-10

    def test_fidelity_against_fifty_digits(self, mp):
        p = SshParams(v1=self.V1, u=self.U, L=self.L)
        F = many_body_fidelity(p, self.V1, self.V1 + 1e-3).value
        assert abs(F.real - 20.9634970765) < 1e-6      # far from 1: next to the EP
        assert abs(F - self.mp_fidelity(mp, self.V1, self.V1 + 1e-3)) <= 1.5e-9


class TestEPGeometry:
    def test_v2_zero_closed_form(self):
        geo = ep_momenta(SshParams(v1=1.0, v2=0.0, u=0.2, L=101))
        assert len(geo.k_ep) == 2
        for k in geo.k_ep:
            assert abs(band_discriminant(k, SshParams(v1=1.0, v2=0.0, u=0.2, L=101))) < 1e-10
            assert abs(np.cos(k) - (-0.98)) < 1e-12
        assert abs(sum(geo.k_ep) - 2 * np.pi) < 1e-12   # symmetric about pi
        assert geo.l0 is not None and geo.l0 > 0

    def test_hermitian_line_root_at_minus_one(self):
        geo = ep_momenta(SshParams(v1=1.0, v2=0.0, u=0.0, L=101))
        assert len(geo.k_ep) == 1
        assert abs(geo.k_ep[0] - np.pi) < 1e-7
        assert geo.line_intercepts == (1.0, 1.0)

    def test_golden_broken_portions_centered(self):
        # on the v1 = v2 critical line the gap closes at cos k = -1/(2 v2),
        # so small u opens two symmetric broken windows around those momenta
        p = SshParams(v1=GOLDEN_V2, v2=GOLDEN_V2, u=0.05, L=505)
        geo = ep_momenta(p)
        assert len(geo.k_ep) == 4
        center = float(np.arccos(-1.0 / (2 * GOLDEN_V2)))   # = 3*pi/5
        assert abs(center - 3 * np.pi / 5) < 1e-12
        windows = [0.5 * (geo.k_ep[0] + geo.k_ep[1]),
                   0.5 * (geo.k_ep[2] + geo.k_ep[3])]
        assert abs(windows[0] - center) < 1e-3
        assert abs(windows[1] - (2 * np.pi - center)) < 1e-3

    def test_straight_lines(self):
        geo = ep_momenta(SshParams(v1=0.9, v2=0.3, u=0.25, L=101))
        assert geo.line_intercepts == (1.25, 0.75)

    def test_discriminant_curve_has_double_roots(self):
        geo = ep_momenta(SshParams(v1=1.0, v2=GOLDEN_V2, u=0.1, L=101))
        assert len(geo.discriminant_curve) > 0
        for v1, u in geo.discriminant_curve[::25]:
            q = SshParams(v1=float(v1), v2=GOLDEN_V2, u=float(u), L=101)
            ks = np.linspace(0, 2 * np.pi, 2000)
            assert band_discriminant(ks, q).min() > -1e-6  # grazing contact


class TestPositiveDivergence:
    def test_v2_zero_circle(self):
        curve = positive_divergence_curve(v2=0.0)
        assert len(curve) > 0
        # locus is the unit circle u = sqrt(1 - v1^2); v1 = 0.6 -> u = 0.8
        # (quadratic-formula rounding at the double root limits precision)
        on_circle = np.hypot(curve[:, 1], curve[:, 2])
        assert np.abs(on_circle - 1.0).max() < 1e-7
        i = int(np.argmin(np.abs(curve[:, 1] - 0.6)))
        assert abs(curve[i, 2] - np.sqrt(1 - curve[i, 1] ** 2)) < 1e-7

    def test_passes_through_hermitian_critical_point(self):
        curve = positive_divergence_curve(v2=0.0)
        d = np.hypot(curve[:, 1] - 1.0, curve[:, 2])
        assert d.min() < 5e-3

    def test_golden_parametric_matches_general_solver(self):
        for k in (0.7, 1.9, 2.5, np.pi, 4.1):
            v1, u = positive_divergence_parametric_golden(k)
            p = SshParams(v1=float(v1), v2=GOLDEN_V2, u=float(u), L=8)
            from ptfidelity.ssh import chi_k_numerator

            assert abs(band_discriminant(k, p)) < 1e-9
            assert abs(chi_k_numerator(k, p)) < 1e-9

    def test_golden_parametric_at_pi(self):
        v1, u = positive_divergence_parametric_golden(np.pi)
        assert abs(v1 - (1.0 - 0.5 * (1 + np.sqrt(5)))) < 1e-12
        assert abs(u) < 1e-12


class TestOpenBoundary:
    def test_trivial_phase_no_modes(self):
        res = open_boundary_spectrum(SshParams(v1=0.5, v2=0.0, u=0.1, L=40))
        assert len(res.boundary_modes) == 0

    def test_topological_phase_two_modes(self):
        res = open_boundary_spectrum(SshParams(v1=1.5, v2=0.0, u=0.1, L=40))
        assert len(res.boundary_modes) == 2
        sides = sorted(m.side for m in res.boundary_modes)
        assert sides == ["left", "right"]
        for m in res.boundary_modes:
            # left edge lives on the loss leg, right edge on the gain leg
            if m.side == "left":
                assert m.down_weight > 0.95
                assert abs(m.eigenvalue - (-0.1j)) < 1e-3
            else:
                assert m.up_weight > 0.95
                assert abs(m.eigenvalue - 0.1j) < 1e-3

    def test_presence_threshold_independent_of_u(self):
        def detected(v1, u):
            res = open_boundary_spectrum(SshParams(v1=v1, v2=0.0, u=u, L=40))
            return len(res.boundary_modes) > 0

        grid = np.linspace(1.0, 1.8, 17)
        patterns = []
        for u in (0.05, 0.1, 0.15):
            patterns.append(tuple(detected(float(v1), u) for v1 in grid))
        assert patterns[0] == patterns[1] == patterns[2]


class TestBerryPhase:
    def test_hermitian_quantization(self):
        for v1, expected in ((0.5, 0.0), (1.5, np.pi)):
            bp = complex_berry_phase(SshParams(v1=v1, v2=0.0, u=0.0, L=8), band=-1)
            re = re_mod_2pi(bp.value)
            d = min(abs(re - expected), abs(re - expected - 2 * np.pi),
                    abs(re - expected + 2 * np.pi))
            assert d < 1e-6
            assert abs(bp.value.imag) < 1e-6

    def test_numeric_matches_analytic(self):
        for v1, u in ((0.5, 0.3), (1.5, 0.3), (0.2, 0.1), (1.8, 0.35)):
            p = SshParams(v1=v1, v2=0.0, u=u, L=8)
            num = complex_berry_phase(p, band=-1, method="numeric")
            ana = complex_berry_phase(p, band=-1, method="analytic")
            dre = (num.value.real - ana.value.real + np.pi) % (2 * np.pi) - np.pi
            assert abs(dre) < 1e-4
            assert abs(num.value.imag - ana.value.imag) < 1e-4

    def test_band_imaginary_parts_opposite(self):
        p = SshParams(v1=0.6, v2=0.0, u=0.2, L=8)
        lower = complex_berry_phase(p, band=-1)
        upper = complex_berry_phase(p, band=+1)
        assert abs(lower.value.imag + upper.value.imag) < 1e-6

    def test_grid_on_ep_raises(self):
        # u = |1 - v1| puts the EP exactly at k = pi, which the even grid hits
        p = SshParams(v1=0.7, v2=0.0, u=0.3, L=8)
        with pytest.raises(GridCrossesEPError):
            complex_berry_phase(p, band=-1, n_k=4096)

    @pytest.mark.parametrize("method", ["numeric", "analytic"])
    @pytest.mark.parametrize("n_k", [0, -3])
    def test_grid_without_points_raises(self, method, n_k):
        with pytest.raises(ValueError, match="n_k"):
            complex_berry_phase(SshParams(v1=0.5, v2=0.0, u=0.1, L=8),
                                method=method, n_k=n_k)

    def test_im_diverges_toward_boundary(self):
        vals = []
        for u in (0.35, 0.42, 0.47):
            p = SshParams(v1=0.5, v2=0.0, u=u, L=8)   # boundary at u = 0.5
            vals.append(abs(complex_berry_phase(p, band=-1).value.imag))
        assert vals[0] < vals[1] < vals[2]

    def test_package_import_leaves_out_scipy_integrate(self):
        # the analytic phase takes its elliptic integrals from scipy.special
        import ptfidelity

        src = os.path.dirname(os.path.dirname(ptfidelity.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, ptfidelity, ptfidelity.cli; "
                "print('scipy.integrate' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _close(a, b, rel=1e-12):
    """Max-norm agreement of ``a`` and ``b`` relative to the size of ``b``."""
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() <= rel * max(np.abs(b).max(), 1e-300)


class TestOneStackedPath:
    """The scalar views read the same stacked evaluation as the grid sums
    and the many-body product."""

    POINTS = [
        (0.85, 0.0, 0.09, 101),        # every momentum on the real branch
        (1.0, 0.0, 0.2, 100),          # broken around k = pi, where eta ~ 1e-16
        (1.3, GOLDEN_V2, 0.25, 60),    # both branches on the golden ladder
        (0.6, 0.8, 0.3, 37),           # both branches
    ]

    def test_points_cover_both_branches(self):
        branches = set()
        for v1, v2, u, L in self.POINTS:
            p = SshParams(v1=v1, v2=v2, u=u, L=L)
            delta = band_discriminant(p.momenta(), p)
            assert np.min(np.abs(delta)) > p.tol_delta
            branches |= {"real" if d > 0 else "broken" for d in delta}
        assert branches == {"real", "broken"}

    @pytest.mark.parametrize("v1,v2,u,L", POINTS)
    def test_scalar_views_match_the_grid(self, v1, v2, u, L):
        p = SshParams(v1=v1, v2=v2, u=u, L=L)
        bands = _Bands(p)
        left, right = bands.states(-1)
        e_plus, e_minus = bands.energies()
        chi = chi_total(p).per_k
        for m, k in enumerate(p.momenta()):
            bp = band_point(k, p)
            assert _close(bp.energy_plus, e_plus[m])
            assert _close(bp.energy_minus, e_minus[m])
            assert _close(chi_k_metricized(k, p), chi[m])
            s = single_particle_states(k, p)
            assert _close(s.energy_minus, e_minus[m])
            assert _close(s.left_minus, left[m])
            assert _close(s.right_minus, right[m])
            assert bloch_matrix(k, p)[0, 1] == bands.eta[m]

    def test_grid_states_are_the_many_body_factors(self):
        pa = SshParams(v1=1.0, u=0.2, L=100)
        pb = SshParams(v1=1.001, u=0.2, L=100)
        mb = many_body_fidelity(pa, pa.v1, pb.v1)
        for m, k in enumerate(pa.momenta()):
            sa, sb = single_particle_states(k, pa), single_particle_states(k, pb)
            f_k = metricized_fidelity(sa.left_minus, sa.right_minus,
                                      sb.left_minus, sb.right_minus)
            assert _close(f_k, mb.per_k[m])
        assert mb.value == complex(np.prod(mb.per_k))

    def test_scalar_views_raise_at_an_exceptional_momentum(self):
        p = SshParams(v1=1.0, v2=0.0, u=0.2, L=4)
        k = np.arccos(-0.98)            # Delta_k = 0
        for view in (single_particle_states, chi_k_metricized, chi_k_rr):
            with pytest.raises(AtExceptionalMomentumError) as err:
                view(k, p)
            assert err.value.k == pytest.approx(k)
        # band_point tags the momentum instead of raising
        bp = band_point(k, p)
        assert bp.branch == "ep"
        assert bp.energy_plus == bp.energy_minus == 0


class TestVanishingEta:
    """Where eta_k = 0 and u > 0 the Bloch block is diag(iu, -iu): not an
    EP, so both bands have biorthonormal states although u - |E_k| = 0."""

    CASES = [
        (np.pi, 1.0, 100),      # v1 + v2 = w at k = pi; eta ~ 1e-16 from sin(pi)
        (0.0, -1.0, 7),         # w + v1 + v2 = 0 at k = 0; eta is exactly 0
    ]

    @pytest.mark.parametrize("k,v1,L", CASES)
    def test_states_are_finite_and_biorthonormal(self, k, v1, L):
        p = SshParams(v1=v1, u=0.2, L=L)
        s = single_particle_states(k, p)
        H = bloch_matrix(k, p)
        for sigma in (+1, -1):
            l, r, e = s.left(sigma), s.right(sigma), s.energy(sigma)
            assert np.all(np.isfinite(l)) and np.all(np.isfinite(r))
            assert np.abs(H @ r - e * r).max() < 1e-12
            assert np.abs(l @ H - e * l).max() < 1e-12
            assert abs(l @ r - 1.0) < 1e-12
            assert abs(np.vdot(r, r) - 1.0) < 1e-12
        assert abs(s.left(+1) @ s.right(-1)) < 1e-12
        assert abs(s.left(-1) @ s.right(+1)) < 1e-12

    def test_exact_zero_takes_the_fixed_phase(self):
        s = single_particle_states(0.0, SshParams(v1=-1.0, u=0.2, L=7))
        assert np.array_equal(s.right_minus, [0, 1])
        assert np.array_equal(s.left_minus, [0, 1])
        assert s.energy_minus == -0.2j

    @pytest.mark.parametrize("k,v1,L", CASES)
    def test_fidelity_matches_dense_oracle(self, k, v1, L):
        pa = SshParams(v1=v1, u=0.2, L=L)
        pb = SshParams(v1=v1 + 1e-3, u=0.2, L=L)
        sa, sb = single_particle_states(k, pa), single_particle_states(k, pb)
        F = metricized_fidelity(sa.left_minus, sa.right_minus,
                                sb.left_minus, sb.right_minus)
        # the real parts of +/- iu are rounding noise, so the oracle's lower
        # band is the eigenvalue nearest E_-, not its first in (Re, Im) order
        pairs = []
        for s, p in ((sa, pa), (sb, pb)):
            es = biorthogonal_eig(bloch_matrix(k, p))
            n = int(np.argmin(np.abs(es.eigenvalues - s.energy_minus)))
            assert abs(es.eigenvalues[n] - s.energy_minus) < 1e-12
            pairs += [es.left_vectors[n], es.right_vectors[:, n]]
        assert abs(F - metricized_fidelity(*pairs)) <= 1e-12

    def test_berry_phase_is_finite_and_continuous(self):
        # n_k = 512 puts k = pi on the grid; v1 = 1 there is the left limit
        # (the real part is defined modulo 2 pi and switches branch at v1 = 1)
        at = complex_berry_phase(SshParams(v1=1.0, u=0.1), n_k=512).value
        below = complex_berry_phase(SshParams(v1=1.0 - 1e-9, u=0.1), n_k=512).value
        assert np.isfinite(at)
        assert abs(at - below) < 1e-6
