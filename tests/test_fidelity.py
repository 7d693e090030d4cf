import numpy as np
import pytest

from ptfidelity import (
    DegenerateDenominatorError,
    DimensionMismatchError,
    NoTransitionError,
    PartnerMismatchError,
    biorthogonal_eig,
    bisect_ep,
    chi_finite_difference,
    chi_perturbative,
    chi_real_part,
    chi_rr_perturbative,
    classify_pt,
    fidelity_variant,
    metricized_fidelity,
    one_half_ep_test,
    pt_partner_state,
    second_order_energy,
)
from ptfidelity.fidelity import PerturbationDirection
from ptfidelity.ssh import SshParams, bloch_matrix, single_particle_states

from conftest import (
    midpoint_bisection,
    random_pt_matrix,
    recording,
    reversal_permutation,
    ssh_broken_count,
)

SIGMA_Z_DIR = np.array([[1j, 0.0], [0.0, -1j]])


def pauli_plus_izlam(lam):
    return np.array([[1j * lam, 1.0], [1.0, -1j * lam]])


def ground_pair(H):
    es = biorthogonal_eig(H)
    g = es.ground_index()
    return es.left_vectors[g], es.right_vectors[:, g]


class TestMetricizedFidelity:
    def test_identical_states(self):
        l, r = ground_pair(pauli_plus_izlam(0.3))
        assert abs(metricized_fidelity(l, r, l, r) - 1.0) < 1e-12

    def test_hermitian_reduction(self, rng):
        A = rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 6))
        la, ra = ground_pair(A + A.T)
        lb, rb = ground_pair(B + B.T)
        F = metricized_fidelity(la, ra, lb, rb)
        assert abs(F - abs(np.vdot(ra, rb)) ** 2) < 1e-12

    def test_symbolic_two_level_value(self):
        # ground states of sigma_x + i*lam*sigma_z at lam = 0 and 0.1:
        # closed form 1/2 + 5*sqrt(11)/33 (real, slightly above 1 because
        # the susceptibility at lam = 0 is negative)
        la, ra = ground_pair(pauli_plus_izlam(0.0))
        lb, rb = ground_pair(pauli_plus_izlam(0.1))
        F = metricized_fidelity(la, ra, lb, rb)
        expected = 0.5 + 5.0 * np.sqrt(11.0) / 33.0
        assert abs(F - expected) < 1e-12

    def test_gauge_invariance(self, rng):
        la, ra = ground_pair(pauli_plus_izlam(0.2))
        lb, rb = ground_pair(pauli_plus_izlam(0.25))
        F0 = metricized_fidelity(la, ra, lb, rb)
        for _ in range(5):
            phase_a = np.exp(1j * rng.uniform(0, 2 * np.pi))
            phase_b = np.exp(1j * rng.uniform(0, 2 * np.pi))
            F1 = metricized_fidelity(la / phase_a, ra * phase_a,
                                     lb / phase_b, rb * phase_b)
            assert abs(F1 - F0) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            metricized_fidelity(np.ones(2), np.ones(2), np.ones(3), np.ones(3))


class TestFidelityVariants:
    def test_identical_states_all_tags(self):
        l, r = ground_pair(pauli_plus_izlam(0.4))
        for tag in ("metricized", "RR", "LR-half-sum", "LR-sqrt-abs", "LR-sqrt"):
            assert abs(fidelity_variant(tag, l, r, l, r) - 1.0) < 1e-12

    def test_rr_in_unit_interval_across_ep(self):
        # single-particle SSH states on either side of an exceptional momentum
        k = 3.0
        pa = SshParams(v1=1.08, v2=0.0, u=0.2, L=101)
        pb = SshParams(v1=1.13, v2=0.0, u=0.2, L=101)
        sa, sb = single_particle_states(k, pa), single_particle_states(k, pb)
        F = fidelity_variant("RR", sa.left_minus, sa.right_minus,
                             sb.left_minus, sb.right_minus)
        assert 0.0 <= F <= 1.0

    def test_sqrt_abs_identity(self, rng):
        la, ra = ground_pair(random_pt_matrix(8, rng))
        lb, rb = ground_pair(random_pt_matrix(8, rng))
        m = metricized_fidelity(la, ra, lb, rb)
        s = fidelity_variant("LR-sqrt-abs", la, ra, lb, rb)
        assert abs(s - np.sqrt(abs(m))) < 1e-12

    def test_unknown_tag(self):
        l, r = ground_pair(pauli_plus_izlam(0.0))
        with pytest.raises(ValueError):
            fidelity_variant("bogus", l, r, l, r)


class TestChiFiniteDifference:
    def test_unit_fidelity(self):
        assert chi_finite_difference(1.0, 1e-3) == 0.0

    def test_arithmetic(self):
        assert abs(chi_finite_difference(1.0 - 2.5e-6, 1e-3) - 2.5) < 1e-9

    def test_epsilon_guard(self):
        with pytest.raises(ValueError):
            chi_finite_difference(1.0, 0.0)


class TestChiPerturbative:
    def test_identity_direction_vanishes(self, rng):
        H = random_pt_matrix(6, rng)
        es = biorthogonal_eig(H)
        chi = chi_perturbative(es, np.eye(6), es.ground_index())
        assert abs(chi) < 1e-10

    def test_two_level_hand_value(self):
        # sigma_x with direction i*sigma_z at lam = 0: chi = -1/4
        es = biorthogonal_eig(pauli_plus_izlam(0.0))
        chi = chi_perturbative(es, SIGMA_Z_DIR, es.ground_index())
        assert abs(chi - (-0.25)) < 1e-12

    def test_matches_ssh_closed_form_per_momentum(self):
        from ptfidelity.ssh import bloch_dv1, chi_k_metricized

        for k, v1, u in [(2.8, 0.9, 0.3), (1.2, 1.4, 0.1), (3.3, 1.05, 0.25)]:
            p = SshParams(v1=v1, v2=0.0, u=u, L=8)
            es = biorthogonal_eig(bloch_matrix(k, p))
            chi = chi_perturbative(es, bloch_dv1(k), es.ground_index())
            assert abs(chi - chi_k_metricized(k, p)) < 1e-10

    def test_degenerate_denominator(self):
        es = biorthogonal_eig(np.diag([1.0 + 0j, 1.0 + 1e-14, 3.0]))
        with pytest.raises(DegenerateDenominatorError):
            chi_perturbative(es, np.eye(3), 0)

    def test_finite_difference_consistency(self, rng):
        # |chi_fd(eps) - chi_pert| shrinks linearly in eps
        H0 = random_pt_matrix(10, rng)
        V = random_pt_matrix(10, rng)
        lam = 0.35
        es = biorthogonal_eig(H0 + lam * V)
        g = es.ground_index()
        chi = chi_perturbative(es, V, g)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            la, ra = ground_pair(H0 + lam * V)
            lb, rb = ground_pair(H0 + (lam + eps) * V)
            F = metricized_fidelity(la, ra, lb, rb)
            errs.append(abs(chi_finite_difference(F, eps) - chi))
        slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
        assert 0.8 < slope < 1.2


class TestSecondOrderEnergy:
    def test_identity_direction_vanishes(self, rng):
        H = random_pt_matrix(5, rng)
        es = biorthogonal_eig(H)
        assert abs(second_order_energy(es, np.eye(5), es.ground_index())) < 1e-10

    def test_hermitian_hand_value(self):
        # sigma_x ground state, direction sigma_z: E2 = 1/(E0 - E1) = -1/2
        es = biorthogonal_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        e2 = second_order_energy(es, np.diag([1.0, -1.0]), es.ground_index())
        assert abs(e2 - (-0.5)) < 1e-12

    def test_matches_energy_finite_difference(self, rng):
        H0 = random_pt_matrix(8, rng)
        V = random_pt_matrix(8, rng)
        lam, eps = 0.2, 1e-4

        def ground_energy(x):
            es = biorthogonal_eig(H0 + x * V)
            return es.eigenvalues[es.ground_index()]

        es = biorthogonal_eig(H0 + lam * V)
        e2 = second_order_energy(es, V, es.ground_index())
        fd = (ground_energy(lam + eps) - 2 * ground_energy(lam)
              + ground_energy(lam - eps)) / eps**2
        assert abs(fd - 2 * e2) < 1e-3 * max(1, abs(e2))


class TestChiRR:
    def test_hermitian_reduces_to_metricized(self, rng):
        A = rng.standard_normal((7, 7))
        H = A + A.T
        V = rng.standard_normal((7, 7))
        V = V + V.T
        es = biorthogonal_eig(H)
        g = es.ground_index()
        assert abs(chi_rr_perturbative(es, V, g)
                   - chi_perturbative(es, V, g)) < 1e-10

    def test_real_nonnegative(self, rng):
        for _ in range(4):
            H = random_pt_matrix(9, rng)
            V = random_pt_matrix(9, rng)
            es = biorthogonal_eig(H)
            chi = chi_rr_perturbative(es, V, es.ground_index())
            assert abs(chi.imag) < 1e-10 * max(1, abs(chi))
            assert chi.real > -1e-12


class TestChiRealPart:
    def test_trivial_average(self):
        assert chi_real_part(2.0 + 3.0j, 2.0 - 3.0j) == 2.0

    def test_unbroken_passthrough(self):
        assert chi_real_part(1.5 + 0j, 1.5 + 0j) == 1.5

    def test_partner_mismatch(self):
        with pytest.raises(PartnerMismatchError):
            chi_real_part(1.0 + 1.0j, 1.0 + 0.9j)

    def test_conjugate_pair_identity_random_broken(self, rng):
        # chi from the PT partner equals conj(chi from the ground state)
        for _ in range(6):
            H = random_pt_matrix(10, rng, scale_imag=1.5)
            V = random_pt_matrix(10, rng)
            es = biorthogonal_eig(H)
            cls = classify_pt(es)
            g = es.ground_index()
            if not cls.is_broken(g):
                continue
            partner = pt_partner_state(es, cls, g)
            chi_g = chi_perturbative(es, V, g)
            chi_p = chi_perturbative(es, V, partner)
            assert abs(chi_p - np.conj(chi_g)) < 1e-9 * max(1, abs(chi_g))
            chi_real_part(chi_g, chi_p, tol_pair_chi=1e-9)

    def test_near_ep_negative_and_growing(self):
        # approach the broken side of the k = pi/2 block EP geometrically
        k = np.pi / 2
        u_ep = np.sqrt(2.0)
        values = []
        for d in (1e-2, 1e-3, 1e-4):
            p = SshParams(v1=1.0, v2=0.0, u=u_ep + d, L=4)
            es = biorthogonal_eig(bloch_matrix(k, p))
            cls = classify_pt(es)
            g = es.ground_index()
            partner = pt_partner_state(es, cls, g)
            from ptfidelity.ssh import bloch_dv1

            chi_g = chi_perturbative(es, bloch_dv1(k), g)
            chi_p = chi_perturbative(es, bloch_dv1(k), partner)
            values.append(chi_real_part(chi_g, chi_p, tol_pair_chi=1e-7))
        assert all(v < 0 for v in values)
        assert abs(values[1]) > abs(values[0])
        assert abs(values[2]) > abs(values[1])


class TestOneHalf:
    @staticmethod
    def _ssh_block_state_fn(k, p_template):
        def state_fn(v1):
            p = SshParams(v1=v1, v2=p_template.v2, u=p_template.u, L=p_template.L)
            s = single_particle_states(k, p)
            cls = "broken" if s.branch == "broken" else "unbroken"
            return s.left_minus, s.right_minus, cls
        return state_fn

    def test_ssh_block_gives_exactly_half(self):
        k = 2 * np.pi * 48 / 101
        p = SshParams(v1=1.0, v2=0.0, u=0.2, L=101)
        v1_ep = -np.cos(k) + np.sqrt(np.cos(k) ** 2 - 1 + p.u**2)
        result = one_half_ep_test(self._ssh_block_state_fn(k, p),
                                  v1_ep - 1e-9, v1_ep + 1e-9)
        assert result.is_second_order
        assert result.n_crossings == 1
        eps, F = result.re_f_trace[-1]
        assert abs(F.real - 0.5) < 1e-9

    def test_asymmetric_limits_agree(self):
        k = 2 * np.pi * 48 / 101
        p = SshParams(v1=1.0, v2=0.0, u=0.2, L=101)
        v1_ep = -np.cos(k) + np.sqrt(np.cos(k) ** 2 - 1 + p.u**2)
        sym = one_half_ep_test(self._ssh_block_state_fn(k, p),
                               v1_ep - 1e-9, v1_ep + 1e-9, a=0.5, b=0.5)
        asym = one_half_ep_test(self._ssh_block_state_fn(k, p),
                                v1_ep - 1e-9, v1_ep + 1e-9, a=2 / 3, b=1 / 3)
        assert abs(sym.re_f_trace[-1][1].real - asym.re_f_trace[-1][1].real) < 1e-3

    def test_product_reports_crossing_count(self):
        # two independent crossing modes: Re F -> (1/2)^2
        k = 2 * np.pi * 48 / 101
        p = SshParams(v1=1.0, v2=0.0, u=0.2, L=101)
        v1_ep = -np.cos(k) + np.sqrt(np.cos(k) ** 2 - 1 + p.u**2)
        base = self._ssh_block_state_fn(k, p)

        def fid_fn(sa, sb):
            F = metricized_fidelity(sa.left, sa.right, sb.left, sb.right)
            return F * F      # mirror momentum contributes the same factor

        result = one_half_ep_test(base, v1_ep - 1e-9, v1_ep + 1e-9,
                                  fidelity_fn=fid_fn)
        assert result.is_second_order
        assert result.n_crossings == 2

    def test_no_transition_raises(self):
        k = 2 * np.pi * 10 / 101
        p = SshParams(v1=0.5, v2=0.0, u=0.05, L=101)
        with pytest.raises(NoTransitionError):
            one_half_ep_test(self._ssh_block_state_fn(k, p), 0.4, 0.6)

    @pytest.mark.parametrize("options", [
        {"epsilon_schedule": (1e-2, 0.0)},
        {"epsilon_schedule": (-1e-3,)},
        {"epsilon_schedule": (1e-2, float("nan"))},
        {"epsilon_schedule": (float("inf"),)},
        {"a": -1.0},
        {"b": 0.0},
        {"a": float("nan")},
    ], ids=["zero", "negative", "nan", "inf", "negative-a", "zero-b", "nan-a"])
    def test_invalid_option_raises_before_any_state(self, options):
        def state_fn(lam):
            raise AssertionError("state_fn called before the options were checked")

        with pytest.raises(ValueError):
            one_half_ep_test(state_fn, 0.4, 0.6, **options)


class TestBisectEP:
    def test_brackets_known_root(self):
        lo, hi = bisect_ep(lambda x: x > 0.37, 0.0, 1.0, tol=1e-9)
        assert hi - lo <= 1e-9
        assert lo <= 0.37 <= hi

    def test_same_class_raises(self):
        with pytest.raises(NoTransitionError):
            bisect_ep(lambda x: True, 0.0, 1.0)


ROOT = 0.3712345678
# weights of a transition at ROOT, as functions of x - ROOT
WEIGHTS = {
    "linear": abs,
    "kinked": lambda d: (4.0 if d > 0 else 1.0) * abs(d),
    "quadratic": lambda d: d * d,
    "constant": lambda d: 3.7,
    # the interpolation always lands next to one end of the bracket
    "vanishing-broken": lambda d: 1e-12 if d > 0 else 1.0,
    "vanishing-unbroken": lambda d: 1.0 if d > 0 else 0.0,
    "erratic": lambda d: 1.0 + np.sin(1e7 * d),
}


class TestItpBracketSearch:
    @pytest.mark.parametrize("make_probe, lo, hi, tol", [
        (lambda: (lambda x: x > 0.37), 0.0, 1.0, 1e-9),
        # criterion 04's probe: has the count of broken momenta changed?
        (lambda: (lambda v: ssh_broken_count(v) != ssh_broken_count(1.08)),
         1.08, 1.13, 1e-8),
    ], ids=["step", "ssh-count"])
    def test_boolean_probe_is_bisection(self, make_probe, lo, hi, tol):
        probe, probed = recording(make_probe())
        bracket = bisect_ep(probe, lo, hi, tol=tol)
        ref_bracket, ref_probed = midpoint_bisection(make_probe(), lo, hi, tol)
        assert probed == ref_probed
        assert bracket == ref_bracket

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("name", WEIGHTS)
    def test_at_most_one_probe_beyond_bisection(self, name, tol):
        weight = WEIGHTS[name]
        probe, probed = recording(lambda x: (x > ROOT, weight(x - ROOT)))
        lo, hi = bisect_ep(probe, 0.0, 1.0, tol=tol)
        _, ref_probed = midpoint_bisection(lambda x: x > ROOT, 0.0, 1.0, tol)
        assert len(probed) <= len(ref_probed) + 1
        assert lo <= ROOT < hi
        assert hi - lo <= tol

    def test_linear_weight_converges_superlinearly(self):
        probe, probed = recording(lambda x: (x > ROOT, abs(x - ROOT)))
        lo, hi = bisect_ep(probe, 0.0, 1.0, tol=1e-12)
        _, ref_probed = midpoint_bisection(lambda x: x > ROOT, 0.0, 1.0, 1e-12)
        assert lo <= ROOT < hi and hi - lo <= 1e-12
        assert 3 * len(probed) <= len(ref_probed)

    @pytest.mark.parametrize("lo, hi, tol", [
        (0.0, 1.0, 0.0), (0.0, 1.0, -1.0), (0.0, 1.0, np.nan),
        (0.0, 1.0, np.inf), (0.6, 0.0, 1e-6), (0.5, 0.5, 1e-6),
        (0.0, np.inf, 1e-6), (np.nan, 1.0, 1e-6),
    ])
    def test_bad_bracket_raises_before_probing(self, lo, hi, tol):
        probe, probed = recording(lambda x: x > 0.37)
        with pytest.raises(ValueError):
            bisect_ep(probe, lo, hi, tol=tol)
        assert probed == []


class TestPerturbationDirection:
    def test_pt_preserving_direction_validates(self, rng):
        V = random_pt_matrix(6, rng)
        d = PerturbationDirection(matrix=V, description="pt direction",
                                  pt_permutation=reversal_permutation(6))
        assert d.validate_pt() < 1e-12

    def test_pt_breaking_direction_rejected(self, rng):
        V = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        d = PerturbationDirection(matrix=V, pt_permutation=reversal_permutation(6))
        with pytest.raises(ValueError):
            d.validate_pt()
