import math

import numpy as np
import pytest

from opentasep import (
    DomainError,
    J_star,
    J_upper,
    MonotoneStep,
    Profile,
    convex_envelope,
    entropy_h,
    fan_K_variational,
    finite_n_ldp_check,
    normalization_K,
    optimal_G,
    phase_info,
    rate_density,
    rate_density_variational,
    rate_height_report,
    rate_height_variational,
    rate_two_line,
    relative_entropy,
    shock_K_variational,
    sup_over_G,
)
from opentasep.rng import stream
import opentasep


# a slope-0 piece then a slope-1 piece: the clamp takes both ends of the band
KINK = Profile((0.0, 0.5, 1.0), (0.0, 0.0, 0.5))


def random_profile(rng, n_pieces, mesh=200):
    """Random admissible piecewise-linear profile with knots on the mesh."""
    ks = np.sort(rng.choice(np.arange(1, mesh), size=n_pieces - 1, replace=False)) / mesh
    ks = np.concatenate([[0.0], ks, [1.0]])
    slopes = rng.uniform(0.0, 1.0, size=len(ks) - 1)
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ks))])
    return Profile(tuple(ks), tuple(vals))


class TestProfile:
    def test_construction_and_eval(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.5, 0.5))
        assert f.at(0.25) == pytest.approx(0.25)
        assert f.at(0.75) == pytest.approx(0.5)
        assert f.endpoint() == 0.5
        assert f.admissible

    def test_inadmissible_slopes_flagged_not_rejected(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.75, 0.75))
        assert not f.admissible
        assert rate_height_report(f, 1.0, 1.0).rate == math.inf

    def test_at_and_mesh_equal_numpy(self):
        # ldp computes on Python floats; its interpolation and mesh must give
        # np.interp's and np.union1d(np.linspace(...), knots)'s floats exactly
        from opentasep.ldp import MESH_CELLS, _mesh

        rng = stream(51, 0)
        for knot_mesh in (60, 200, 997):
            for _ in range(5):
                f = random_profile(rng, int(rng.integers(2, 12)), mesh=knot_mesh)
                X = np.union1d(np.linspace(0.0, 1.0, MESH_CELLS + 1), f.knots)
                assert _mesh(f.knots) == X.tolist()
                for xs in (np.asarray(f.knots), X):
                    want = np.interp(xs, f.knots, f.values).tolist()
                    assert f.at(xs) == want
                    assert [f.at(float(x)) for x in xs] == want

    def test_invalid_construction(self):
        with pytest.raises(DomainError):
            Profile((0.0, 1.0), (0.1, 0.5))
        with pytest.raises(DomainError):
            Profile((0.1, 1.0), (0.0, 0.5))
        with pytest.raises(DomainError):
            Profile((0.0, 0.5, 0.5, 1.0), (0.0, 0.1, 0.2, 0.3))


class TestRateTwoLine:
    def test_zero_at_triple_point_lln(self):
        f = Profile.linear(0.5)
        assert rate_two_line(f, f, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_inadmissible_slope_infinite(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.75, 1.0))  # slope 1.5 on [0, 0.5]
        assert rate_two_line(f, Profile.linear(0.5), 1.0, 1.0) == math.inf

    def test_lln_pair_in_low_density(self):
        # at (2,1) the optimal pair is (rho x, (a/(1+a)) x); the equal pair
        # (rho x, rho x) costs 2h(1/3) - K > 0
        rho = Profile.linear(1 / 3)
        second = Profile.linear(2 / 3)
        assert rate_two_line(rho, second, 2.0, 1.0) == pytest.approx(0.0, abs=1e-14)
        expected = 2 * entropy_h(1 / 3) - math.log(2 / 9)
        assert rate_two_line(rho, rho, 2.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_on_random_profiles(self):
        rng = stream(40, 0)
        for a, b in [(0.5, 0.8), (2.0, 1.0), (3.0, 3.0), (1.0, 1.0)]:
            for _ in range(20):
                f1 = random_profile(rng, 5)
                f2 = random_profile(rng, 4)
                assert rate_two_line(f1, f2, a, b) >= -1e-10

    @pytest.mark.parametrize("a,b", [(1e-200, 1e-200), (1e160, 1e160)])
    def test_finite_where_ab_under_or_overflows(self, a, b):
        # ab rounds to 0 or inf; log a + log b does not
        f, g = Profile.linear(0.3), Profile((0.0, 0.5, 1.0), (0.0, 0.25, 0.4))
        assert math.isfinite(J_upper(f, g, a, b))
        assert math.isfinite(rate_two_line(f, g, a, b))


class TestConvexEnvelope:
    def test_identity_on_convex(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.2, 0.7))
        fe = convex_envelope(f)
        assert fe.knots == f.knots and fe.values == f.values

    def test_chord_of_concave(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.5, 0.5))
        fe = convex_envelope(f)
        assert fe.knots == (0.0, 1.0)
        assert fe.values == (0.0, 0.5)

    def test_envelope_properties_random(self):
        rng = stream(41, 0)
        for _ in range(50):
            f = random_profile(rng, 20)
            fe = convex_envelope(f)
            slopes = fe.slopes
            assert (np.diff(slopes) >= -1e-12).all()
            xs = np.linspace(0, 1, 101)
            assert (np.asarray(fe.at(xs)) <= np.asarray(f.at(xs)) + 1e-12).all()
            assert fe.at(0.0) == f.at(0.0) and fe.at(1.0) == pytest.approx(f.at(1.0))


class TestOptimalG:
    # levels are logits of G: G = 1/2 is level 0, G = a/(1+a) is level log a
    def test_degenerate_interval_at_triple_point(self):
        g = optimal_G(Profile.linear(0.5), 1.0, 1.0)
        assert g.levels == (0.0,)

    def test_no_clamping(self):
        g = optimal_G(Profile.linear(0.5), 0.5, 0.5)
        assert g.levels == (0.0,)
        assert g.x1 == 0.0 and g.x2 == 1.0

    def test_clamp_at_lower_bound(self):
        g = optimal_G(Profile.linear(0.0), 0.5, 0.5)
        assert g.levels == (pytest.approx(math.log(0.5)),)
        assert g.x1 == 1.0  # inf of an empty set

    def test_shock_rejected(self):
        with pytest.raises(DomainError):
            optimal_G(Profile.linear(0.5), 2.0, 1.0)

    def test_nonconvex_rejected(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.5, 0.5))
        with pytest.raises(DomainError):
            optimal_G(f, 0.5, 0.5)


class TestJFunctionals:
    def test_constant_half(self):
        half = MonotoneStep((0.0, 1.0), (0.0,))  # G = sigmoid(0) = 1/2
        f = Profile((0.0, 0.3, 1.0), (0.0, 0.3, 0.65))
        assert J_star(f, half) == pytest.approx(-math.log(2), rel=1e-14)

    def test_matched_slope(self):
        g = MonotoneStep((0.0, 1.0), (math.log(0.3 / 0.7),))
        assert J_star(Profile.linear(0.3), g) == pytest.approx(entropy_h(0.3), rel=1e-14)

    def test_contact_identity(self):
        # (f - envelope) G*' = 0, so J*(f, G*) = J*(envelope, G*)
        rng = stream(42, 0)
        for _ in range(30):
            f = random_profile(rng, 6)
            fe = convex_envelope(f)
            gs = optimal_G(fe, 0.5, 0.8)
            assert J_star(f, gs) == pytest.approx(J_star(fe, gs), abs=1e-12)

    def test_degenerate_example(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.5, 0.5))
        fe = convex_envelope(f)
        gs = optimal_G(fe, 0.5, 0.5)
        assert J_star(fe, gs) == pytest.approx(J_star(f, gs), abs=1e-14)

    def test_touching_levels_rejected(self):
        # G = 1 is the logit +inf, which a step refuses
        with pytest.raises(DomainError):
            J_star(Profile.linear(0.5), MonotoneStep((0.0, 1.0), (math.inf,)))

    def test_j_upper_at_integral_of_g_star(self):
        rng = stream(43, 0)
        for a, b in [(0.5, 0.8), (0.3, 0.6)]:
            for _ in range(15):
                fe = convex_envelope(random_profile(rng, 6))
                gs = optimal_G(fe, a, b)
                assert J_upper(fe, gs.integral_profile(), a, b) == pytest.approx(
                    J_star(fe, gs), abs=1e-12
                )

    def test_j_upper_vanishing_couplings(self):
        g = Profile((0.0, 0.4, 1.0), (0.0, 0.1, 0.6))
        f = Profile.linear(0.9)
        # at a=b=1 both coupling terms vanish
        expected = 0.4 * entropy_h(0.25) + 0.6 * entropy_h(5 / 6)
        assert J_upper(f, g, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_g_star_local_optimality(self):
        # random perturbations of g* never decrease J_upper on the fan side
        rng = stream(44, 0)
        a, b = 0.5, 0.8
        f = random_profile(rng, 5)
        fe = convex_envelope(f)
        g_star = optimal_G(fe, a, b).integral_profile()
        base = J_upper(f, g_star, a, b)
        xs = np.asarray(g_star.knots)
        ys = np.asarray(g_star.values)
        for _ in range(20):
            bump = rng.normal(0.0, 0.01, size=ys.size)
            bump[0] = 0.0
            pert = ys + bump
            slopes = np.diff(pert) / np.diff(xs)
            if ((slopes < 0) | (slopes > 1)).any():
                continue
            g = Profile(tuple(xs), tuple(pert))
            assert J_upper(f, g, a, b) >= base - 1e-10


class TestMonotoneChain:
    def test_chain_on_random_pairs(self):
        # J*(f, G) <= J*(envelope, G) <= J*(envelope, G*) for monotone G
        # with values in the clamp band
        rng = stream(45, 0)
        a, b = 0.5, 0.8
        lo, hi = a / (1 + a), 1 / (1 + b)
        for _ in range(100):
            f = random_profile(rng, 6)
            fe = convex_envelope(f)
            k = int(rng.integers(1, 5))
            if k > 1:
                inner = np.sort(rng.choice(np.arange(1, 40), size=k - 1, replace=False)) / 40
                edges = tuple(np.concatenate([[0.0], inner, [1.0]]))
            else:
                edges = (0.0, 1.0)
            p = np.sort(rng.uniform(lo, hi, size=k))
            G = MonotoneStep(edges, tuple(np.log(p) - np.log1p(-p)))  # logits of G
            g_star = optimal_G(fe, a, b)
            j_f = J_star(f, G)
            j_fe = J_star(fe, G)
            j_opt = J_star(fe, g_star)
            assert j_f <= j_fe + 1e-12
            assert j_fe <= j_opt + 1e-12


class TestHeightRateClosed:
    def test_zero_at_lln_profiles(self):
        for a, b in [(0.5, 0.5), (2.0, 1.0), (3.0, 3.0)]:
            rho = phase_info(a, b).rho_bar
            assert rate_height_report(Profile.linear(rho), a, b).rate == pytest.approx(
                0.0, abs=1e-12
            )

    def test_full_profile_at_triple_point(self):
        assert rate_height_report(Profile.linear(1.0), 1.0, 1.0).rate == pytest.approx(
            math.log(2), rel=1e-14
        )

    def test_linear_profiles_match_density_rate_at_triple_point(self):
        for r in (0.1, 0.3, 0.5, 0.8):
            assert rate_height_report(Profile.linear(r), 1.0, 1.0).rate == pytest.approx(
                relative_entropy(r, 0.5), rel=1e-12, abs=1e-14
            )

    def test_fan_and_shock_agree_on_boundary(self):
        # ab = 1 with a != 1: both dispatches must give the same value
        a, b = 2.0, 0.5
        rng = stream(46, 0)
        for _ in range(10):
            f = random_profile(rng, 5)
            shock_val = rate_height_report(f, a, b).rate  # dispatches to shock
            fe = convex_envelope(f)
            gs = optimal_G(fe, a, b)
            fan_val = (
                sum(
                    (x1 - x0) * entropy_h(s)
                    for x0, x1, s in zip(f.knots, f.knots[1:], f.slopes)
                )
                + J_star(fe, gs)
                - normalization_K(a, b)
            )
            assert shock_val == pytest.approx(fan_val, abs=1e-10)

    def test_reports_diagnostics(self):
        rep = rate_height_report(Profile.linear(0.3), 2.0, 1.0)
        assert rep.region == "shock" and rep.y_star is not None
        rep = rate_height_report(Profile.linear(0.3), 0.5, 0.5)
        assert rep.region == "fan" and rep.x1 is not None

    def test_nonnegative_random(self):
        rng = stream(47, 0)
        for a, b in [(0.5, 0.8), (2.0, 1.5), (1.0, 1.0)]:
            for _ in range(20):
                f = random_profile(rng, 7)
                assert rate_height_report(f, a, b).rate >= -1e-10


class TestSupOverG:
    def test_degenerate_band(self):
        assert sup_over_G(Profile.linear(0.7), 1.0, 1.0) == pytest.approx(
            -math.log(2), rel=1e-12
        )

    def test_interior_unclamped_optimum(self):
        assert sup_over_G(Profile.linear(0.5), 0.5, 0.5) == pytest.approx(
            -math.log(2), rel=1e-12
        )

    def test_underflowing_ab(self):
        # ab = 1e-400 rounds to 0; the band (1e-200, 1) holds the slope 0.3
        assert sup_over_G(Profile.linear(0.3), 1e-200, 1e-200) == pytest.approx(
            entropy_h(0.3), rel=1e-12
        )

    def test_matches_closed_form_random(self):
        rng = stream(48, 0)
        a, b = 0.5, 0.8
        for _ in range(20):
            f = random_profile(rng, 7)
            fe = convex_envelope(f)
            closed = J_star(fe, optimal_G(fe, a, b))
            assert abs(sup_over_G(f, a, b) - closed) <= 1e-3

    @pytest.mark.parametrize("a,b", [(0.5, 0.8), (0.2, 3.0), (1e-3, 7.0), (1.0, 1.0),
                                     (2.0, 0.5), (1e-17, 1e15), (1e-200, 1e100),
                                     (1e20, 1e-21), (0.5, 1e-17)])
    def test_height_rate_is_sup_over_G(self, a, b):
        # the height rate is int h(f') + sup_G - K on the fan half; at ab = 1
        # the variational rate takes the shock solver and sup_over_G the fan one
        from opentasep.ldp import entropy_integral

        rng = stream(49, 0)
        randoms = [random_profile(rng, int(rng.integers(2, 9))) for _ in range(20)]
        for f in [KINK, *randoms]:
            rate = rate_height_variational(f, a, b).rate
            literature = entropy_integral(f) + sup_over_G(f, a, b) - normalization_K(a, b)
            assert abs(rate - literature) <= 1e-13 * max(1.0, abs(rate))

    def test_shock_rejected(self):
        with pytest.raises(DomainError):
            sup_over_G(Profile.linear(0.5), 2.0, 1.0)


class TestRateDensity:
    def test_zero_at_density(self):
        assert rate_density(1 / 3, 2.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_triple_point_full(self):
        assert rate_density(1.0, 1.0, 1.0) == pytest.approx(math.log(2), rel=1e-14)

    def test_fan_middle_branch(self):
        assert rate_density(0.6, 0.5, 0.5) == pytest.approx(
            2 * relative_entropy(0.6, 0.5), rel=1e-12
        )

    def test_coexistence_plateau(self):
        for r in (0.35, 0.5, 0.65):
            assert abs(rate_density(r, 2.0, 2.0)) <= 1e-12
        for r in (0.2, 0.8):
            assert rate_density(r, 2.0, 2.0) > 0.01

    def test_outside_unit_interval(self):
        assert rate_density(-0.1, 1.0, 1.0) == math.inf
        assert rate_density(1.1, 2.0, 1.0) == math.inf

    def test_nonnegative_with_unique_zero_off_coexistence(self):
        for a, b in [(0.5, 0.5), (0.3, 0.9), (2.0, 1.0), (1.0, 3.0), (1.5, 3.0)]:
            rho = phase_info(a, b).rho_bar
            for r in np.linspace(0.0, 1.0, 101):
                val = rate_density(float(r), a, b)
                assert val >= -1e-10
                if abs(r - rho) > 5e-2:
                    assert val > 0.0

    def test_extreme_ab_branches(self):
        # b/(1+b) and alpha = 1/(1+a) round to 1; test_cli runs the same
        # point through `ldp density`
        rate = rate_density(0.7, 1e-200, 1e100)
        assert math.isfinite(rate)
        assert abs(rate - rate_density_variational(0.7, 1e-200, 1e100)) <= 1e-9

    def test_continuity_at_branch_boundaries(self):
        for a, b in [(0.5, 0.8), (2.0, 1.5)]:
            edges = sorted([a / (1 + a), 1 / (1 + b)])
            for edge in edges:
                lo = rate_density(edge - 1e-9, a, b)
                hi = rate_density(edge + 1e-9, a, b)
                assert abs(lo - hi) <= 1e-6


class TestVariationalReductions:
    def test_density_variational_examples(self):
        assert rate_density_variational(1.0, 1.0, 1.0) == pytest.approx(
            math.log(2), abs=1e-8
        )
        assert rate_density_variational(0.6, 0.5, 0.5) == pytest.approx(
            2 * relative_entropy(0.6, 0.5), abs=1e-8
        )
        assert rate_density_variational(1 / 3, 2.0, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_density_variational_matches_closed_grid(self):
        # (3, 3) is on the coexistence line, where the shock middle branch is 0
        for a, b in [(0.5, 0.5), (0.3, 0.9), (2.0, 1.0), (2.0, 2.0), (1.5, 3.0),
                     (3.0, 3.0)]:
            for r in (0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0, a / (1 + a), 1 / (1 + b)):
                assert rate_density_variational(r, a, b) == pytest.approx(
                    rate_density(r, a, b), abs=1e-8
                )

    def test_independent_of_closed_form(self, monkeypatch):
        import opentasep.core as core
        import opentasep.ldp as ldp

        def forbidden(*args, **kwargs):
            raise AssertionError("the variational solve used a closed-form helper")

        rs = (0.0, 0.3, 0.8, 1.0)
        cases = [(0.5, 0.8), (0.2, 3.0), (2.0, 1.5), (3.0, 3.0)]
        expected = {ab: ([rate_density(r, *ab) for r in rs], normalization_K(*ab))
                    for ab in cases}
        for name in ("rate_density", "normalization_K", "phase_info", "relative_entropy",
                     "_log_k"):
            for module in (core, ldp):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        for (a, b), (rates, k) in expected.items():
            for r, closed in zip(rs, rates):
                assert abs(rate_density_variational(r, a, b) - closed) <= 1e-12
            solve = fan_K_variational if a * b <= 1.0 else shock_K_variational
            assert abs(solve(a, b) - k) <= 1e-12

    def test_k_reductions(self):
        for a, b in [(2.0, 1.0), (3.0, 3.0), (1.2, 0.9)]:
            assert shock_K_variational(a, b) == pytest.approx(
                normalization_K(a, b), abs=1e-8
            )
        for a, b in [(0.5, 0.5), (2.0, 0.3), (0.2, 3.0)]:
            assert fan_K_variational(a, b) == pytest.approx(
                normalization_K(a, b), abs=1e-8
            )


class TestHeightRateVariational:
    def test_triple_point_full_profile(self):
        res = rate_height_variational(Profile.linear(1.0), 1.0, 1.0)
        assert abs(res.rate - math.log(2)) <= 1e-3

    def test_lln_profile_shock(self):
        res = rate_height_variational(Profile.linear(1 / 3), 2.0, 2.0)
        assert abs(res.rate) <= 1e-3

    def test_fan_kinked_profile(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.5, 0.5))
        res = rate_height_variational(f, 0.5, 0.5)
        closed = rate_height_report(f, 0.5, 0.5).rate
        assert abs(res.rate - closed) <= 1e-3
        assert res.gap <= 1e-9

    def test_contraction_against_pair_rate(self):
        # the optimizing second line reproduces the variational value through
        # the pair rate functional
        rng = stream(49, 0)
        for a, b in [(0.5, 0.8), (2.0, 1.5)]:
            f = random_profile(rng, 5)
            res = rate_height_variational(f, a, b)
            pair = rate_two_line(f, res.g_opt, a, b)
            assert abs(pair - res.rate) <= 1e-3

    def test_inadmissible_profile(self):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.75, 0.75))
        res = rate_height_variational(f, 1.0, 1.0)
        assert res.rate == math.inf

    def test_off_grid_knots_match_closed_form(self):
        # knots off the uniform mesh join it, so the mesh minimum is exact
        rng = stream(50, 0)
        for a, b in [(0.5, 0.8), (0.2, 3.0), (1.0, 1.0), (2.0, 1.5)]:
            for _ in range(3):
                f = random_profile(rng, int(rng.integers(3, 8)), mesh=997)
                res = rate_height_variational(f, a, b)
                assert abs(res.rate - rate_height_report(f, a, b).rate) <= 1e-8
                assert res.gap <= 1e-9

    def test_fan_gap_at_rounding_level(self):
        # the fan solve is exact, so its gap and its distance from the closed
        # form are rounding, not a stop tolerance
        cases = [((0.0, 0.2, 0.32, 0.72, 0.77, 1.0), (0.0, 0.053, 0.161, 0.24, 0.26, 0.375),
                  0.3, 0.45),
                 ((0.0, 0.03, 0.16, 0.26, 0.85, 1.0), (0.0, 0.013, 0.059, 0.098, 0.6, 0.687),
                  0.5, 0.5)]
        for knots, values, a, b in cases:
            f = Profile(knots, values)
            res = rate_height_variational(f, a, b)
            assert res.gap <= 1e-13
            assert abs(res.rate - rate_height_report(f, a, b).rate) <= 1e-13

    def test_tiny_clamp_interval_bounds(self):
        # a/(1+a) and 1/(1+b) both below 1e-15, or both rounding to 1 (the
        # first two), or 1/(1+b) alone rounding to 1: the clamp keeps them apart
        for a, b in [(1e-17, 1e15), (1e-200, 1e100), (1e20, 1e-21), (0.5, 1e-17)]:
            closed = rate_height_report(KINK, a, b).rate
            assert abs(rate_height_variational(KINK, a, b).rate - closed) <= 1e-8

    def test_independent_of_closed_form(self, monkeypatch):
        import opentasep.ldp as ldp

        def forbidden(*args, **kwargs):
            raise AssertionError("the variational solve used a closed-form helper")

        f = Profile((0.0, 0.3, 0.7, 1.0), (0.0, 0.25, 0.3, 0.6))
        expected = {ab: rate_height_report(f, *ab).rate for ab in [(0.5, 0.8), (2.0, 1.5)]}
        for name in ("optimal_G", "convex_envelope", "rate_height_report", "J_star",
                     "sup_over_G", "MonotoneStep"):
            monkeypatch.setattr(ldp, name, forbidden)
        for (a, b), closed in expected.items():
            res = rate_height_variational(f, a, b)
            assert abs(res.rate - closed) <= 1e-8


class TestFiniteN:
    def test_exact_binomial_identity(self):
        from math import comb, log

        for n in (20, 100):
            for r in (0.3, 0.5, 0.7):
                chk = finite_n_ldp_check(n, 1.0, 1.0, r)
                k = round(r * n)
                exact = -log(comb(n, k) * 0.5**n) / n
                assert chk.empirical_rate == pytest.approx(exact, rel=1e-12)
                assert chk.closed_rate == pytest.approx(
                    relative_entropy(r, 0.5), rel=1e-12, abs=1e-15
                )

    def test_gap_small_at_n100(self):
        chk = finite_n_ldp_check(100, 2.0, 1.0, 1 / 3)
        assert abs(chk.gap) <= 0.05

    def test_gap_decreases_with_n(self):
        gaps = [abs(finite_n_ldp_check(n, 0.5, 0.5, 0.6).gap) for n in (25, 50, 100)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            finite_n_ldp_check(10, 1.0, 1.0, 1.5)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("a,b", [(math.nan, 0.5), (0.5, math.nan)], ids=["a", "b"])
    def test_nan_parameter_raises_everywhere(self, a, b):
        f = Profile((0.0, 0.5, 1.0), (0.0, 0.2, 0.6))
        path = (0, 1, 1)
        calls = {
            "params_from_ab": lambda: opentasep.params_from_ab(a, b),
            "phase_info": lambda: phase_info(a, b),
            "normalization_K": lambda: normalization_K(a, b),
            "log_c_growth_rate": lambda: opentasep.log_c_growth_rate(a, b),
            "stationary_weights_recursive": lambda: opentasep.stationary_weights_recursive(3, a, b),
            "stationary_weights_matrix": lambda: opentasep.stationary_weights_matrix(3, a, b),
            "f_n_enumerate": lambda: opentasep.f_n_enumerate((1, 0), a, b),
            "tle_enumerate": lambda: opentasep.tle_enumerate(2, a, b),
            "two_line_weight": lambda: opentasep.two_line_weight(path, path, a, b),
            "verify_marginal_identity": lambda: opentasep.verify_marginal_identity(2, a, b, 1e-10),
            "build_partition_table": lambda: opentasep.build_partition_table(4, a, b),
            "build_partition_table_log_c":
                lambda: opentasep.build_partition_table(4, a, b, log_c_only=True),
            "height_endpoint_distribution": lambda: opentasep.height_endpoint_distribution(4, a, b),
            "rate_two_line": lambda: rate_two_line(f, f, a, b),
            "optimal_G": lambda: optimal_G(convex_envelope(f), a, b),
            "J_upper": lambda: J_upper(f, f, a, b),
            "rate_height_report": lambda: rate_height_report(f, a, b),
            "rate_height_variational": lambda: rate_height_variational(f, a, b),
            "sup_over_G": lambda: sup_over_G(f, a, b),
            "rate_density": lambda: rate_density(0.5, a, b),
            "rate_density_variational": lambda: rate_density_variational(0.5, a, b),
            "fan_K_variational": lambda: fan_K_variational(a, b),
            "shock_K_variational": lambda: shock_K_variational(a, b),
            "finite_n_ldp_check": lambda: finite_n_ldp_check(10, a, b, 0.5),
        }
        accepted = []
        for name, call in calls.items():
            try:
                call()
            except DomainError:
                continue
            accepted.append(name)
        assert accepted == []

    def test_nan_point_is_outside(self):
        assert rate_density(math.nan, 0.5, 0.5) == math.inf
        assert entropy_h(math.nan) == math.inf
        assert relative_entropy(math.nan, 0.5) == math.inf
        for call in (lambda: rate_density_variational(math.nan, 0.5, 0.5),
                     lambda: finite_n_ldp_check(10, 1.0, 1.0, math.nan)):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_profile_refuses_non_finite_cells(self, cell):
        with pytest.raises(DomainError):
            Profile((0.0, cell, 1.0), (0.0, 0.2, 0.5))
        with pytest.raises(DomainError):
            Profile((0.0, 0.5, 1.0), (0.0, cell, 0.5))
