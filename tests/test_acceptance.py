"""Acceptance gate: every criterion at its stated tolerance.

Each test computes its statistic, records a one-line summary for the terminal
report (see conftest), and then asserts.  Criterion 4a bounds the sampler's
joint law within total variation 3e-3 of the 4096-atom enumerated joint
(N=6, a=0.5, b=2).  One million draws cannot resolve that tolerance: i.i.d.
draws from the exact law already have expected empirical TV ~0.021 there.  So
the 3e-3 applies to the law the sampler draws from, computed from the
partition table's step conditionals, and the million draws at seed 4 are
checked against the band where the empirical TV of i.i.d. draws falls.
"""

import math
import time
from fractions import Fraction
from math import comb

import numpy as np

import opentasep as ot
from opentasep.ldp import Profile
from opentasep.rng import stream

from conftest import iid_tv_reference, record_criterion, sampler_path_law

GRID = [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 3.0), (3.0, 3.0), (0.3, 0.45), (1.3, 1.7)]


def test_criterion_1_marginal_vs_generator():
    t0 = time.time()
    worst = 0.0
    for a, b in GRID:
        params = ot.params_from_ab(a, b)
        for n in range(1, 9):
            marginal = ot.tle_enumerate(n, a, b).s1_marginal()
            marginal /= marginal.sum()
            pi = ot.solve_stationary(ot.build_generator(n, params.alpha, params.beta))
            worst = max(worst, float(np.max(np.abs(marginal - pi))))
    passed = worst <= 1e-10
    record_criterion("C1 two-line marginal vs generator law (N<=8, 7 points)",
                     passed, f"max abs error {worst:.2e} <= 1e-10", t0)
    assert passed


def test_criterion_2_pair_sum_identity():
    t0 = time.time()
    # exact rational mode
    exact_ok = True
    for a, b in [(Fraction(1, 2), Fraction(2)), (Fraction(3), Fraction(3)),
                 (Fraction(1, 3), Fraction(5, 4))]:
        for n in range(1, 9):
            t = ot.stationary_weights_recursive(n, a, b)
            for i in range(1 << n):
                if ot.f_n_enumerate(t.config(i), a, b) != t.weights[i]:
                    exact_ok = False
    # floating route
    worst = 0.0
    for a, b in GRID:
        for n in range(1, 9):
            t = ot.stationary_weights_recursive(n, a, b)
            for i in range(1 << n):
                f = ot.f_n_enumerate(t.config(i), a, b)
                worst = max(worst, abs(f - t.weights[i]) / t.weights[i])
    passed = exact_ok and worst <= 1e-12
    record_criterion("C2 pair-sum identity f_N = p_N (N<=8)",
                     passed,
                     f"rational mode exact: {exact_ok}; float max rel {worst:.2e} <= 1e-12",
                     t0)
    assert passed


def test_criterion_3_matrix_route():
    t0 = time.time()
    worst = 0.0
    for a, b in GRID + [(2.0, 2.0), (4.0, 0.4)]:
        for n in range(1, 9):
            rec = ot.stationary_weights_recursive(n, a, b)
            mat = ot.stationary_weights_matrix(n, a, b)  # raises on a nonpositive weight
            worst = max(worst, float(np.max(np.abs(mat.weights - rec.weights)
                                            / rec.weights)))
    passed = worst <= 1e-10
    record_criterion("C3 matrix product vs recursion (N<=8, incl. ab>1)",
                     passed, f"max rel error {worst:.2e} <= 1e-10", t0)
    assert passed


def test_criterion_4a_sampler_joint_tv():
    t0 = time.time()
    n, a, b, draws = 6, 0.5, 2.0, 10**6
    table = ot.build_partition_table(n, a, b)
    enum = ot.tle_enumerate(n, a, b)
    target = enum.joint / enum.joint.sum()
    # the law the sampler draws from, bounded at the stated tolerance
    law_tv = 0.5 * float(np.abs(sampler_path_law(table) - target).sum())
    law_ok = law_tv <= 3e-3
    # its seeded draws, against the TV of i.i.d. draws from the target
    paths = ot.sample_two_line(table, draws, seed=4)
    d1, d2 = paths.inc1, paths.inc2
    powers = 1 << np.arange(n, dtype=np.int64)
    idx = (d1 @ powers) * (1 << n) + d2 @ powers
    emp = np.bincount(idx, minlength=4**n).astype(float)
    emp /= emp.sum()
    tv = 0.5 * float(np.abs(emp - target.ravel()).sum())
    ref = iid_tv_reference(target, draws)
    lo, hi = ref.band(5.0)
    draws_ok = lo <= tv <= hi
    record_criterion("C4a sampler joint TV (N=6, a=0.5, b=2; 1e6 draws, seed 4)",
                     law_ok and draws_ok,
                     f"exact-law TV {law_tv:.1e} <= 3e-3; empirical TV {tv:.5f} in "
                     f"i.i.d. band {ref.mean:.5f} +- 5 x {ref.sd:.5f} = "
                     f"[{lo:.5f}, {hi:.5f}]", t0)
    assert law_ok, (
        f"exact-law part: the sampler's joint law is at TV {law_tv:.2e} from the "
        f"enumerated joint, above 3e-3"
    )
    assert draws_ok, (
        f"i.i.d.-band part: empirical joint TV {tv:.5f} of {draws} seeded draws "
        f"lies outside [{lo:.5f}, {hi:.5f}], the i.i.d. mean {ref.mean:.5f} "
        f"+- 5 sd ({ref.sd:.5f})"
    )


def test_criterion_4b_log_c_matches_enumeration():
    t0 = time.time()
    worst = 0.0
    for a, b in [(0.5, 2.0), (1.0, 1.0), (2.0, 1.0), (3.0, 3.0)]:
        for n in range(1, 11):
            table = ot.build_partition_table(n, a, b)
            enum = ot.tle_enumerate(n, a, b)
            worst = max(worst, abs(table.log_c - math.log(enum.c)))
    passed = worst <= 1e-10
    record_criterion("C4b DP log-normalizer vs enumeration (N<=10)",
                     passed, f"max abs error {worst:.2e} <= 1e-10", t0)
    assert passed


def test_criterion_5_scaled_endpoint_variance():
    t0 = time.time()
    w1 = ot.sample_scaled_processes(0.0, 0.0, 1024, 10**5, seed=11).w1
    end = w1[:, -1]
    var = float(end.var(ddof=1))
    m4 = float(np.mean((end - end.mean()) ** 4))
    se = math.sqrt((m4 - var**2) / end.size)
    passed = abs(var - 1.0) <= 3.0 * se
    record_criterion("C5 scaled endpoint variance at u=v=0 (N=1024, 1e5 draws)",
                     passed, f"variance {var:.4f}, |dev| {abs(var-1):.4f} <= 3SE={3*se:.4f}",
                     t0)
    assert passed


def test_criterion_6_wminus_matches_limit_law(triple_point_runs):
    t0 = time.time()
    details = []
    passed = True
    for u, v in [(1.0, 1.0), (1.0, -0.5), (-1.0, 0.3), (-1.0, -1.0)]:
        # 1e5 samples at N = 2048, seed 7; limit paths 2e5 at seed 101
        scaled = triple_point_runs.scaled(u, v)
        wm = scaled.w_minus[:, -1]
        w1_by_steps = {}
        for n_steps in (1024, 2048):
            ens = triple_point_runs.limit(u, v, n_steps)
            rep = ot.compare_distributions(wm, ens.omega_mesh[:, -1], ens.weights)
            w1_by_steps[n_steps] = rep.w1
        drift = abs(w1_by_steps[1024] - w1_by_steps[2048])
        ok = w1_by_steps[2048] <= 0.05 and drift <= 0.01
        passed = passed and ok
        details.append(f"(u={u},v={v}): w1={w1_by_steps[2048]:.4f} drift={drift:.4f}")
    record_criterion("C6 W-(1) law vs tilted Brownian endpoint (N=2048)",
                     passed, "; ".join(details) + " (caps 0.05 / 0.01)", t0)
    assert passed


def test_criterion_7_closed_vs_variational_height_rate():
    t0 = time.time()
    rng = stream(123, 0)

    def random_profile(n_pieces, mesh=200):
        ks = np.sort(rng.choice(np.arange(1, mesh), size=n_pieces - 1,
                                replace=False)) / mesh
        ks = np.concatenate([[0.0], ks, [1.0]])
        slopes = rng.uniform(0.0, 1.0, size=len(ks) - 1)
        vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ks))])
        return Profile(tuple(ks), tuple(vals))

    worst = 0.0
    largest_gap = 0.0
    for a, b in [(0.5, 0.8), (2.0, 1.5)]:
        for _ in range(10):
            f = random_profile(int(rng.integers(4, 9)))
            closed = ot.rate_height_report(f, a, b).rate
            var = ot.rate_height_variational(f, a, b)
            worst = max(worst, abs(closed - var.rate))
            largest_gap = max(largest_gap, var.gap)
    passed = worst <= 1e-3
    record_criterion("C7 closed vs variational height rate (10 profiles/region)",
                     passed, f"max |closed - variational| {worst:.2e} <= 1e-3; "
                     f"largest duality gap {largest_gap:.2e}", t0)
    assert passed


def test_criterion_8_normalization_reductions():
    t0 = time.time()
    grid = np.exp(np.linspace(math.log(0.1), math.log(10.0), 20))
    worst = 0.0
    for a in grid:
        for b in grid:
            a, b = float(a), float(b)
            k = ot.normalization_K(a, b)
            if a * b >= 1.0:
                kv = ot.shock_K_variational(a, b)
                worst = max(worst, abs(kv - k))
            if a * b <= 1.0:
                kv = ot.fan_K_variational(a, b)
                worst = max(worst, abs(kv - k))
    passed = worst <= 1e-8
    record_criterion("C8 variational normalization on 20x20 grid",
                     passed, f"max abs error {worst:.2e} <= 1e-8", t0)
    assert passed


def test_criterion_9_finite_size_density_anchors():
    t0 = time.time()
    details = []
    passed = True
    for r in (0.3, 0.5, 0.7):
        chk = ot.finite_n_ldp_check(100, 1.0, 1.0, r)
        k = round(100 * r)
        exact = -math.log(comb(100, k) * 0.5**100) / 100
        identity_ok = abs(chk.empirical_rate - exact) <= 1e-12
        gap_ok = abs(chk.empirical_rate - ot.relative_entropy(r, 0.5)) <= 0.03
        passed = passed and identity_ok and gap_ok
        details.append(f"r={r}: |gap|={abs(chk.gap):.4f}")
    gaps = [abs(ot.finite_n_ldp_check(n, 2.0, 1.0, 1 / 3).gap) for n in (25, 50, 100)]
    shock_ok = gaps[2] <= 0.05 and gaps[0] > gaps[1] > gaps[2]
    passed = passed and shock_ok
    details.append(f"(2,1) gaps n=25/50/100: {gaps[0]:.4f}>{gaps[1]:.4f}>{gaps[2]:.4f}")
    record_criterion("C9 finite-N density-rate anchors",
                     passed, "; ".join(details) + " (caps 0.03 / 0.05, monotone)", t0)
    assert passed


def test_criterion_10_coexistence_flatness():
    t0 = time.time()
    flat = [ot.rate_density(r, 2.0, 2.0) for r in (0.35, 0.5, 0.65)]
    off = [ot.rate_density(r, 2.0, 2.0) for r in (0.2, 0.8)]
    passed = all(abs(v) <= 1e-12 for v in flat) and all(v > 0.01 for v in off)
    record_criterion("C10 coexistence-line flatness (a=b=2)",
                     passed,
                     f"plateau max |rate| {max(abs(v) for v in flat):.1e}, "
                     f"off-plateau min {min(off):.4f} > 0.01", t0)
    assert passed
