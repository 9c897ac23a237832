import math
from fractions import Fraction

import numpy as np
import pytest

from opentasep import (
    DomainError,
    NumericConsistencyError,
    ResourceLimitError,
    f_n_enumerate,
    log_c_growth_rate,
    stationary_weights_matrix,
    stationary_weights_recursive,
    tle_enumerate,
    two_line_weight,
    verify_marginal_identity,
)
from opentasep import cli
from opentasep.exact_engine import (
    _pair_weight_rows,
    _weight_grid,
    all_height_paths,
    config_bits,
    f_n_enumerate_all,
)
from opentasep.two_line_sampler import build_partition_table

# accepted (a, b) where a float pair weight or sum over- or underflows
EXTREME_AB = [
    (1.0, 1e200), (1e-200, 1e-200), (1e-3, 1e150), (1e-170, 1e-170),
    (1e-200, 1e200), (1e-150, 1e150), (1e-100, 1e120), (1e-120, 1e100),
    (1e150, 1e-3), (1e-300, 1e300), (1e100, 1e100),
]


class TestRecursion:
    def test_single_site(self):
        t = stationary_weights_recursive(1, 2.0, 0.7)
        assert t[(0,)] == pytest.approx(3.0)
        assert t[(1,)] == pytest.approx(1.7)

    def test_two_sites_symmetric(self):
        t = stationary_weights_recursive(2, 1.0, 1.0)
        assert np.allclose(t.weights, 4.0)
        assert t.z == pytest.approx(16.0)

    def test_two_sites_by_hand(self):
        # p2(0,0)=(1+a)p1(0); p2(0,1)=(1+a)p1(1); p2(1,1)=(1+b)p1(1);
        # p2(1,0)=p1(1)+p1(0)
        a, b = 2.0, 0.5
        t = stationary_weights_recursive(2, a, b)
        assert t[(0, 0)] == pytest.approx((1 + a) * (1 + a))
        assert t[(0, 1)] == pytest.approx((1 + a) * (1 + b))
        assert t[(1, 1)] == pytest.approx((1 + b) * (1 + b))
        assert t[(1, 0)] == pytest.approx((1 + b) + (1 + a))

    def test_positivity(self):
        for a, b in [(0.2, 4.0), (3.0, 3.0), (1.0, 1.0)]:
            t = stationary_weights_recursive(3, a, b)
            assert (t.weights > 0).all()
            assert t.z == pytest.approx(t.weights.sum(), rel=1e-12)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            stationary_weights_recursive(17, 1.0, 1.0)

    def test_rational_mode_exact(self):
        # one Fraction parameter makes the whole table exact
        for a, b in [(Fraction(1, 3), Fraction(5, 7)), (Fraction(1, 3), 1.25)]:
            t = stationary_weights_recursive(3, a, b)
            assert all(isinstance(w, Fraction) for w in t.weights)
            assert t[(0, 0, 0)] == (1 + a) ** 3
            assert t[(1, 1, 1)] == (1 + Fraction(b)) ** 3
            assert t.z == sum(t.weights)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 3.0), (3.0, 3.0)])
    def test_rule_consistency(self, a, b):
        # every applicable reduction of a configuration agrees
        for n in range(2, 9):
            prev = stationary_weights_recursive(n - 1, a, b)
            cur = stationary_weights_recursive(n, a, b)
            for i in range(1 << n):
                bits = config_bits(i, n)
                candidates = []
                if bits[0] == 0:
                    candidates.append((1 + a) * prev[bits[1:]])
                if bits[-1] == 1:
                    candidates.append((1 + b) * prev[bits[:-1]])
                for p in range(n - 1):
                    if bits[p] == 1 and bits[p + 1] == 0:
                        keep1 = bits[:p] + (1,) + bits[p + 2 :]
                        keep0 = bits[:p] + (0,) + bits[p + 2 :]
                        candidates.append(prev[keep1] + prev[keep0])
                assert candidates, bits
                for c in candidates:
                    assert abs(c - cur.weights[i]) <= 1e-12 * cur.weights[i]


class TestMatrixRoute:
    def test_single_site_eigen_relations(self):
        a, b = 1.7, 0.4
        t = stationary_weights_matrix(1, a, b)
        assert t[(0,)] == pytest.approx(1 + a)   # <W|E|V>
        assert t[(1,)] == pytest.approx(1 + b)   # <W|D|V>

    def test_matches_recursion_symmetric(self):
        rec = stationary_weights_recursive(2, 1.0, 1.0)
        mat = stationary_weights_matrix(2, 1.0, 1.0)
        assert np.allclose(rec.weights, mat.weights, rtol=1e-14)

    def test_complex_regime_real_positive(self):
        t = stationary_weights_matrix(4, 2.0, 1.0)  # ab = 2 > 1
        assert t.weights.dtype == np.float64
        assert (t.weights > 0).all()
        rec = stationary_weights_recursive(4, 2.0, 1.0)
        assert np.max(np.abs(t.weights - rec.weights) / rec.weights) <= 1e-12

    @pytest.mark.parametrize("a,b,n", [(10.0, 10.0, 16), (30.0, 30.0, 12)])
    def test_shock_half_accuracy(self, a, b, n):
        rec = stationary_weights_recursive(n, a, b)
        mat = stationary_weights_matrix(n, a, b)
        assert np.max(np.abs(mat.weights - rec.weights) / rec.weights) <= 1e-12

    def test_weights_own_their_memory(self):
        # a view of the last (2^N, N+1) product would keep all of it alive
        assert stationary_weights_matrix(16, 2.0, 1.0).weights.base is None

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 3.0), (3.0, 3.0)])
    def test_route_equality(self, a, b):
        for n in range(1, 9):
            rec = stationary_weights_recursive(n, a, b)
            mat = stationary_weights_matrix(n, a, b)
            assert np.max(np.abs(mat.weights - rec.weights) / rec.weights) <= 1e-10


class TestPairWeight:
    def test_examples(self):
        b = 0.7
        a = 1.3
        assert two_line_weight((0, 1), (0, 0), a, b) == pytest.approx(b)
        assert two_line_weight((0, 0), (0, 1), a, b) == pytest.approx(a)
        assert two_line_weight((0, 1, 1), (0, 1, 1), a, b) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            two_line_weight((0, 1), (0, 1, 2), 1.0, 1.0)

    def test_huge_b(self):
        # d = m = -2: the weight is a^2 = 1, though (ab)^2 = 1e400 overflows
        assert two_line_weight((0, 0, 0), (0, 1, 2), 1.0, 1e200) == 1.0

    def test_exact_for_one_fraction(self):
        # as in f_n_enumerate, one Fraction makes the weight exact
        w = two_line_weight((0, 1, 1, 1), (0, 0, 1, 2), Fraction(1, 3), 1.25)
        assert isinstance(w, Fraction) and w == Fraction(1, 3)  # b^-1 (ab)^1 = a

    @pytest.mark.parametrize("a,b", [*EXTREME_AB, *cli.DEFAULT_GRID])
    def test_equals_pair_sum_weight(self, a, b):
        # the paper's form and the sums' gap/depth grid agree bit for bit
        # (inf == inf; NaN fails), with no warning
        for n in range(1, 6):
            paths = all_height_paths(n).tolist()
            for s1, row in zip(paths, _pair_weight_rows(n, a, b)):
                assert [two_line_weight(s1, s2, a, b) for s2 in paths] == row.tolist()


class TestPairSum:
    def test_single_site(self):
        a, b = 2.7, 0.3
        assert f_n_enumerate((0,), a, b) == pytest.approx(1 + a, rel=1e-14)
        assert f_n_enumerate((1,), a, b) == pytest.approx(1 + b, rel=1e-14)

    def test_matches_recursion_n2(self):
        a, b = 2.0, 0.5
        t = stationary_weights_recursive(2, a, b)
        for i in range(4):
            bits = t.config(i)
            assert f_n_enumerate(bits, a, b) == pytest.approx(t.weights[i], rel=1e-13)

    def test_identity_per_configuration(self):
        for a, b in [(0.5, 0.5), (2.0, 1.0), (3.0, 3.0)]:
            for n in range(1, 9):
                t = stationary_weights_recursive(n, a, b)
                for i in range(1 << n):
                    f = f_n_enumerate(t.config(i), a, b)
                    assert abs(f - t.weights[i]) <= 1e-12 * t.weights[i]

    def test_identity_exact_rational(self):
        # one Fraction makes the sum exact; 1.25 is the dyadic 5/4
        for a, b in [(Fraction(2), Fraction(1, 2)), (Fraction(1, 3), 1.25),
                     (Fraction(1, 3), Fraction(5, 4))]:
            for n in range(1, 7):
                t = stationary_weights_recursive(n, a, b)
                f_all = f_n_enumerate_all(n, a, b)
                assert all(isinstance(f, Fraction) for f in f_all)
                assert list(f_all) == list(t.weights)
                for i in range(1 << n):
                    f = f_n_enumerate(t.config(i), a, b)
                    assert isinstance(f, Fraction)
                    assert f == t.weights[i]

    def test_grid_cached_by_type(self):
        # Fraction(1, 2) == 0.5 and both hash alike, yet they price differently:
        # a cached float grid must not answer the Fraction call
        assert type(f_n_enumerate((0, 1, 1), 0.5, 0.25)) is float
        f = f_n_enumerate((0, 1, 1), Fraction(1, 2), Fraction(1, 4))
        assert isinstance(f, Fraction)
        assert f == stationary_weights_recursive(3, Fraction(1, 2), Fraction(1, 4))[(0, 1, 1)]

    def test_grid_read_only(self):
        for a, b in [(0.5, 2.0), (Fraction(1, 2), Fraction(2))]:
            grid = _weight_grid(4, a, b)
            assert grid is _weight_grid(4, a, b)
            with pytest.raises(ValueError):
                grid[0, 0] = 0

    @pytest.mark.parametrize("a,b", EXTREME_AB)
    def test_finite_where_recursion_is_finite(self, a, b):
        # wherever p_N is finite and positive, so is f_N, to 1e-12 relative (a
        # NaN or inf fails the bound); pricing pairs as b^d (ab)^(-m) read
        # 0 * inf = NaN, or 0, in most entries at the first four points.  No
        # entry is NaN, and f_N is inf exactly where p_N is: an overflowing
        # float pair weight read inf * 0 = NaN
        for n in range(1, 11):  # N = 11, 12 hold too, at ~15x the cost
            with np.errstate(over="ignore"):  # where p_N itself overflows
                w = stationary_weights_recursive(n, a, b).weights
            f = f_n_enumerate_all(n, a, b)
            ok = np.isfinite(w) & (w > 0)
            assert np.all(np.abs(f[ok] - w[ok]) <= 1e-12 * w[ok]), n
            assert not np.isnan(f).any(), n
            assert np.array_equal(np.isinf(f), np.isinf(w)), n

    def test_huge_b_single_configuration(self):
        # the pair d = m = -2 is worth a^2 = 1, not 1e-400 * 1e400
        assert f_n_enumerate((0, 0), 1.0, 1e200) == 4.0


class TestEnumeration:
    def test_single_site_table(self):
        t = tle_enumerate(1, 2.0, 1.0)
        assert t.joint.sum() == pytest.approx(5.0)
        assert t.c == pytest.approx(5.0 / 4.0)

    def test_uniform_at_triple_point(self):
        t = tle_enumerate(2, 1.0, 1.0)
        assert np.allclose(t.joint, 1.0)
        assert t.c == pytest.approx(1.0)

    def test_marginal_matches_recursion(self):
        rep = verify_marginal_identity(3, 2.0, 0.5, 1e-12)
        assert rep.passed and rep.max_abs_error <= 1e-12

    @pytest.mark.parametrize(
        "n,a,b,tol",
        [(2, 1.0, 1.0, 1e-12), (6, 2.0, 0.5, 1e-10), (8, 3.0, 3.0, 1e-10)],
    )
    def test_marginal_reports(self, n, a, b, tol):
        rep = verify_marginal_identity(n, a, b, tol)
        assert rep.passed

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 3.0), (3.0, 3.0)])
    def test_marginalization_grid(self, a, b):
        for n in range(1, 9):
            rep = verify_marginal_identity(n, a, b, 1e-10)
            assert rep.passed, (n, a, b, rep.max_abs_error)

    @pytest.mark.parametrize("a,b", [(2.0, 0.5), *cli.DEFAULT_GRID])
    def test_row_sums_match_joint(self, a, b):
        # every pair sum equals, bit for bit, the pair weight computed pair by
        # pair, b^gap a^depth evaluated exactly and rounded once (depth =
        # -min d, gap = d_N + depth); f_N summed one row at a time equals the
        # joint's row sums
        for n in range(1, 9):
            paths = all_height_paths(n)
            rows = list(_pair_weight_rows(n, a, b))
            f_all = f_n_enumerate_all(n, a, b)
            k = range(n + 1)
            priced = np.array([[float(Fraction(b) ** gap * Fraction(a) ** depth) for depth in k]
                               for gap in k])
            for i, s1 in enumerate(paths):
                diff = s1[:, None] - paths.T
                depth = -diff.min(axis=0)
                ref = priced[diff[-1] + depth, depth]
                assert np.array_equal(rows[i], ref)
                assert np.array_equal(f_all[i], np.sum(ref))
                f = f_n_enumerate(config_bits(i, n), a, b)
                assert type(f) is float and f == np.sum(ref)
            assert np.array_equal(f_all, tle_enumerate(n, a, b).s1_marginal())

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            tle_enumerate(13, 1.0, 1.0)
        with pytest.raises(ResourceLimitError):
            f_n_enumerate_all(13, 1.0, 1.0)

    def test_all_height_paths_shape(self):
        paths = all_height_paths(3)
        assert paths.shape == (8, 4)
        assert (paths[:, 0] == 0).all()
        assert (np.diff(paths, axis=1) >= 0).all()
        assert (np.diff(paths, axis=1) <= 1).all()


class TestNormalizationGrowth:
    def test_log_c_gap_monotone(self):
        # log(c_N)/N converges monotonically (in gap) to -(K + log 4);
        # at the triple point the weight is identically 1 so the gap is 0
        for a, b in [(1.0, 1.0), (2.0, 1.0), (0.5, 0.5), (3.0, 3.0)]:
            target = log_c_growth_rate(a, b)
            gaps = []
            for n in (2, 4, 6, 8, 10, 12):
                log_c = build_partition_table(n, a, b, log_c_only=True)
                gaps.append(abs(log_c / n - target))
            assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:])), (a, b, gaps)
        log_c_12 = build_partition_table(12, 1.0, 1.0, log_c_only=True)
        assert abs(log_c_12 / 12 - log_c_growth_rate(1.0, 1.0)) < 0.1

    def test_triple_point_constant_is_zero(self):
        assert log_c_growth_rate(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_c_growth_rate(2.0, 1.0) == pytest.approx(math.log(9.0 / 8.0), rel=1e-12)


class TestSerialization:
    def test_weight_table_csv(self, tmp_path):
        t = stationary_weights_recursive(2, 2.0, 1.0)
        path = tmp_path / "w.csv"
        t.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_1,tau_2,weight,probability"
        assert len(lines) == 5
        cells = lines[1].split(",")
        assert float(cells[2]) == t[(0, 0)]
        # rows in configuration-index order, tau_1 first
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            bits = tuple(int(c) for c in cells[:2])
            assert bits == config_bits(i, 2)
            assert float(cells[2]) == t[bits] == t.weights[i]
            assert float(cells[3]) == t.weights[i] / t.z
        assert t.summary() == {"n_sites": 2, "a": 2.0, "b": 1.0, "z": pytest.approx(t.z)}
