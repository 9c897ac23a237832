import math
import tracemalloc
from math import comb

import numpy as np
import pytest

from opentasep import (
    DomainError,
    ResourceLimitError,
    build_generator,
    build_partition_table,
    height_endpoint_distribution,
    params_from_ab,
    sample_functionals,
    sample_two_line,
    solve_stationary,
    stationary_weights_recursive,
    tle_enumerate,
)
from opentasep import two_line_sampler
from opentasep.two_line_sampler import CHUNK, _log_l_rows

from conftest import iid_tv_reference, sampler_path_law


def log_c_plain(n, a, b):
    """log c from the backward recursion in plain doubles (overflow-prone at
    large n), an independent cross-check of the log-domain table."""
    row = float(b) ** np.arange(n + 2, dtype=float)
    for r in range(1, n + 1):
        width = n - r + 1
        nxt = np.zeros(n + 2)
        nxt[1 : width + 1] = 2.0 * row[1 : width + 1] + row[2 : width + 2] + row[0:width]
        nxt[0] = (2.0 + a) * row[0] + row[1]
        row = nxt
    return math.log(row[0]) - n * math.log(4.0)


def log_value(rows, a, j, d, m):
    """Log partition value V_j(d, m) = -m log a + log L_{n-j}(d - m) over
    suffixes of a state with difference d and running minimum m after j of
    n = len(rows) - 1 steps, read from the rows of _log_l_rows."""
    n = len(rows) - 1
    if not 0 <= j <= n:
        raise DomainError(f"step index {j} outside 0..{n}")
    if abs(d) > j or m > min(0, d) or m < -j or d - m > j:
        raise DomainError(f"state (d={d}, m={m}) unreachable at step {j}")
    return -m * math.log(a) + float(rows[n - j][d - m])


def joint_counts(paths, n):
    d1, d2 = paths.inc1, paths.inc2
    powers = 1 << np.arange(n, dtype=np.int64)
    idx = (d1 @ powers) * (1 << n) + d2 @ powers
    return np.bincount(idx, minlength=4**n).astype(float)


class TestPartitionTable:
    def test_single_site_value(self):
        t = build_partition_table(1, 2.0, 1.0)
        assert math.exp(t.log_l[1]) == pytest.approx(5.0)  # 1 + a + b + 1

    def test_log_c_triple_point(self):
        t = build_partition_table(2, 1.0, 1.0)
        assert t.log_c == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 2.0), (2.0, 1.0), (3.0, 3.0)])
    def test_log_c_matches_enumeration(self, a, b):
        for n in range(1, 11):
            t = build_partition_table(n, a, b)
            e = tle_enumerate(n, a, b)
            assert abs(t.log_c - math.log(e.c)) <= 1e-10 * max(1.0, abs(math.log(e.c)))

    def test_value_recurrence(self):
        # V_j(d, m) satisfies the backward recurrence with multiplicities
        # (1, 2, 1) and terminal values d log b - m log(ab)
        a, b = 2.0, 0.5
        rows = list(_log_l_rows(4, a, b, math.log(b)))
        for j in range(4):
            for d in range(-j, j + 1):
                for m in range(-j, min(0, d) + 1):
                    if d - m > j:
                        continue
                    acc = -math.inf
                    for delta, mult in ((-1, 1.0), (0, 2.0), (1, 1.0)):
                        nd = d + delta
                        nm = min(m, nd)
                        acc = np.logaddexp(acc, math.log(mult)
                                           + log_value(rows, a, j + 1, nd, nm))
                    assert log_value(rows, a, j, d, m) == pytest.approx(acc, rel=1e-12)
        for d in range(-4, 5):
            for m in range(-4, min(0, d) + 1):
                if d - m > 4:
                    continue
                assert log_value(rows, a, 4, d, m) == pytest.approx(
                    d * math.log(b) - m * math.log(a * b), rel=1e-12
                )

    def test_value_rejects_unreachable(self):
        rows = list(_log_l_rows(4, 2.0, 0.5, math.log(0.5)))
        with pytest.raises(DomainError):
            log_value(rows, 2.0, 1, 2, 0)
        with pytest.raises(DomainError):
            log_value(rows, 2.0, 2, 0, 1)

    def test_log_domain_matches_plain(self):
        for n in (5, 17, 30):
            for a, b in [(2.0, 1.0), (0.5, 0.5), (1.0, 3.0)]:
                log_c = build_partition_table(n, a, b, log_c_only=True)
                assert abs(log_c - log_c_plain(n, a, b)) <= 1e-10 * max(1.0, abs(log_c))

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            build_partition_table(0, 1.0, 1.0)
        with pytest.raises(ResourceLimitError):
            build_partition_table(100_001, 1.0, 1.0, log_c_only=True)
        with pytest.raises(ResourceLimitError):
            build_partition_table(50_000, 1.0, 1.0)  # full table would be ~20 GB

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (0.3, 0.45)])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_packed_rows(self, n, a, b):
        # row r of the packed probabilities is the step conditionals of the
        # recursion's rows r-1 and r, cut to the n-r+2 valid columns; log_l[r]
        # is log L_r(0), the log c of an r-site system times 4^r; the arrays
        # hold 8 (n+1)(n+4) + 8 (n+1) bytes
        t = build_partition_table(n, a, b)
        for r, row in enumerate(_log_l_rows(n, a, b, math.log(b))):
            cur = row[: n - r + 2]
            if r:
                assert np.array_equal(t.prob_up[t.row(r)], np.exp(prev[1:] - cur))
                assert np.array_equal(t.prob_flat[t.row(r)],
                                      np.exp(math.log(2.0) + prev[:-1] - cur))
                assert t.log_l[r] - r * math.log(4.0) == build_partition_table(
                    r, a, b, log_c_only=True)
            prev = cur
        assert t.log_l[0] == 0.0
        assert t.log_c == build_partition_table(n, a, b, log_c_only=True)
        nbytes = t.log_l.nbytes + t.prob_up.nbytes + t.prob_flat.nbytes
        assert nbytes == 8 * (n + 1) * (n + 4) + 8 * (n + 1)

    def test_build_memory(self):
        # the build holds the packed table plus O(n) rows, no dense temporary
        tracemalloc.start()
        try:
            build_partition_table(512, 0.5, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (8 * 513 * 516 + 8 * 513)


class TestSampler:
    def test_single_site_up_probability(self):
        # P(s1 up-step) = (1+b)/(2+a+b) = 2/5 at (a, b) = (2, 1)
        t = build_partition_table(1, 2.0, 1.0)
        paths = sample_two_line(t, 200_000, seed=3)
        frac = paths.s1[:, 1].mean()
        assert abs(frac - 0.4) <= 3.0 * math.sqrt(0.4 * 0.6 / 200_000)

    def test_paths_are_valid(self):
        t = build_partition_table(7, 0.5, 2.0)
        paths = sample_two_line(t, 1000, seed=1)
        for arr in (paths.s1, paths.s2):
            assert (arr[:, 0] == 0).all()
            steps = np.diff(arr, axis=1)
            assert ((steps == 0) | (steps == 1)).all()

    def test_determinism_and_chunk_merge(self):
        t = build_partition_table(5, 0.5, 2.0)
        p1 = sample_two_line(t, 40_000, seed=11)
        p2 = sample_two_line(t, 40_000, seed=11)
        assert np.array_equal(p1.s1, p2.s1) and np.array_equal(p1.s2, p2.s2)
        p4 = sample_two_line(t, 40_000, seed=11, threads=4)
        assert np.array_equal(p1.s1, p4.s1) and np.array_equal(p1.s2, p4.s2)

    def test_paths_cap(self, monkeypatch):
        # 2 * count * n bytes of uint8 increments over TABLE_BYTES_CAP is
        # refused before any chunk is sampled
        def no_sampling(*args):
            raise AssertionError("sampled past the paths cap")

        monkeypatch.setattr(two_line_sampler, "_walk", no_sampling)
        t = build_partition_table(1000, 0.5, 0.8)
        count = two_line_sampler.TABLE_BYTES_CAP // (2 * 1000)
        with pytest.raises(ResourceLimitError):
            sample_two_line(t, count + 1, seed=1)
        with pytest.raises(AssertionError):  # the largest count within the cap passes
            sample_two_line(t, count, seed=1)

    def test_functionals_cap(self, monkeypatch):
        # 8 * count * len(positions) bytes of int32 output over
        # TABLE_BYTES_CAP is refused before any chunk is sampled
        def no_sampling(*args):
            raise AssertionError("sampled past the functionals cap")

        monkeypatch.setattr(two_line_sampler, "_walk", no_sampling)
        t = build_partition_table(10, 0.5, 0.8)
        count = two_line_sampler.TABLE_BYTES_CAP // (8 * 3)
        with pytest.raises(ResourceLimitError):
            sample_functionals(t, count + 1, seed=1, positions=[0, 5, 10])
        with pytest.raises(AssertionError):  # the largest count within the cap passes
            sample_functionals(t, count, seed=1, positions=[0, 5, 10])

    def test_joint_frequencies_chi_square(self):
        # goodness-of-fit of 10^6 draws against the enumerated joint;
        # the statistic is within 5 sigma of its df for an exact sampler
        n, a, b = 6, 0.5, 2.0
        t = build_partition_table(n, a, b)
        e = tle_enumerate(n, a, b)
        probs = (e.joint / e.joint.sum()).ravel()
        counts = joint_counts(sample_two_line(t, 10**6, seed=4), n)
        expected = probs * 10**6
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        df = 4**n - 1
        assert abs(chi2 - df) <= 5.0 * math.sqrt(2.0 * df)

    def test_marginal_tv_against_generator(self):
        # the sampler's s1-marginal vs the Markov stationary law: its exact law
        # within TV 3e-3, and the TV of 10^6 seeded draws in the i.i.d. band
        n, a, b, draws = 6, 0.5, 2.0, 10**6
        t = build_partition_table(n, a, b)
        p = params_from_ab(a, b)
        pi = solve_stationary(build_generator(n, p.alpha, p.beta))
        law = sampler_path_law(t).sum(axis=1)
        assert 0.5 * np.abs(law - pi).sum() <= 3e-3
        paths = sample_two_line(t, draws, seed=7)
        d1 = paths.inc1
        idx = d1 @ (1 << np.arange(n, dtype=np.int64))
        emp = np.bincount(idx, minlength=1 << n).astype(float)
        emp /= emp.sum()
        lo, hi = iid_tv_reference(pi, draws).band(5.0)
        assert lo <= 0.5 * np.abs(emp - pi).sum() <= hi

    def test_fair_coin_increments_at_triple_point(self):
        # weight identically 1: s1 increments are i.i.d. fair coins
        t = build_partition_table(8, 1.0, 1.0)
        paths = sample_two_line(t, 10**6, seed=13)
        d1 = paths.inc1
        counts = np.bincount(d1.ravel(), minlength=2).astype(float)
        total = counts.sum()
        chi2 = float(((counts - total / 2) ** 2 / (total / 2)).sum())
        # chi-square with 1 df: 1e-3 level threshold is 10.83
        assert chi2 <= 10.83
        # and adjacent increments are uncorrelated
        c = np.corrcoef(d1[:, 0], d1[:, 1])[0, 1]
        assert abs(c) <= 4.0 / math.sqrt(d1.shape[0])

    def test_paths_and_csv_memory(self, tmp_path):
        # paths are stored as uint8 increments and the CSV writer formats one
        # block of rows at a time, so sampling plus writing peaks near the
        # stored bytes; heights are their cumulative sums, built on access
        n, count = 1000, 4000
        t = build_partition_table(n, 0.5, 0.8)
        tracemalloc.start()
        try:
            paths = sample_two_line(t, count, seed=1)
            paths.write_csv(tmp_path / "samples.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * count * n + two_line_sampler.CSV_BLOCK_BYTES + (1 << 20)
        for inc, s in ((paths.inc1, paths.s1), (paths.inc2, paths.s2)):
            assert inc.dtype == np.uint8 and inc.nbytes == count * n
            assert s.dtype == np.int32 and (s[:, 0] == 0).all()
            assert np.array_equal(s[:, 1:], np.cumsum(inc, axis=1))

    def test_functionals_match_paths(self):
        t = build_partition_table(9, 0.7, 1.4)
        paths = sample_two_line(t, 5000, seed=21)
        for positions in ([3, 9], [9, 0, 3, 9]):
            s1, d = sample_functionals(t, 5000, seed=21, positions=positions)
            assert np.array_equal(s1, paths.s1[:, positions])
            assert np.array_equal(d, paths.s1[:, positions] - paths.s2[:, positions])


class _Uniforms:
    """Stands in for a Generator: random(count) returns the next given array."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, count):
        u = self.draws.pop(0)
        assert u.shape == (count,)
        return u


class TestStepRule:
    """One uniform u per step, cut at h = P(0)/2, h + P(+1) and P(+1) + P(0)
    into the joint increments (0,0) | (1,0) | (1,1) | (0,1)."""

    # increments for u just below, at and just above each of the three cuts
    WANT = [(0, 0), (1, 0), (1, 0), (1, 0), (1, 1), (1, 1), (1, 1), (0, 1), (0, 1)]

    @staticmethod
    def around_cuts(table, r, q):
        p_up = table.prob_up[table.row(r)][q]
        p_flat = table.prob_flat[table.row(r)][q]
        h = 0.5 * p_flat
        cuts = (h, h + p_up, p_up + p_flat)
        assert 0.0 < cuts[0] < cuts[1] < cuts[2] < 1.0
        return np.array([u for c in cuts
                         for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))])

    def test_cuts_at_gap_zero(self):
        t = build_partition_table(2, 0.5, 2.0)
        u = self.around_cuts(t, 2, 0)
        inc1, inc2 = next(two_line_sampler._walk(t, u.size, _Uniforms(u)))
        assert list(zip(inc1.astype(int).tolist(), inc2.astype(int).tolist())) == self.WANT

    def test_cuts_at_positive_gap(self):
        # u = h exactly forces (1, 0) on the first step, so the second step
        # starts at gap q = 1 with one step remaining
        t = build_partition_table(2, 0.5, 2.0)
        u = self.around_cuts(t, 1, 1)
        first = np.full(u.size, 0.5 * t.prob_flat[t.row(2)][0])
        (a1, a2), (b1, b2) = two_line_sampler._walk(t, u.size, _Uniforms(first, u))
        assert a1.all() and not a2.any()
        steps = list(zip(b1.astype(int).tolist(), b2.astype(int).tolist()))
        assert steps == self.WANT


class TestMaximalInequalities:
    @pytest.mark.parametrize("n", [50, 200])
    def test_levy_ottaviani_bound(self, n):
        # E[c^(-min(S1-S2))] <= 1 + 2 E[c^|S1(N)-S2(N)|] for independent fair
        # walks; checked within 3 combined standard errors (the c=2, N=200
        # case is heavy-tailed, so only the noise-aware reading is testable)
        t = build_partition_table(n, 1.0, 1.0)
        paths = sample_two_line(t, 10**5, seed=12)
        diff = paths.s1 - paths.s2
        mins = diff.min(axis=1).astype(float)
        d = diff[:, -1].astype(float)
        for c in (1.2, 2.0):
            lhs = c ** (-mins)
            rhs = 1.0 + 2.0 * c ** np.abs(d)
            slack = rhs - lhs
            se = slack.std(ddof=1) / math.sqrt(slack.size)
            assert slack.mean() >= -3.0 * se

    @pytest.mark.parametrize("n", [50, 200])
    def test_moment_bound(self, n):
        t = build_partition_table(n, 1.0, 1.0)
        paths = sample_two_line(t, 10**5, seed=12)
        d = (paths.s1[:, -1] - paths.s2[:, -1]).astype(float)
        lam = 2.0 / math.sqrt(n)
        emp = np.exp(lam * np.abs(d)).mean()
        assert emp <= 2.0 * math.exp(lam**2 * n / 2.0)


class TestEndpointDistribution:
    def test_binomial_at_triple_point(self):
        for n in (5, 40):
            dp = height_endpoint_distribution(n, 1.0, 1.0)
            binom = np.array([comb(n, k) * 0.5**n for k in range(n + 1)])
            assert np.max(np.abs(dp - binom)) <= 1e-12

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.5, 0.5), (3.0, 3.0)])
    def test_matches_exact_marginal(self, a, b):
        for n in (4, 8):
            rec = stationary_weights_recursive(n, a, b)
            probs = rec.probabilities()
            marg = np.zeros(n + 1)
            for i in range(1 << n):
                marg[bin(i).count("1")] += probs[i]
            dp = height_endpoint_distribution(n, a, b)
            assert np.max(np.abs(dp - marg)) <= 1e-10

    def test_sums_to_one(self):
        dp = height_endpoint_distribution(100, 2.0, 1.0)
        assert dp.sum() == pytest.approx(1.0, abs=1e-10)

    def test_mean_near_density(self):
        dp = height_endpoint_distribution(100, 2.0, 1.0)
        mean = float(np.arange(101) @ dp) / 100
        assert abs(mean - 1 / 3) <= 0.02

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            height_endpoint_distribution(121, 1.0, 1.0)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        t = build_partition_table(3, 0.5, 2.0)
        paths = sample_two_line(t, 4, seed=2)
        path = tmp_path / "samples.csv"
        paths.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s1_1,s1_2,s1_3,s2_1,s2_2,s2_3"
        assert len(lines) == 5
        d1, d2 = paths.inc1, paths.inc2
        first = [int(x) for x in lines[1].split(",")]
        assert first == list(d1[0]) + list(d2[0])

    @pytest.mark.parametrize("n,count,threads", [(1, 5, 1), (2, 9, 1), (7, 40, 1),
                                                 (40, 25, 1), (2, CHUNK + 3, 2),
                                                 (1000, 600, 1)])
    def test_csv_matches_reference(self, tmp_path, n, count, threads):
        # the whole file against rows joined cell by cell from the increments;
        # n = 1000 spans several CSV blocks, the last one partial
        paths = sample_two_line(build_partition_table(n, 0.5, 2.0), count, seed=4,
                                threads=threads)
        path = tmp_path / "samples.csv"
        paths.write_csv(path)
        d1, d2 = paths.inc1, paths.inc2
        header = [f"s1_{j}" for j in range(1, n + 1)] + [f"s2_{j}" for j in range(1, n + 1)]
        rows = [",".join(map(str, d1[i].tolist() + d2[i].tolist())) for i in range(count)]
        assert path.read_bytes() == "\n".join([",".join(header)] + rows + [""]).encode()

    def test_binary_format(self, tmp_path):
        t = build_partition_table(9, 0.5, 2.0)
        paths = sample_two_line(t, 3, seed=2)
        path = tmp_path / "samples.bin"
        paths.write_binary(path)
        raw = path.read_bytes()
        assert int.from_bytes(raw[:4], "little") == 9
        per_line = (9 + 7) // 8
        assert len(raw) == 4 + 3 * 2 * per_line
        d1, d2 = paths.inc1, paths.inc2
        offset = 4
        for i in range(3):
            bits1 = int.from_bytes(raw[offset : offset + per_line], "little")
            offset += per_line
            bits2 = int.from_bytes(raw[offset : offset + per_line], "little")
            offset += per_line
            assert [((bits1 >> j) & 1) for j in range(9)] == list(d1[i])
            assert [((bits2 >> j) & 1) for j in range(9)] == list(d2[i])
