import numpy as np
import pytest

from bisac import (
    PatternError,
    PilotPattern,
    make_periodic,
    max_unambiguous,
    pattern_stats,
    periodic_stats_closed_form,
)


class TestMakePeriodic:
    def test_stride_2_5_counts(self):
        p = make_periodic(70, 50, 2, 5)
        assert p.periodic_counts() == (34, 9)
        assert p.size == 350
        assert p.overhead == pytest.approx(0.1, rel=0, abs=0)

    def test_stride_11_1_counts(self):
        p = make_periodic(70, 50, 11, 1)
        assert p.periodic_counts() == (6, 49)
        assert p.size == 350
        assert p.overhead == pytest.approx(0.1)

    def test_full_grid(self):
        p = make_periodic(2, 2, 1, 1)
        assert p.size == 4
        assert p.overhead == 1.0
        assert sorted(map(tuple, p.cells)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_overhead_family(self):
        # the four overhead levels used by the default experiments
        for (n_p, m_p), rho in [((10, 5), 0.02), ((2, 5), 0.1), ((2, 1), 0.5), ((1, 1), 1.0)]:
            assert make_periodic(70, 50, n_p, m_p).overhead == pytest.approx(rho)

    def test_stride_bounds(self):
        with pytest.raises(PatternError):
            make_periodic(70, 50, 0, 1)
        with pytest.raises(PatternError):
            make_periodic(70, 50, 71, 1)
        with pytest.raises(PatternError):
            make_periodic(70, 50, 1, 51)

    def test_duplicate_and_bounds_validation(self):
        with pytest.raises(PatternError):
            PilotPattern(n_grid=4, m_grid=4, cells=[[0, 0], [0, 0]])
        with pytest.raises(PatternError):
            PilotPattern(n_grid=4, m_grid=4, cells=[[4, 0]])
        with pytest.raises(PatternError):
            PilotPattern(n_grid=4, m_grid=4, cells=np.empty((0, 2), dtype=int))

    def test_grid_too_large_for_int64_cell_keys(self):
        # n * M + m of the last cell would wrap around in int64
        with pytest.raises(PatternError, match="too many cells"):
            PilotPattern(n_grid=2**40, m_grid=2**40, cells=[[2**40 - 1, 0]])

    def test_index_sums_must_fit_int64(self):
        # 2**21 squares of up to (2**21 - 1)**2 sum below 2**63; 2**22 of them would wrap
        exact = make_periodic(2**21, 1, 1, 1)
        assert pattern_stats(exact) == periodic_stats_closed_form(2**21, 1, 1, 1)
        top = 2**31 - 1
        for build in (
            lambda: make_periodic(2**22, 1, 1, 1),
            lambda: make_periodic(2**31, 2**31, 2**29, 2**29),
            lambda: PilotPattern(n_grid=2**31, m_grid=2**31,
                                 cells=[[top, top], [top - 1, top], [top, top - 1], [0, 0]]),
        ):
            with pytest.raises(PatternError, match="int64 index sums"):
                build()


class TestPatternStats:
    def test_four_cell_square_by_hand(self):
        p = PilotPattern(n_grid=2, m_grid=2, cells=[[0, 0], [0, 1], [1, 0], [1, 1]])
        st = pattern_stats(p)
        assert (st.sum_n, st.sum_m, st.sum_nm, st.sum_n2, st.sum_m2) == (2, 2, 1, 2, 2)
        assert st.q_n2 == 1.0
        assert st.q_m2 == 1.0
        assert st.q_nm == 0.0

    def test_singleton_all_zero(self):
        st = pattern_stats(PilotPattern(n_grid=9, m_grid=9, cells=[[4, 7]]))
        assert st.q_n2 == st.q_m2 == st.q_nm == 0.0

    def test_periodic_2_5_second_moment(self):
        # brute force over materialized cells, fully independent arithmetic
        cells = [(n, m) for n in range(0, 70, 2) for m in range(0, 50, 5)]
        size = len(cells)
        sum_n = sum(n for n, _ in cells)
        sum_n2 = sum(n * n for n, _ in cells)
        brute_q_n2 = (size * sum_n2 - sum_n**2) / size
        st = pattern_stats(make_periodic(70, 50, 2, 5))
        assert brute_q_n2 == 142800.0
        assert st.q_n2 == brute_q_n2
        assert st.q_nm == 0.0

    def test_closed_form_matches_generic_exactly(self):
        cases = [(70, 50, 2, 5), (70, 50, 11, 1), (2, 2, 1, 1), (128, 128, 7, 13),
                 (97, 31, 96, 30), (5, 5, 5, 5)]
        for n_grid, m_grid, n_p, m_p in cases:
            assert periodic_stats_closed_form(n_grid, m_grid, n_p, m_p) == pattern_stats(
                make_periodic(n_grid, m_grid, n_p, m_p)
            )

    def test_single_column_zero_q(self):
        st = periodic_stats_closed_form(70, 50, 70, 1)
        assert st.q_n2 == 0.0

    def test_two_by_two_closed_form(self):
        st = periodic_stats_closed_form(2, 2, 1, 1)
        assert st.q_n2 == 1.0 and st.q_m2 == 1.0

    def test_cauchy_schwarz_nonnegativity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_grid = int(rng.integers(2, 12))
            m_grid = int(rng.integers(2, 12))
            count = int(rng.integers(1, n_grid * m_grid + 1))
            flat = rng.choice(n_grid * m_grid, size=count, replace=False)
            p = PilotPattern(
                n_grid=n_grid, m_grid=m_grid,
                cells=np.column_stack([flat // m_grid, flat % m_grid]),
            )
            st = pattern_stats(p)
            assert st.q_n2 >= 0.0
            assert st.q_m2 >= 0.0
            assert st.q_n2 * st.q_m2 - st.q_nm**2 >= -1e-9

    def test_positive_determinant_iff_not_collinear(self):
        # q determinant vanishes exactly when all cells lie on one line
        rng = np.random.default_rng(17)
        for _ in range(300):
            n_grid = int(rng.integers(2, 10))
            m_grid = int(rng.integers(2, 10))
            if rng.random() < 0.5:
                # random subset
                count = int(rng.integers(1, n_grid * m_grid + 1))
                flat = rng.choice(n_grid * m_grid, size=count, replace=False)
                cells = np.column_stack([flat // m_grid, flat % m_grid])
            else:
                # force a line: n = a + b*t, m = c + d*t
                t = np.arange(min(n_grid, m_grid))
                if rng.random() < 0.5:
                    cells = np.column_stack([t, np.full_like(t, rng.integers(m_grid))])
                else:
                    cells = np.column_stack([t, t])
            p = PilotPattern(n_grid=n_grid, m_grid=m_grid, cells=cells)
            st = pattern_stats(p)
            # exact integer determinant as the oracle
            det_num = (p.size * st.sum_n2 - st.sum_n**2) * (
                p.size * st.sum_m2 - st.sum_m**2
            ) - (p.size * st.sum_nm - st.sum_n * st.sum_m) ** 2
            pts = p.cells - p.cells[0]
            collinear = all(
                pts[i, 0] * pts[j, 1] == pts[i, 1] * pts[j, 0]
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )
            assert (det_num > 0) == (not collinear)
            distinct_n = len(set(p.cells[:, 0]))
            distinct_m = len(set(p.cells[:, 1]))
            if det_num > 0:
                assert distinct_n >= 2 and distinct_m >= 2


class TestMaxUnambiguous:
    def test_reference_spacings(self, num):
        rng_span, _ = max_unambiguous(num, 5, 1)
        assert rng_span == pytest.approx(300.0, rel=1e-12)
        rng_span, _ = max_unambiguous(num, 1, 1)
        assert rng_span == pytest.approx(1500.0, rel=1e-12)

    def test_velocity_span(self, num):
        _, vel = max_unambiguous(num, 1, 27, beta=0.0)
        assert vel == pytest.approx(3e8 / (2 * 30e9 * 27 * 6e-6), rel=1e-12)
        assert vel == pytest.approx(30.864, abs=5e-3)
        assert vel >= 30.0

