"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
pass/fail line per criterion (visible with ``pytest -s``):

 1. deterministic bound table over the stride quadruple (0.5%, < 1 s)
 2. ensemble velocity bound over 1e5 seeded draws (2%, < 10 s)
 3. rate ceiling values (0.001 Mbps)
 4. bound curve spot values (0.1%)
 5. estimator RMSE tracks the bounds at 20 dB, overhead 0.5
    (both ratios within [0.8, 1.3], < 5 min single-threaded)
 6. aliasing plateau at overhead 0.02 (range RMSE in [100, 200] m)
 7. property suite: (a) exact zero cross moment for periodic patterns,
    (b) generic vs closed-form bounds 1e-12, (c) analytic vs numeric
    derivatives 1e-6, (d) full-inverse vs reduced-inverse identity 1e-10,
    (e) noiseless end-to-end error < 0.05 bins, (f) exact delay aliasing
 8. byte-identical sweep CSV across 1, 2 and 8 workers
"""

import dataclasses
import time

import numpy as np
import pytest

from bisac import (
    ExperimentConfig,
    OfdmNumerology,
    PeriodogramConfig,
    PilotPattern,
    SensingChannelParams,
    apply_channel,
    crb,
    crb_periodic_closed_form,
    generate_frame,
    ls_channel_estimate,
    make_periodic,
    mean_response,
    mean_response_jacobian,
    pattern_stats,
    periodic_stats_closed_form,
    periodogram_2d,
    rate_upper_bound,
    refine_peak,
    run_sweep,
    efim,
    fisher_matrix,
)

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")

NUM = OfdmNumerology()  # 70 x 50, 200 kHz, 1 us CP, 30 GHz
STRIDE_QUADRUPLE = ((1, 11), (2, 5), (5, 2), (11, 1))


def _criterion(number: str, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] acceptance {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_bound_table_deterministic():
    start = time.perf_counter()
    expected = {(1, 11): 0.2511, (2, 5): 0.2512, (5, 2): 0.2517, (11, 1): 0.2306}
    params = SensingChannelParams.from_snr_db(5.0)
    values = {
        strides: crb_periodic_closed_form(params, NUM, *strides).rmse_bound_ran_m
        for strides in STRIDE_QUADRUPLE
    }
    elapsed = time.perf_counter() - start
    ok = all(
        abs(values[s] - expected[s]) / expected[s] <= 0.005 for s in STRIDE_QUADRUPLE
    )
    detail = ", ".join(f"{s}: {values[s]:.4f}" for s in STRIDE_QUADRUPLE)
    _criterion("1", "root range bound quadruple within 0.5%", ok, detail)
    _criterion("1r", "runtime below 1 s", elapsed < 1.0, f"{elapsed:.3f} s")


def test_criterion_2_bound_table_stochastic():
    from bisac.harness import run_table1

    start = time.perf_counter()
    cfg = ExperimentConfig(
        pattern=make_periodic(70, 50, 2, 5), snr_grid_db=(5.0,), seed=123
    )
    rows = run_table1(cfg, snr_db=5.0, draws=100_000)
    elapsed = time.perf_counter() - start
    expected = {(1, 11): 0.1862, (2, 5): 0.2016, (5, 2): 0.2008, (11, 1): 0.2007}
    values = {(r.n_p, r.m_p): r.ecrb_vel_ms for r in rows}
    ok = all(
        abs(values[s] - expected[s]) / expected[s] <= 0.02 for s in STRIDE_QUADRUPLE
    )
    detail = ", ".join(f"{s}: {values[s]:.4f}" for s in STRIDE_QUADRUPLE)
    _criterion("2", "ensemble velocity bound quadruple within 2%", ok, detail)
    _criterion("2r", "runtime below 10 s", elapsed < 10.0, f"{elapsed:.3f} s")


def test_criterion_3_rate_table():
    expected = {0.02: 23.523, 0.1: 21.602, 0.5: 12.001, 1.0: 0.0}
    values = {
        rho: rate_upper_bound(NUM, rho, 5.0) / 1e6 for rho in expected
    }
    ok = all(abs(values[r] - expected[r]) <= 0.001 for r in expected)
    detail = ", ".join(f"rho={r}: {values[r]:.4f} Mbps" for r in expected)
    _criterion("3", "rate ceiling values within 0.001 Mbps", ok, detail)


def test_criterion_4_bound_curve_spot_checks():
    full = crb(
        SensingChannelParams.from_snr_db(0.0), make_periodic(70, 50, 1, 1), NUM
    ).rmse_bound_ran_m
    tenth = crb(
        SensingChannelParams.from_snr_db(10.0), make_periodic(70, 50, 2, 5), NUM
    ).rmse_bound_ran_m
    ok = (
        abs(full - 0.14122) / 0.14122 <= 0.001
        and abs(tenth - 0.14126) / 0.14126 <= 0.001
    )
    _criterion(
        "4",
        "bound spot values within 0.1%",
        ok,
        f"full overhead at 0 dB: {full:.5f} m, overhead 0.1 at 10 dB: {tenth:.5f} m",
    )


def test_criterion_5_estimator_tracks_bounds():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        pattern=make_periodic(70, 50, 2, 1),
        snr_grid_db=(20.0,),
        trials_per_point=200,
        fft=PeriodogramConfig(1024, 1024),
        seed=123,
        workers=1,
        ecrb_draws=100_000,
    )
    row = run_sweep(cfg).rows[0]
    elapsed = time.perf_counter() - start
    ratio_ran = row.rmse_range_m / row.sqrt_crb_ran_m
    ratio_vel = row.rmse_vel_ms / row.ecrb_vel_ms
    ok = 0.8 <= ratio_ran <= 1.3 and 0.8 <= ratio_vel <= 1.3
    _criterion(
        "5",
        "RMSE/bound ratios within [0.8, 1.3] at 20 dB",
        ok,
        f"range {ratio_ran:.3f}, velocity {ratio_vel:.3f}, "
        f"valid fraction {row.valid_trial_fraction:.2f}",
    )
    _criterion("5r", "runtime below 5 min single-threaded", elapsed < 300.0,
               f"{elapsed:.1f} s")
    _criterion("5v", "all trials valid at this operating point",
               row.valid_trial_fraction == 1.0)


def test_criterion_6_aliasing_plateau():
    cfg = ExperimentConfig(
        pattern=make_periodic(70, 50, 10, 5),
        snr_grid_db=(10.0,),
        trials_per_point=200,
        fft=PeriodogramConfig(1024, 1024),
        seed=123,
        workers=1,
        ecrb_draws=10_000,
    )
    row = run_sweep(cfg).rows[0]
    ok = 100.0 <= row.rmse_range_m <= 200.0
    _criterion(
        "6",
        "range RMSE plateaus near the stride-10 ambiguity span",
        ok,
        f"RMSE {row.rmse_range_m:.1f} m over valid fraction "
        f"{row.valid_trial_fraction:.3f}",
    )


def test_criterion_7a_cross_moment_exactly_zero():
    # Full stride cross product at the largest grid, plus every
    # (grid, stride) combination per axis. The index sums of a periodic
    # lattice factorize over the axes, so these sweeps jointly cover all
    # grids and strides up to 128.
    checks = 0
    for n_p in range(1, 129):
        for m_p in range(1, 129):
            st = pattern_stats(make_periodic(128, 128, n_p, m_p))
            assert st.q_nm == 0.0
            assert st == periodic_stats_closed_form(128, 128, n_p, m_p)
            checks += 1
    for n_grid in range(1, 129):
        for n_p in range(1, n_grid + 1):
            st = pattern_stats(make_periodic(n_grid, 8, n_p, 3))
            assert st.q_nm == 0.0
            assert st == periodic_stats_closed_form(n_grid, 8, n_p, 3)
            checks += 1
    for m_grid in range(1, 129):
        for m_p in range(1, m_grid + 1):
            st = pattern_stats(make_periodic(8, m_grid, 3, m_p))
            assert st.q_nm == 0.0
            assert st == periodic_stats_closed_form(8, m_grid, 3, m_p)
            checks += 1
    _criterion("7a", "cross moment exactly zero for periodic patterns", True,
               f"{checks} patterns")


def test_criterion_7b_generic_vs_closed_form_bounds():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(500):
        n_grid = int(rng.integers(3, 129))
        m_grid = int(rng.integers(3, 129))
        n_p = int(rng.integers(1, n_grid))
        m_p = int(rng.integers(1, m_grid))
        num = dataclasses.replace(NUM, n_subcarriers=n_grid, n_symbols=m_grid)
        params = SensingChannelParams(
            alpha_re=rng.uniform(0.3, 2.0),
            alpha_im=rng.uniform(-2.0, 2.0),
            noise_var=rng.uniform(0.01, 10.0),
        )
        beta = rng.uniform(0.0, 2.8)
        closed = crb_periodic_closed_form(params, num, n_p, m_p, beta)
        generic = crb(params, make_periodic(n_grid, m_grid, n_p, m_p), num, beta)
        worst = max(
            worst,
            abs(closed.crb_ran_m2 - generic.crb_ran_m2) / generic.crb_ran_m2,
            abs(closed.crb_vel_ms2 - generic.crb_vel_ms2) / generic.crb_vel_ms2,
        )
    _criterion("7b", "generic and closed-form bounds agree to 1e-12",
               worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_7c_derivatives_vs_finite_differences():
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        cell = [[int(rng.integers(0, 70)), int(rng.integers(0, 50))]]
        pattern = PilotPattern(n_grid=70, m_grid=50, cells=cell)
        params = SensingChannelParams(
            alpha_re=rng.uniform(0.3, 2.0),
            alpha_im=rng.uniform(-2.0, 2.0),
            tau=rng.uniform(0.0, 2e-6),
            f_d=rng.uniform(-5e3, 5e3),
            noise_var=1.0,
        )
        symbols = np.exp(2j * np.pi * rng.uniform(0, 1, 1))
        jac = mean_response_jacobian(params, pattern, NUM, symbols)
        steps = {
            "alpha_re": 1e-6,
            "alpha_im": 1e-6,
            "f_d": 1e-4 / (2 * np.pi * 50 * NUM.symbol_duration_s),
            "tau": 1e-4 / (2 * np.pi * 70 * NUM.subcarrier_spacing_hz),
        }
        for k, (name, h) in enumerate(steps.items()):
            hi = dataclasses.replace(params, **{name: getattr(params, name) + h})
            lo = dataclasses.replace(params, **{name: getattr(params, name) - h})
            fd = (
                mean_response(hi, pattern, NUM, symbols)
                - mean_response(lo, pattern, NUM, symbols)
            ) / (2 * h)
            scale = max(np.abs(jac[:, k]).max(), 1e-300)
            worst = max(worst, float(np.abs(fd - jac[:, k]).max() / scale))
    _criterion("7c", "analytic derivatives match central differences to 1e-6",
               worst <= 1e-6, f"worst {worst:.2e}")


def test_criterion_7d_schur_inverse_identity():
    rng = np.random.default_rng(271)
    worst = 0.0
    trials = 0
    while trials < 40:
        n_grid = int(rng.integers(8, 129))
        m_grid = int(rng.integers(8, 129))
        count = int(rng.integers(6, 200))
        flat = rng.choice(n_grid * m_grid, size=min(count, n_grid * m_grid), replace=False)
        pattern = PilotPattern(
            n_grid=n_grid, m_grid=m_grid,
            cells=np.column_stack([flat // m_grid, flat % m_grid]),
        )
        if pattern_stats(pattern).q_det <= 0:
            continue
        params = SensingChannelParams(
            alpha_re=rng.uniform(0.3, 2.0),
            alpha_im=rng.uniform(-2.0, 2.0),
            noise_var=rng.uniform(0.01, 10.0),
        )
        j_inv = np.linalg.inv(fisher_matrix(params, pattern, NUM).j)
        e_inv = np.linalg.inv(efim(params, pattern, NUM))
        for k in range(2):
            worst = max(worst, abs(j_inv[k + 2, k + 2] - e_inv[k, k]) / abs(e_inv[k, k]))
        trials += 1
    _criterion("7d", "full-inverse diagonal matches reduced inverse to 1e-10",
               worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_7e_noiseless_end_to_end_bins():
    rng = np.random.default_rng(161)
    pattern = make_periodic(70, 50, 2, 5)
    cfg = PeriodogramConfig(1024, 1024)
    delay_span = 1.0 / (2 * NUM.subcarrier_spacing_hz)
    doppler_span = 1.0 / (5 * NUM.symbol_duration_s)
    worst_delay = worst_doppler = 0.0
    frame = generate_frame(NUM, pattern, seed=99)
    for _ in range(50):
        tau = rng.uniform(0.02, 0.98) * delay_span
        f_d = rng.uniform(-0.48, 0.48) * doppler_span
        params = SensingChannelParams(tau=tau, f_d=f_d, noise_var=0.0)
        received = apply_channel(frame, params, NUM, 0)
        surface = periodogram_2d(ls_channel_estimate(received, frame, pattern), cfg)
        b_r, b_v = np.unravel_index(np.argmax(surface), surface.shape)
        refined = refine_peak(surface, (int(b_r), int(b_v)))
        tau_hat = ((b_r + refined.offsets[0]) % cfg.fft_n) / (
            2 * NUM.subcarrier_spacing_hz * cfg.fft_n
        )
        signed = b_v - cfg.fft_m if b_v > cfg.fft_m // 2 else b_v
        f_d_hat = (signed + refined.offsets[1]) / (
            5 * NUM.symbol_duration_s * cfg.fft_m
        )
        worst_delay = max(
            worst_delay, abs(tau_hat - tau) * 2 * NUM.subcarrier_spacing_hz * cfg.fft_n
        )
        worst_doppler = max(
            worst_doppler, abs(f_d_hat - f_d) * 5 * NUM.symbol_duration_s * cfg.fft_m
        )
    ok = worst_delay < 0.05 and worst_doppler < 0.05
    _criterion("7e", "noiseless end-to-end error below 0.05 bins", ok,
               f"worst delay {worst_delay:.4f}, worst doppler {worst_doppler:.4f}")


def test_criterion_7f_exact_delay_aliasing():
    # dyadic arrangement makes every phase quantity exactly representable,
    # so aliased pilot-cell values must be bitwise identical
    dy = OfdmNumerology(
        n_subcarriers=64, n_symbols=32,
        subcarrier_spacing_hz=2.0**18, cp_duration_s=2.0**-18,
    )
    pattern = make_periodic(64, 32, 4, 2)
    frame = generate_frame(dy, pattern, seed=55)
    tau = 2.0**-20 + 2.0**-23
    step = 1.0 / (4 * dy.subcarrier_spacing_hz)
    base = apply_channel(
        frame, SensingChannelParams(tau=tau, f_d=2.0**10, noise_var=0.0), dy, 0
    )
    alias = apply_channel(
        frame, SensingChannelParams(tau=tau + step, f_d=2.0**10, noise_var=0.0), dy, 0
    )
    mask = pattern.mask()
    ok = bool(np.array_equal(base[mask], alias[mask]))
    _criterion("7f", "delay aliasing identity exact on pilot cells", ok,
               f"{int(mask.sum())} pilot cells bitwise equal")


def test_criterion_8_worker_determinism():
    def sweep_text(workers: int) -> str:
        cfg = ExperimentConfig(
            pattern=make_periodic(70, 50, 2, 1),
            snr_grid_db=(0.0, 10.0),
            trials_per_point=8,
            fft=PeriodogramConfig(256, 256),
            seed=2025,
            workers=workers,
            ecrb_draws=2000,
        )
        return run_sweep(cfg).to_csv()

    reference = sweep_text(1)
    ok = all(sweep_text(w) == reference for w in (2, 8))
    _criterion("8", "sweep CSV byte-identical across 1, 2, 8 workers", ok)
