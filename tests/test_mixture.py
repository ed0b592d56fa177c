import io
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import lognorm

from hitmix.graph import Graph, SeedSet, load_edge_list
from hitmix.mixture import (EmCollapseError, HitmixConfig, MomentTable,
                            VertexSamples, bic, component_means,
                            draw_pseudo_samples, em_fit, hitmix, lognormal_mom)
from hitmix.moments import compute_moments
from oracles import reference_em_fit


def fit_bits(fit_fn, samples, g, cfg):
    """Everything a fit returns, as bytes where it is an array, or the message
    of the EmCollapseError it raises."""
    try:
        fit = fit_fn(samples, g, cfg)
    except EmCollapseError as exc:
        return str(exc)
    return (fit.responsibilities.tobytes(), np.array(fit.ll_history).tobytes(),
            fit.iterations, fit.converged, fit.weights.tobytes(), fit.components)


def lognormal_moments(mu, sigma2):
    mean = np.exp(mu + sigma2 / 2.0)
    var = (np.exp(sigma2) - 1.0) * np.exp(2.0 * mu + sigma2)
    return mean, var


def moment_table(vertices, means, variances):
    vertices = np.asarray(vertices)
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    return MomentTable(vertices, means, variances,
                       np.ones(vertices.size, dtype=bool), [])


def statistics_of(data):
    """VertexSamples of an explicit (n, m) matrix of positive samples."""
    logt = np.log(data)
    return VertexSamples(logt.sum(axis=1), (logt ** 2).sum(axis=1), data.shape[1])


def synthetic_samples(log_means, sigma2, n_per_group, m, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for mu in log_means:
        rows.append(rng.lognormal(mu, np.sqrt(sigma2), size=(n_per_group, m)))
    return statistics_of(np.vstack(rows))


def three_separated_groups():
    """Statistics on which the quantile start of g = 4 puts two components into
    one group of per-vertex mean log t, and one of them collapses."""
    rng = np.random.default_rng(0)
    mu = np.concatenate([c + 0.05 * rng.standard_normal(k)
                         for c, k in [(-4.6, 1610), (-2.0, 1684), (5.5, 1706)]])
    sigma2, m = 0.1, 31
    s1 = m * mu + np.sqrt(sigma2) * np.sqrt(m) * rng.standard_normal(mu.size)
    s2 = s1 ** 2 / m + sigma2 * rng.chisquare(m - 1, mu.size)
    return VertexSamples(s1, s2, m)


class TestLognormalMom:
    def test_derived_unit_case(self):
        p = lognormal_mom(np.sqrt(2.0), 2.0)
        assert abs(p.mu) <= 1e-14
        assert abs(p.sigma2 - np.log(2.0)) <= 1e-14

    def test_derived_mu1_sigma1(self):
        p = lognormal_mom(np.exp(1.5), (np.e - 1.0) * np.e ** 3)
        assert abs(p.mu - 1.0) <= 1e-12
        assert abs(p.sigma2 - 1.0) <= 1e-12

    def test_zero_variance_floors(self):
        p = lognormal_mom(1.0, 0.0)
        assert p.sigma2 == 1e-8
        assert abs(p.mu + 5e-9) <= 1e-15

    def test_nonpositive_mean_errors(self):
        with pytest.raises(ValueError):
            lognormal_mom(0.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_mom(-2.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(-2.0, 3.0), sigma2=st.floats(0.01, 4.0))
    def test_round_trip(self, mu, sigma2):
        mean, var = lognormal_moments(mu, sigma2)
        p = lognormal_mom(mean, var)
        assert abs(p.mu - mu) <= 1e-12 * max(1.0, abs(mu))
        assert abs(p.sigma2 - sigma2) <= 1e-12 * max(1.0, sigma2)


class TestPseudoSamples:
    def test_deterministic(self):
        t = moment_table([0, 1, 2], [2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        a = draw_pseudo_samples(t, 10, 5)
        b = draw_pseudo_samples(t, 10, 5)
        assert np.array_equal(a.s1, b.s1) and np.array_equal(a.s2, b.s2)

    def test_vertex_streams_independent_of_order(self):
        t = moment_table([3, 7], [2.0, 5.0], [1.0, 1.0])
        t_rev = moment_table([7, 3], [5.0, 2.0], [1.0, 1.0])
        a = draw_pseudo_samples(t, 8, 9)
        b = draw_pseudo_samples(t_rev, 8, 9)
        assert np.array_equal(a.s1, b.s1[::-1])
        assert np.array_equal(a.s2, b.s2[::-1])

    def test_vertex_streams_independent_of_other_vertices(self):
        rng = np.random.default_rng(0)
        vertices = np.sort(rng.choice(500, size=40, replace=False))
        t = moment_table(vertices, rng.uniform(1.0, 50.0, 40), rng.uniform(0.0, 100.0, 40))
        full = draw_pseudo_samples(t, 25, 3)
        # drop the smallest, a middle and the largest id in turn
        for drop in (0, 17, 39):
            keep = np.arange(40) != drop
            part = draw_pseudo_samples(
                moment_table(vertices[keep], t.mean[keep], t.variance[keep]), 25, 3)
            assert np.array_equal(part.s1, full.s1[keep])
            assert np.array_equal(part.s2, full.s2[keep])

    def test_statistics_have_sample_law(self):
        # s1 / m ~ N(mu, sigma2 / m) and (s2 - s1^2 / m) / sigma2 ~ chi2_{m-1}
        n, m = 20_000, 25
        mean, var = 6.0, 9.0
        p = lognormal_mom(mean, var)
        s = draw_pseudo_samples(moment_table(np.arange(n), np.full(n, mean),
                                             np.full(n, var)), m, 4)
        assert abs((s.s1 / m).mean() - p.mu) <= 3 * np.sqrt(p.sigma2 / (m * n))
        scatter = (s.s2 - s.s1 ** 2 / m) / p.sigma2
        assert abs(scatter.mean() - (m - 1)) <= 3 * np.sqrt(2 * (m - 1) / n)

    def test_single_sample_has_no_scatter(self):
        t = moment_table([0, 1], [2.0, 3.0], [1.0, 2.0])
        s = draw_pseudo_samples(t, 1, 6)
        assert np.array_equal(s.s2, s.s1 ** 2)

    def test_floored_variance_samples_near_mean(self):
        t = moment_table([0], [5.0], [0.0])
        s = draw_pseudo_samples(t, 100, 1)
        assert np.allclose(np.exp(s.s1 / 100), 5.0, rtol=1e-3)
        assert abs(s.s2 / 100 - (s.s1 / 100) ** 2).max() <= 1e-6

    def test_law_of_large_numbers(self):
        t = moment_table([0], [6.0], [9.0])
        p = lognormal_mom(6.0, 9.0)
        m = 100_000
        s = draw_pseudo_samples(t, m, 2)
        log_mean = s.s1[0] / m
        log_var = (s.s2[0] - s.s1[0] ** 2 / m) / (m - 1)
        assert abs(log_mean - p.mu) <= 3 * np.sqrt(p.sigma2 / m)
        assert abs(log_var - p.sigma2) <= 3 * p.sigma2 * np.sqrt(2.0 / (m - 1))

    def test_zero_m_errors(self):
        t = moment_table([0], [1.0], [1.0])
        with pytest.raises(ValueError):
            draw_pseudo_samples(t, 0, 0)

    def test_unreachable_rows_are_skipped(self):
        # Unreachable rows carry NaN moments, as compute_moments leaves them.
        t = MomentTable(np.array([1, 4, 6, 9]), np.array([2.0, np.nan, 5.0, np.nan]),
                        np.array([1.0, np.nan, 3.0, np.nan]),
                        np.array([True, False, True, False]), [])
        a = draw_pseudo_samples(t, 7, 4)
        b = draw_pseudo_samples(moment_table([1, 6], [2.0, 5.0], [1.0, 3.0]), 7, 4)
        assert a.s1.tobytes() == b.s1.tobytes()
        assert a.s2.tobytes() == b.s2.tobytes()


class TestEmFit:
    def test_recovers_separated_groups(self):
        vs = synthetic_samples([0.0, 5.0], 0.1, 100, 25, seed=3)
        fit = em_fit(vs, 2)
        mus = sorted(c.mu for c in fit.components)
        assert abs(mus[0] - 0.0) <= 0.1
        assert abs(mus[1] - 5.0) <= 0.1
        assert np.allclose(np.sort(fit.weights), [0.5, 0.5], atol=0.05)

    def test_identical_samples_do_not_crash(self):
        vs = statistics_of(np.full((20, 10), 3.0))
        fit = em_fit(vs, 2)
        assert np.allclose(fit.responsibilities, fit.weights, atol=1e-9)
        assert np.isfinite(fit.log_likelihood)

    def test_log_likelihood_matches_sample_matrix(self):
        rng = np.random.default_rng(12)
        data = np.vstack([rng.lognormal(0.0, 0.5, size=(6, 5)),
                          rng.lognormal(2.0, 0.3, size=(6, 5))])
        fit = em_fit(statistics_of(data), 2, HitmixConfig(em_rel_tol=1e-14))
        assert fit.converged
        joint = sum(w * lognorm.pdf(data, s=np.sqrt(c.sigma2), scale=np.exp(c.mu)).prod(axis=1)
                    for w, c in zip(fit.weights, fit.components))
        direct = float(np.log(joint).sum())
        assert abs(fit.log_likelihood - direct) <= 1e-10 * abs(direct)

    def test_loglik_monotone(self):
        vs = synthetic_samples([0.0, 1.0], 0.5, 60, 10, seed=8)
        fit = em_fit(vs, 3)
        ll = np.asarray(fit.ll_history)
        assert (np.diff(ll) >= -1e-10).all()

    def test_responsibilities_row_normalized(self):
        vs = synthetic_samples([0.0, 2.0], 0.3, 50, 15, seed=1)
        fit = em_fit(vs, 2)
        assert np.abs(fit.responsibilities.sum(axis=1) - 1.0).max() <= 1e-12
        assert abs(fit.weights.sum() - 1.0) <= 1e-12

    def test_collapse_raises(self):
        # EM once reset the collapsed component and stopped at its unfitted
        # start, with ll_history [-61768.07, -61768.07], as "converged".
        vs = three_separated_groups()
        with pytest.raises(EmCollapseError, match=r"\(g=4, iter=1\)"):
            em_fit(vs, 4)
        fit = em_fit(vs, 3)
        assert fit.converged and fit.log_likelihood > -6000

    def test_fit_runs_in_the_given_work_array(self):
        vs = synthetic_samples([0.0, 2.0, 4.0], 0.3, 40, 15, seed=2)
        g, n = 3, vs.s1.size
        work = np.empty((g + 2, n))
        fit, want = em_fit(vs, g, work=work), em_fit(vs, g)
        assert np.shares_memory(fit.responsibilities, work)
        assert fit.responsibilities.shape == (n, g)
        assert fit.responsibilities.tobytes() == want.responsibilities.tobytes()
        assert np.array(fit.ll_history).tobytes() == np.array(want.ll_history).tobytes()
        assert fit.weights.tobytes() == want.weights.tobytes()
        assert fit.components == want.components

    @pytest.mark.parametrize("shape, dtype, order", [
        ((4, 120), np.float64, "C"), ((5, 120), np.float32, "C"), ((5, 120), np.float64, "F"),
    ], ids=["g+1 rows", "float32", "fortran"])
    def test_unfit_work_array_errors(self, shape, dtype, order):
        vs = synthetic_samples([0.0, 2.0, 4.0], 0.3, 40, 15, seed=2)
        with pytest.raises(ValueError, match="work must be"):
            em_fit(vs, 3, work=np.empty(shape, dtype, order))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 3000), g=st.integers(2, 6), m=st.integers(1, 40),
           max_iters=st.integers(1, 300), groups=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_array_reference_bit_for_bit(self, n, g, m, max_iters, groups, seed):
        # The parameter step runs on Python floats; the reference runs it on
        # NumPy arrays and reduces the E-step with axis-0 np.max and np.sum.
        assume(g <= n)
        rng = np.random.default_rng(seed)
        log_means = rng.normal(0.0, 2.0, groups)[rng.integers(0, groups, n)]
        log_means += 0.1 * rng.standard_normal(n)
        means = np.exp(log_means)
        table = moment_table(np.arange(n), means, means ** 2 * rng.uniform(0.01, 1.0))
        samples = draw_pseudo_samples(table, m, seed)
        cfg = HitmixConfig(em_max_iters=max_iters)
        assert fit_bits(em_fit, samples, g, cfg) == fit_bits(reference_em_fit, samples, g, cfg)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_equals_array_reference_on_three_groups(self, g):
        samples, cfg = three_separated_groups(), HitmixConfig()
        assert fit_bits(em_fit, samples, g, cfg) == fit_bits(reference_em_fit, samples, g, cfg)

    def test_too_many_components_errors(self):
        vs = synthetic_samples([0.0], 0.1, 3, 5, seed=0)
        with pytest.raises(ValueError):
            em_fit(vs, 4)
        with pytest.raises(ValueError):
            em_fit(vs, 1)


class TestBic:
    def test_formula(self):
        vs = synthetic_samples([0.0, 3.0], 0.2, 100, 25, seed=4)
        fit = em_fit(vs, 2)
        expected = 5 * np.log(200 * 25) - 2 * fit.log_likelihood
        assert bic(fit, 200, 25) == pytest.approx(expected, rel=1e-14)

    def test_penalty_monotone_at_fixed_likelihood(self):
        vs = synthetic_samples([0.0, 3.0], 0.2, 50, 10, seed=4)
        fit2 = em_fit(vs, 2)
        fit3 = em_fit(vs, 3)
        fit3.log_likelihood = fit2.log_likelihood
        assert bic(fit3, 100, 10) > bic(fit2, 100, 10)

    def test_selects_true_group_count(self):
        vs = synthetic_samples([0.0, 5.0], 0.1, 100, 25, seed=5)
        fit4 = em_fit(vs, 4)
        assert fit4.converged
        assert bic(em_fit(vs, 2), 200, 25) < bic(fit4, 200, 25)
        with pytest.raises(EmCollapseError, match=r"g=3"):
            em_fit(vs, 3)


class TestHitmix:
    def test_label_permutation_invariance(self):
        vs = synthetic_samples([0.0, 2.0], 0.3, 40, 20, seed=6)
        fit = em_fit(vs, 2)
        goal = int(np.argmin(component_means(fit)))
        post = fit.responsibilities[:, goal]
        # permute component order and recompute
        fit.components = fit.components[::-1]
        fit.weights = fit.weights[::-1].copy()
        fit.responsibilities = fit.responsibilities[:, ::-1].copy()
        goal_p = int(np.argmin(component_means(fit)))
        assert np.array_equal(post, fit.responsibilities[:, goal_p])

    def test_degenerate_star_does_not_crash(self):
        g = load_edge_list(io.StringIO("0 1\n0 2\n0 3\n0 4\n0 5"))
        seeds = SeedSet.from_members([0], 6)
        res = hitmix(g, seeds, HitmixConfig(g_candidates=(2,), rng_seed=0))
        assert res.posterior.shape == (5,)
        # all moments identical: every vertex must get the same label
        assert len(set(res.labels.tolist())) == 1

    def test_tau_one_gives_empty_goal_set(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n2 3\n3 4"))
        seeds = SeedSet.from_members([4], 5)
        res = hitmix(g, seeds, HitmixConfig(g_candidates=(2,), tau=1.0, rng_seed=1))
        assert res.goal_set.size == 0

    def test_unreachable_gets_zero_posterior(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n3 4\n3 5\n4 5"))
        seeds = SeedSet.from_members([0], 6)
        res = hitmix(g, seeds, HitmixConfig(g_candidates=(2,), rng_seed=2))
        unreachable = ~res.moments.reachable
        assert unreachable.sum() == 3
        assert (res.posterior[unreachable] == 0.0).all()
        assert not res.labels[unreachable].any()

    def test_deterministic_given_seed(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n2 3\n0 3\n3 4\n4 5"))
        seeds = SeedSet.from_members([0], 6)
        cfg = HitmixConfig(g_candidates=(2,), rng_seed=11)
        a = hitmix(g, seeds, cfg)
        b = hitmix(g, seeds, cfg)
        assert np.array_equal(a.posterior, b.posterior)
        assert a.selected_g == b.selected_g
        assert a.bic_by_g == b.bic_by_g

    def test_bic_selection_over_candidates(self):
        rng = np.random.default_rng(0)
        from hitmix.sbm import SbmConfig, sample_sbm, sample_hitting_set
        g, labels = sample_sbm(SbmConfig(2, 60, 0.3, 0.02), rng)
        seeds = sample_hitting_set(labels, 15, rng)
        res = hitmix(g, seeds, HitmixConfig(g_candidates=(2, 3), rng_seed=4))
        assert res.selected_g in (2, 3)
        assert set(res.bic_by_g) == {2, 3}

    def test_collapsed_g_is_skipped(self, monkeypatch, caplog):
        def collapse_at_3(samples, g, cfg=None, work=None):
            if g == 3:
                raise EmCollapseError("EM component collapsed (g=3, iter=1)")
            return em_fit(samples, g, cfg, work=work)     # this module's unpatched binding

        monkeypatch.setattr("hitmix.mixture.em_fit", collapse_at_3)
        rng = np.random.default_rng(0)
        from hitmix.sbm import SbmConfig, sample_sbm, sample_hitting_set
        g, labels = sample_sbm(SbmConfig(2, 60, 0.3, 0.02), rng)
        seeds = sample_hitting_set(labels, 15, rng)
        res = hitmix(g, seeds, HitmixConfig(rng_seed=4))
        assert set(res.fits) == set(res.bic_by_g) == {2, 4, 5}
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["skipping g=3: EM component collapsed (g=3, iter=1)"]

    def test_threaded_fits_equal_serial_fits(self, monkeypatch):
        # Four fit threads on fewer cores, switching often: each fit must still
        # equal, byte for byte, em_fit called alone on the same statistics.
        from hitmix.sbm import SbmConfig, sample_sbm, sample_hitting_set
        rng = np.random.default_rng(7)
        graph, labels = sample_sbm(SbmConfig(2, 1000, 0.012, 0.004), rng)
        seeds = sample_hitting_set(labels, 20, rng)
        cfg = HitmixConfig(g_candidates=(2, 3, 4, 5), rng_seed=3)
        samples = draw_pseudo_samples(compute_moments(graph, seeds, cfg.cg), cfg.m, cfg.rng_seed)
        serial = {g: em_fit(samples, g, cfg) for g in cfg.g_candidates}
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fits = hitmix(graph, seeds, cfg).fits
                assert list(fits) == list(cfg.g_candidates)
                for g, fit in fits.items():
                    want = serial[g]
                    assert fit.responsibilities.tobytes() == want.responsibilities.tobytes()
                    assert fit.responsibilities.T.flags.c_contiguous
                    assert np.array(fit.ll_history).tobytes() == np.array(want.ll_history).tobytes()
                    assert fit.weights.tobytes() == want.weights.tobytes()
                    assert fit.components == want.components
                    assert (fit.iterations, fit.converged) == (want.iterations, want.converged)
        finally:
            sys.setswitchinterval(interval)

    def test_one_feasible_g_does_not_count_cpus(self, monkeypatch):
        def cpu_count():
            raise AssertionError("os.cpu_count called with one feasible g")

        monkeypatch.setattr(os, "cpu_count", cpu_count)
        rng = np.random.default_rng(0)
        from hitmix.sbm import SbmConfig, sample_sbm, sample_hitting_set
        graph, labels = sample_sbm(SbmConfig(2, 60, 0.3, 0.02), rng)
        seeds = sample_hitting_set(labels, 15, rng)
        res = hitmix(graph, seeds, HitmixConfig(g_candidates=(2,), rng_seed=4))
        assert set(res.fits) == {2}

    def test_real_collapses_in_fit_threads_are_skipped(self, monkeypatch, caplog):
        # A star with the seed at its centre gives 5,000 reachable leaves; their
        # statistics are replaced by groups on which g = 4 and 5 collapse at once.
        graph = Graph.from_edges(5001, np.zeros(5000, dtype=np.int64), np.arange(1, 5001))
        samples = three_separated_groups()
        monkeypatch.setattr("hitmix.mixture.draw_pseudo_samples",
                            lambda *args: three_separated_groups())
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        res = hitmix(graph, SeedSet.from_members([0], 5001), HitmixConfig())
        assert set(res.fits) == {2, 3}
        assert res.selected_g == 3
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"skipping g={g}: EM component collapsed (g={g}, iter=1)"
                            for g in (4, 5)]
        for g, fit in res.fits.items():
            want = em_fit(samples, g)
            assert fit.responsibilities.tobytes() == want.responsibilities.tobytes()
            assert np.array(fit.ll_history).tobytes() == np.array(want.ll_history).tobytes()
            assert fit.weights.tobytes() == want.weights.tobytes()
            assert fit.components == want.components

    def test_fits_are_submitted_largest_g_first(self, monkeypatch, caplog):
        # The pool gets the longest fits first. Fits, BIC values and WARNINGs
        # (collapses of g = 4 and 5, g = 6000 > n) still follow g_candidates.
        submitted = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(fn.args[1])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr("hitmix.mixture.ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr("hitmix.mixture.draw_pseudo_samples",
                            lambda *args: three_separated_groups())
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        graph = Graph.from_edges(5001, np.zeros(5000, dtype=np.int64), np.arange(1, 5001))
        cfg = HitmixConfig(g_candidates=(3, 5, 6000, 2, 4))
        res = hitmix(graph, SeedSet.from_members([0], 5001), cfg)
        assert submitted == [5, 4, 3, 2]
        assert list(res.fits) == list(res.bic_by_g) == [3, 2]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["skipping g=5: EM component collapsed (g=5, iter=1)",
                            "skipping g=6000: more components than vertices",
                            "skipping g=4: EM component collapsed (g=4, iter=1)"]
        for g, fit in res.fits.items():
            assert fit.responsibilities.tobytes() == \
                em_fit(three_separated_groups(), g).responsibilities.tobytes()

    def test_each_fit_gets_a_work_array(self, monkeypatch):
        shapes = {}

        def recording_em_fit(samples, g, cfg=None, work=None):
            shapes[g] = (getattr(work, "shape", None), samples.s1.size)
            return em_fit(samples, g, cfg, work=work)

        monkeypatch.setattr("hitmix.mixture.em_fit", recording_em_fit)
        rng = np.random.default_rng(0)
        from hitmix.sbm import SbmConfig, sample_sbm, sample_hitting_set
        graph, labels = sample_sbm(SbmConfig(2, 60, 0.3, 0.02), rng)
        seeds = sample_hitting_set(labels, 15, rng)
        hitmix(graph, seeds, HitmixConfig(rng_seed=4))
        assert set(shapes) == {2, 3, 4, 5}
        assert all(shape == (g + 2, n) for g, (shape, n) in shapes.items())


class TestHitmixConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HitmixConfig(m=0)
        with pytest.raises(ValueError):
            HitmixConfig(tau=1.5)
        with pytest.raises(ValueError):
            HitmixConfig(g_candidates=(1, 2))

    @pytest.mark.parametrize("em_rel_tol", [-1.0, -1e-300, 1.0, np.inf, np.nan])
    def test_em_rel_tol_outside_unit_interval_errors(self, em_rel_tol):
        with pytest.raises(ValueError, match="em_rel_tol"):
            HitmixConfig(em_rel_tol=em_rel_tol)

    @pytest.mark.parametrize("g_candidates", [(), (2, 2), (2, 3, 2)])
    def test_empty_or_repeated_g_candidates_error(self, g_candidates):
        with pytest.raises(ValueError, match="distinct"):
            HitmixConfig(g_candidates=g_candidates)
