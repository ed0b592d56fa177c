import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import lognorm

from hitmix.graph import SeedSet, load_edge_list
from hitmix.mixture import (HitmixConfig, MomentTable, VertexSamples, bic,
                            component_means, draw_pseudo_samples, em_fit,
                            hitmix, lognormal_mom)
from hitmix.moments import compute_moments


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

    def test_unreachable_rejected(self):
        t = moment_table([0, 1], [1.0, 2.0], [1.0, 1.0])
        t.reachable[1] = False
        with pytest.raises(ValueError):
            draw_pseudo_samples(t, 5, 0)


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
        assert bic(em_fit(vs, 2), 200, 25) < bic(em_fit(vs, 3), 200, 25)


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
        unreachable = ~res.reachable
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


class TestHitmixConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HitmixConfig(m=0)
        with pytest.raises(ValueError):
            HitmixConfig(tau=1.5)
        with pytest.raises(ValueError):
            HitmixConfig(g_candidates=(1, 2))
