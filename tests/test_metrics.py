from itertools import combinations

import numpy as np
import pytest

from hitmix.metrics import adjusted_rand_index, precision_recall_f1


def brute_force_ari(a, b):
    """Pair-counting ARI straight from the definition."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.size
    ss = sd = ds = dd = 0
    for i, j in combinations(range(n), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            ss += 1
        elif same_a:
            sd += 1
        elif same_b:
            ds += 1
        else:
            dd += 1
    total = n * (n - 1) / 2
    expected = (ss + sd) * (ss + ds) / total
    max_index = 0.5 * ((ss + sd) + (ss + ds))
    if max_index == expected:
        return 1.0 if sd == 0 and ds == 0 else 0.0
    return (ss - expected) / (max_index - expected)


class TestAri:
    def test_relabel_invariance(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_hand_value(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=12)
        b = rng.integers(0, 4, size=12)
        assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b))

    def test_chance_level_near_zero(self):
        rng = np.random.default_rng(0)
        fixed = np.repeat([0, 1], 10)
        vals = []
        for _ in range(10_000):
            vals.append(adjusted_rand_index(rng.permutation(fixed), fixed))
        assert abs(np.mean(vals)) <= 0.02

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 3, size=20)
        b = rng.integers(0, 3, size=20)
        assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)

    def test_at_most_one_and_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.integers(0, 4, size=15)
            b = rng.integers(0, 4, size=15)
            ari = adjusted_rand_index(a, b)
            assert ari <= 1.0
        a = rng.integers(0, 4, size=15)
        assert adjusted_rand_index(a, a) == 1.0

    def test_degenerate_all_singletons(self):
        assert adjusted_rand_index([0, 1, 2], [5, 6, 7]) == 1.0

    def test_degenerate_one_cluster(self):
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0

    def test_degenerate_mixed(self):
        # singletons vs one cluster: not identical partitions
        assert adjusted_rand_index([0, 1, 2], [0, 0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0], [0])


class TestF1:
    def test_perfect(self):
        assert precision_recall_f1({1, 2}, {1, 2}) == (1.0, 1.0, 1.0)

    def test_empty_prediction(self):
        assert precision_recall_f1(set(), {1, 2}) == (0.0, 0.0, 0.0)

    def test_partial_overlap(self):
        p, r, f1 = precision_recall_f1(set(range(8)), set(range(2, 12)))
        assert (p, r, f1) == (0.75, 0.6, pytest.approx(2 / 3))

    def test_f1_zero_iff_no_overlap(self):
        assert precision_recall_f1({1}, {2})[2] == 0.0
        assert precision_recall_f1({1, 2}, {2, 3})[2] > 0.0

