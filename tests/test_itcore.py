import math

import numpy as np
import pytest

from compositions_reference import compositions_iter
from nts.itcore import (
    Channel,
    Distribution,
    JointDistribution,
    ResourceLimitError,
    TypeWithDenominator,
    MAX_LOG_CODEBOOK,
    codebook_size,
    compositions_array,
    empirical_joint_type,
    kl_masses,
    mutual_information,
    num_compositions,
)


def binary_entropy(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


class TestValidation:
    def test_distribution_renormalizes_small_deviation(self):
        d = Distribution(np.array([0.5, 0.5 + 5e-10]))
        assert abs(d.probs.sum() - 1.0) <= 1e-12

    def test_distribution_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.49]))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            Distribution(np.array([1.1, -0.1]))

    def test_channel_rows_validated(self):
        with pytest.raises(ValueError):
            Channel(np.array([[0.9, 0.09], [0.1, 0.9]]))

    def test_immutable(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_type_counts_must_sum_to_n(self):
        with pytest.raises(ValueError):
            TypeWithDenominator(np.array([[1, 0], [0, 0]]), 2)


class TestKlJoint:
    """``kl_masses`` on the masses of joint distributions."""

    def test_identity_is_zero(self):
        a = np.array([[0.3, 0.2], [0.1, 0.4]])
        assert kl_masses(a, a) == 0.0

    def test_support_violation_is_inf(self):
        a = np.array([[0.5, 0.5], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert kl_masses(a, b) == math.inf

    def test_hand_summed_value(self):
        a = np.full((2, 2), 0.25)
        b = np.outer([0.75, 0.25], [0.5, 0.5])
        expected = sum(0.25 * math.log(0.25 / bij) for bij in b.ravel())
        assert kl_masses(a, b) == pytest.approx(expected, abs=1e-15)

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.dirichlet(np.ones(6)).reshape(2, 3)
            b = rng.dirichlet(np.ones(6)).reshape(2, 3)
            d = kl_masses(a, b)
            assert d >= 0
            if d < 1e-10:
                assert np.allclose(a, b, atol=1e-10)
            assert kl_masses(a, a) == 0.0


class TestProductAndMi:
    def test_product_has_zero_mi(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            t = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(2))
            assert mutual_information(JointDistribution(np.outer(t, q))) == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_binary(self):
        j = JointDistribution(np.eye(2) * 0.5)
        assert mutual_information(j) == pytest.approx(math.log(2), abs=1e-12)

    def test_bsc_closed_form(self):
        q = Distribution.uniform(2)
        p = Channel.bsc(0.1)
        j = JointDistribution(q.probs[None, :] * p.matrix.T)
        expected = math.log(2) - binary_entropy(0.1)
        assert mutual_information(j) == pytest.approx(expected, abs=1e-12)
        assert f"{mutual_information(j):.6f}" == "0.368064"

    def test_mi_equals_kl_to_own_marginals(self):
        rng = np.random.default_rng(4)
        j = JointDistribution(rng.dirichlet(np.ones(6)).reshape(3, 2))
        py, px = j.mass.sum(axis=1), j.mass.sum(axis=0)
        ref = sum(j.mass[y, x] * math.log(j.mass[y, x] / (py[y] * px[x])) for y in range(3) for x in range(2))
        assert mutual_information(j) == pytest.approx(ref, abs=1e-15)


class TestEmpiricalType:
    def test_diagonal(self):
        t = empirical_joint_type([0, 1], [0, 1], 2, 2)
        assert np.array_equal(t.counts, np.eye(2, dtype=int))
        assert t.n == 2

    def test_yx_layout(self):
        t = empirical_joint_type([0, 0], [0, 1], 2, 2)
        assert np.array_equal(t.counts, np.array([[1, 0], [1, 0]]))

    def test_conservation(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 3, size=1000)
        y = rng.integers(0, 2, size=1000)
        assert empirical_joint_type(x, y, 3, 2).counts.sum() == 1000

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(2)
        x1, y1 = rng.integers(0, 2, 40), rng.integers(0, 2, 40)
        x2, y2 = rng.integers(0, 2, 60), rng.integers(0, 2, 60)
        t1 = empirical_joint_type(x1, y1, 2, 2)
        t2 = empirical_joint_type(x2, y2, 2, 2)
        cat = empirical_joint_type(np.concatenate([x1, x2]), np.concatenate([y1, y2]), 2, 2)
        assert np.array_equal(cat.counts, t1.counts + t2.counts)

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_joint_type([0, 1], [0], 2, 2)
        with pytest.raises(ValueError):
            empirical_joint_type([0, 2], [0, 1], 2, 2)


class TestEnumeration:
    def test_compositions_array_matches_iter(self):
        arr = compositions_array(4, 3)
        assert arr.shape == (num_compositions(4, 3), 3)
        assert (arr.sum(axis=1) == 4).all()
        assert len(np.unique(arr, axis=0)) == arr.shape[0]


@pytest.mark.parametrize(
    "total,parts", [(t, k) for t in range(13) for k in range(1, 7)] + [(12, 9), (0, 3)]
)
def test_compositions_array_equals_iter(total, parts):
    arr = compositions_array(total, parts)
    assert arr.dtype == np.int64
    assert np.array_equal(arr, np.array(list(compositions_iter(total, parts)), dtype=np.int64))


class TestCodebookSize:
    @pytest.mark.parametrize("rate", [-0.1, math.nan], ids=["negative", "nan"])
    def test_bad_rate_refused(self, rate):
        with pytest.raises(ValueError, match=f"^rate must be non-negative and not NaN, got {rate!r}$"):
            codebook_size(6, rate)

    def test_snaps_log_integer_rates(self):
        assert codebook_size(2, math.log(3) / 2) == 3
        assert codebook_size(6, math.log(3) / 6) == 3

    def test_plain_ceiling(self):
        assert codebook_size(1, 0.0) == 1
        assert codebook_size(2, 0.5) == 3  # e^1 = 2.718 -> 3

    def test_beyond_float_range_names_cap(self):
        assert codebook_size(1, 709.0) == math.ceil(math.exp(709.0))
        # n beyond the float range: the product n * rate is formed exactly.
        assert codebook_size(10**400, 0.0) == 1
        assert codebook_size(10**309, 5e-324) == 1
        for n, rate in (
            (100_000, 0.45), (20_000, 0.5), (1, MAX_LOG_CODEBOOK + 1e-9), (10**400, 0.3), (10**400, 1e-320)
        ):
            with pytest.raises(ResourceLimitError) as err:
                codebook_size(n, rate)
            assert "exceeds the cap" in str(err.value)
