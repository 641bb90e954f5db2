"""Tests for synthetic and real-world-equivalent key generators."""

import numpy as np
import pytest

from repro.art.keys import decode_u64
from repro.errors import WorkloadError
from repro.workloads import realworld, synthetic
from repro.workloads.realworld import IPGEO_HOT_OCTET
from repro.workloads.zipf import ZipfSampler


def rng(seed=1):
    return np.random.default_rng(seed)


def ipgeo_reference(n_keys, generator):
    """``realworld.ipgeo_keys`` as a per-key loop over the same draws."""
    sampler = ZipfSampler(256, realworld.IPGEO_OCTET_SKEW, generator)
    others = [o for o in range(256) if o != IPGEO_HOT_OCTET]
    generator.shuffle(others)
    octet_for_rank = [IPGEO_HOT_OCTET] + others
    seen = set()
    keys = []
    while len(keys) < n_keys:
        need = n_keys - len(keys)
        firsts = sampler.sample(need)
        rest = generator.integers(0, 256, size=(need, 3))
        for rank, tail in zip(firsts.tolist(), rest.tolist()):
            address = bytes([octet_for_rank[rank]] + tail)
            if address not in seen:
                seen.add(address)
                keys.append(address)
    octet_count = [0] * 256
    for key in keys:
        octet_count[key[0]] += 1
    keys.sort(key=lambda k: -octet_count[k[0]])
    return keys


class TestDense:
    def test_values_and_order(self):
        keys = synthetic.dense_keys(100)
        assert [decode_u64(k) for k in keys] == list(range(100))

    def test_rejects_zero(self):
        with pytest.raises(WorkloadError):
            synthetic.dense_keys(0)


class TestRandomDense:
    def test_same_set_as_dense_different_order(self):
        keys = synthetic.random_dense_keys(500, rng())
        assert sorted(decode_u64(k) for k in keys) == list(range(500))
        assert [decode_u64(k) for k in keys] != list(range(500))

    def test_deterministic(self):
        assert synthetic.random_dense_keys(50, rng(3)) == synthetic.random_dense_keys(
            50, rng(3)
        )


class TestRandomSparse:
    def test_unique(self):
        keys = synthetic.random_sparse_keys(2000, rng())
        assert len(set(keys)) == 2000

    def test_spreads_over_first_byte(self):
        keys = synthetic.random_sparse_keys(5000, rng())
        first_bytes = {k[0] for k in keys}
        assert len(first_bytes) > 200  # nearly all 256 appear

    def test_eight_bytes_wide(self):
        assert all(len(k) == 8 for k in synthetic.random_sparse_keys(10, rng()))


class TestIpgeo:
    def test_unique_four_byte_keys(self):
        keys = realworld.ipgeo_keys(3000, rng())
        assert len(set(keys)) == 3000
        assert all(len(k) == 4 for k in keys)

    def test_hot_octet_dominates(self):
        keys = realworld.ipgeo_keys(20_000, rng())
        counts = np.bincount([k[0] for k in keys], minlength=256)
        assert counts.argmax() == IPGEO_HOT_OCTET
        # Fig. 3 signature: the peak towers over the mean.
        assert counts.max() > 5 * counts[counts > 0].mean()

    def test_deterministic(self):
        assert realworld.ipgeo_keys(100, rng(9)) == realworld.ipgeo_keys(100, rng(9))

    @pytest.mark.parametrize("n_keys, seed", [(300, 1), (40_000, 1), (40_000, 42)])
    def test_matches_the_per_key_reference(self, n_keys, seed):
        # At 40k keys some addresses are drawn twice, so the later
        # rounds and the first-occurrence rule are exercised.
        expected = ipgeo_reference(n_keys, rng(seed))
        assert realworld.ipgeo_keys(n_keys, rng(seed)) == expected

    def test_values_follow_first_octet(self):
        keys = realworld.ipgeo_keys(100, rng())
        values = realworld.ipgeo_values(keys, rng(2))
        by_octet = {}
        for key, value in zip(keys, values):
            assert by_octet.setdefault(key[0], value) == value


class TestDict:
    def test_unique_nul_terminated(self):
        keys = realworld.dict_keys(2000, rng())
        assert len(set(keys)) == 2000
        assert all(k.endswith(b"\x00") for k in keys)

    def test_first_letters_skewed_like_english(self):
        keys = realworld.dict_keys(10_000, rng())
        counts = np.bincount([k[0] for k in keys], minlength=256)
        # 's' (0x73) must be among the hottest first letters.
        top5 = set(np.argsort(counts)[-5:])
        assert ord("s") in top5

    def test_words_are_lowercase_ascii(self):
        for key in realworld.dict_keys(200, rng()):
            word = key[:-1].decode("utf-8")
            assert word.isalpha() and word.islower()


class TestEmail:
    def test_unique(self):
        keys = realworld.email_keys(2000, rng())
        assert len(set(keys)) == 2000

    def test_provider_distribution_zipf(self):
        keys = realworld.email_keys(5000, rng())
        # Providers are Zipf-distributed: gmail must dominate.
        gmail = sum(1 for k in keys if b"@gmail.com" in k)
        yandex = sum(1 for k in keys if b"@yandex.ru" in k)
        assert gmail > 0.15 * len(keys)
        assert gmail > 3 * yandex

    def test_first_byte_spreads_over_letters(self):
        keys = realworld.email_keys(5000, rng())
        # The 8-bit prefix is the local part's first letter — it must
        # cover many letters (no single SOU-starving hot byte).
        counts = np.bincount([k[0] for k in keys], minlength=256)
        assert (counts > 0).sum() >= 20
        assert counts.max() < 0.2 * len(keys)

    def test_deterministic(self):
        assert realworld.email_keys(64, rng(4)) == realworld.email_keys(64, rng(4))
