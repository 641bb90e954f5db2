"""Synthetic equivalents of the paper's real-world key sets.

The paper uses three proprietary/large downloads we cannot ship:

* **IPGEO** — IP→country records from GeoLite2.  Real allocated IPv4
  space is very unevenly distributed over the first octet (RIR blocks),
  and lookup traffic concentrates further (Fig. 3 shows prefix ``0x67`` =
  103 drawing >24 000 operations).  We generate addresses whose first
  octet follows a Zipf-permuted distribution peaked at 0x67, with the
  remaining octets uniform, and country-code values.
* **DICT** — the *dwyl/english-words* list.  English words concentrate on
  few initial letters ('s', 'c', 'p', ...).  We generate pronounceable
  syllable words whose first letter follows measured English first-letter
  frequencies, so the encoded keys reproduce the skewed first-byte
  histogram of Fig. 3.
* **EA** — e-mail addresses.  Provider domains are Zipf-distributed
  (a handful of providers dominate); with the reversed-domain encoding of
  :func:`repro.art.keys.encode_email`, those providers become hot key
  prefixes.

Each generator is seeded and returns unique encoded keys.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.art.keys import encode_str
from repro.errors import WorkloadError
from repro.workloads.zipf import ZipfSampler

# The paper's Fig. 3 shows IPGEO traffic peaking at prefix 0x67 (=103,
# an APNIC block).  We permute octets so rank 0 of the Zipf lands there.
IPGEO_HOT_OCTET = 0x67
IPGEO_OCTET_SKEW = 1.1

# Approximate first-letter frequency of English headwords (percent),
# derived from standard dictionary statistics.
ENGLISH_FIRST_LETTER = {
    "a": 6.5, "b": 4.7, "c": 9.4, "d": 6.1, "e": 3.9, "f": 4.1, "g": 3.3,
    "h": 3.7, "i": 3.9, "j": 1.1, "k": 1.0, "l": 3.1, "m": 5.6, "n": 2.2,
    "o": 2.5, "p": 7.7, "q": 0.5, "r": 6.0, "s": 11.0, "t": 5.0, "u": 2.9,
    "v": 1.5, "w": 2.7, "x": 0.1, "y": 0.6, "z": 0.4,
}

VOWELS = "aeiou"
CONSONANTS = "bcdfghjklmnpqrstvwxyz"

EMAIL_PROVIDERS = [
    "gmail.com", "yahoo.com", "hotmail.com", "outlook.com", "aol.com",
    "icloud.com", "mail.ru", "qq.com", "163.com", "protonmail.com",
    "gmx.de", "web.de", "yandex.ru", "live.com", "msn.com",
    "comcast.net", "verizon.net", "att.net", "orange.fr", "free.fr",
]
EMAIL_PROVIDER_SKEW = 1.05


def ipgeo_keys(n_keys: int, rng: np.random.Generator) -> List[bytes]:
    """Unique IPv4 keys with a Zipf-skewed first octet peaked at 0x67."""
    _check(n_keys)
    if n_keys > 2**28:
        raise WorkloadError("IPGEO generator supports at most 2^28 keys")
    sampler = ZipfSampler(256, IPGEO_OCTET_SKEW, rng)
    # Rank 0 -> the hot octet; remaining ranks -> a seeded permutation.
    others = [o for o in range(256) if o != IPGEO_HOT_OCTET]
    rng.shuffle(others)
    octet_for_rank = np.array([IPGEO_HOT_OCTET] + others, dtype=np.uint32)

    # Addresses as uint32, drawn in rounds until n_keys are unique: a
    # round keeps the first occurrence of each address it draws that no
    # earlier round kept, in draw order.
    addresses = np.empty(0, dtype=np.uint32)
    while len(addresses) < n_keys:
        need = n_keys - len(addresses)
        firsts = octet_for_rank[sampler.sample(need)]
        rest = rng.integers(0, 256, size=(need, 3)).astype(np.uint32)
        drawn = (firsts << 24) | (rest[:, 0] << 16) | (rest[:, 1] << 8) | rest[:, 2]
        _, first_seen = np.unique(drawn, return_index=True)
        drawn = drawn[np.sort(first_seen)]
        if len(addresses):
            # Membership against a sorted copy: np.isin's hash path is
            # several times slower at a million keys.
            kept = np.sort(addresses)
            slot = np.minimum(np.searchsorted(kept, drawn), len(kept) - 1)
            drawn = drawn[kept[slot] != drawn]
        addresses = np.concatenate([addresses, drawn])
    # Order keys by descending block popularity: request popularity in
    # real IP lookup streams correlates with block density (a hot /8
    # holds both more addresses and more traffic), and the workload
    # factory derives op popularity from this order — which is what
    # makes the per-prefix op histogram peak at the hot octet (Fig. 3).
    # The sort is stable, so keys of equally dense blocks keep draw order.
    octets = addresses >> 24
    octet_count = np.bincount(octets, minlength=256)
    addresses = addresses[np.argsort(-octet_count[octets], kind="stable")]
    packed = addresses.astype(">u4").tobytes()
    return [packed[i : i + 4] for i in range(0, len(packed), 4)]


def ipgeo_values(keys: List[bytes], rng: np.random.Generator) -> List[str]:
    """Country codes for IPGEO keys (same first octet → same country,
    mimicking RIR block assignment)."""
    countries = [
        "CN", "US", "JP", "DE", "GB", "FR", "BR", "IN", "RU", "KR",
        "AU", "CA", "IT", "ES", "NL",
    ]
    by_octet = {
        octet: countries[int(c)]
        for octet, c in enumerate(rng.integers(0, len(countries), size=256))
    }
    return [by_octet[key[0]] for key in keys]


def dict_keys(n_keys: int, rng: np.random.Generator) -> List[bytes]:
    """Unique pronounceable pseudo-English words, NUL-terminated UTF-8."""
    _check(n_keys)
    letters = list(ENGLISH_FIRST_LETTER.keys())
    weights = np.array(list(ENGLISH_FIRST_LETTER.values()))
    weights = weights / weights.sum()

    seen = set()
    keys: List[bytes] = []
    while len(keys) < n_keys:
        first = letters[int(rng.choice(len(letters), p=weights))]
        word = first + _syllables(rng, int(rng.integers(1, 4)))
        if word not in seen:
            seen.add(word)
            keys.append(encode_str(word))
    return keys


def _syllables(rng: np.random.Generator, count: int) -> str:
    parts = []
    for _ in range(count):
        consonant = CONSONANTS[int(rng.integers(0, len(CONSONANTS)))]
        vowel = VOWELS[int(rng.integers(0, len(VOWELS)))]
        parts.append(consonant + vowel)
        if rng.random() < 0.3:
            parts.append(CONSONANTS[int(rng.integers(0, len(CONSONANTS)))])
    return "".join(parts)


def email_keys(n_keys: int, rng: np.random.Generator) -> List[bytes]:
    """Unique e-mail keys, encoded as the plain address string.

    The index is keyed by the address itself (``local@domain``), as a
    mail-system index would be: the 8-bit key prefix is the local part's
    first letter, which follows natural name-letter frequencies — a
    skewed-but-covering first-byte histogram like Fig. 3's EA panel.
    Providers are Zipf-distributed across the 20 most common domains.
    """
    _check(n_keys)
    sampler = ZipfSampler(len(EMAIL_PROVIDERS), EMAIL_PROVIDER_SKEW, rng)
    letters = list(ENGLISH_FIRST_LETTER.keys())
    weights = np.array(list(ENGLISH_FIRST_LETTER.values()))
    weights = weights / weights.sum()
    seen = set()
    keys: List[bytes] = []
    serial = 0
    while len(keys) < n_keys:
        provider = EMAIL_PROVIDERS[int(sampler.sample(1)[0])]
        first = letters[int(rng.choice(len(letters), p=weights))]
        local = first + _syllables(rng, int(rng.integers(1, 3)))
        if rng.random() < 0.4:
            local = f"{local}{serial % 1000}"
        serial += 1
        encoded = encode_str(f"{local}@{provider}")
        if encoded not in seen:
            seen.add(encoded)
            keys.append(encoded)
    return keys


def _check(n_keys: int) -> None:
    if n_keys <= 0:
        raise WorkloadError(f"n_keys must be positive: {n_keys}")
