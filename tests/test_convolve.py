import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etacong import _convolve
from etacong.numerics import PrecisionError
from etacong._convolve import (
    binary_power,
    convolve_exact,
    convolve_mod,
    eta_integer_power_mod,
    inverse_mod,
    pentagonal_mod,
    power_mod,
)

# one, two and three 11-bit limbs; 5^14 also overflows int64 when squared
LIMB_MODULI = [(289, 1), (5 ** 6, 2), (5 ** 14, 3)]
# above the direct path's size limit, so every product takes the fft route
FFT_N = 700


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=40),
    st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=40),
    st.sampled_from([2, 17, 289, 1529 ** 2, 2 ** 25 - 39]),
)
def test_convolve_mod_matches_exact(a, b, m):
    a = [x % m for x in a]
    b = [x % m for x in b]
    n_out = len(a) + len(b) - 1
    want = [c % m for c in convolve_exact(a, b, n_out)]
    got = convolve_mod(np.array(a, dtype=np.int64),
                       np.array(b, dtype=np.int64), m, n_out)
    assert list(got) == want


def test_convolve_mod_large_inputs_cross_fft_threshold():
    rng = np.random.default_rng(20240501)
    m = 289
    a = rng.integers(0, m, 5000, dtype=np.int64)
    b = rng.integers(0, m, 5000, dtype=np.int64)
    got = convolve_mod(a, b, m, 5000)
    want = np.convolve(a, b)[:5000] % m  # exact: 288^2 * 5000 << 2^63
    assert np.array_equal(got, want)


def test_convolve_mod_two_limb_modulus_large():
    rng = np.random.default_rng(7)
    m = 1529 ** 2
    a = rng.integers(0, m, 2000, dtype=np.int64)
    b = rng.integers(0, m, 2000, dtype=np.int64)
    got = convolve_mod(a, b, m, 2000)
    want = [c % m for c in convolve_exact(a.tolist(), b.tolist(), 2000)]
    assert list(got) == want


def test_pentagonal_series_signs():
    e = pentagonal_mod(1000, 30)
    nonzero = {n: int(v) for n, v in enumerate(e) if v}
    assert nonzero == {0: 1, 1: 999, 2: 999, 5: 1, 7: 1, 12: 999, 15: 999,
                       22: 1, 26: 1}


def test_power_mod_matches_repeated_multiplication():
    base = pentagonal_mod(97, 50)
    direct = np.zeros(50, dtype=np.int64)
    direct[0] = 1
    for _ in range(24):
        direct = convolve_mod(direct, base, 97, 50)
    assert np.array_equal(power_mod(base, 24, 97, 50), direct)
    assert np.array_equal(eta_integer_power_mod(24, 97, 50), direct)


def test_modulus_limit_guard():
    with pytest.raises(ValueError, match="modulus too large"):
        convolve_mod(np.ones(4, dtype=np.int64), np.ones(4, dtype=np.int64),
                     1 << 40, 4)


def test_convolve_mod_worst_case_beyond_int64_square():
    # (m - 1)^2 overflows int64 at 5^14, so limb recombination must split
    m = 5 ** 14
    a = np.full(8192, m - 1, dtype=np.int64)
    got = convolve_mod(a, a, m, 8192)
    assert got.tolist() == [(k + 1) * (m - 1) ** 2 % m for k in range(8192)]


def test_binary_power_rejects_negative_and_non_integral_exponents():
    assert [binary_power(3, e, 1, operator.mul) for e in range(6)] == [
        1, 3, 9, 27, 81, 243]
    with pytest.raises(ValueError, match="negative exponent"):
        binary_power(3, -1, 1, operator.mul)
    with pytest.raises(TypeError):
        binary_power(3, 0.5, 1, operator.mul)


@pytest.mark.parametrize("m,limbs", LIMB_MODULI)
@pytest.mark.parametrize("worst", [False, True])
def test_square_equals_product_equals_exact(m, limbs, worst):
    if worst:
        a = np.full(FFT_N, m - 1, dtype=np.int64)
    else:
        a = np.random.default_rng(m).integers(0, m, FFT_N, dtype=np.int64)
    want = [c % m for c in convolve_exact(a.tolist(), a.tolist(), FFT_N)]
    assert convolve_mod(a, a, m, FFT_N).tolist() == want
    assert convolve_mod(a, a.copy(), m, FFT_N).tolist() == want


def count_transforms(monkeypatch):
    counts = Counter()
    for name in ("rfft", "irfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.mark.parametrize("m,limbs", LIMB_MODULI)
def test_fft_counts_per_square_and_product(monkeypatch, m, limbs):
    a = np.random.default_rng(1).integers(0, m, FFT_N, dtype=np.int64)
    counts = count_transforms(monkeypatch)
    convolve_mod(a, a, m, FFT_N)
    assert counts == {"rfft": limbs, "irfft": 2 * limbs - 1}
    counts.clear()
    convolve_mod(a, a.copy(), m, FFT_N)
    assert counts == {"rfft": 2 * limbs, "irfft": 2 * limbs - 1}


# inverse transforms per product when each sums at most `group` limb pairs
GROUPED_IRFFTS = {(1, 1): 1, (2, 1): 4, (2, 2): 3, (3, 1): 9, (3, 2): 6,
                  (3, 3): 5}


@pytest.mark.parametrize("m,limbs", LIMB_MODULI)
def test_rounding_bound_enforced_at_its_limit(monkeypatch, m, limbs):
    a = np.full(FFT_N, m - 1, dtype=np.int64)
    b = a[:600].copy()
    pair_bound = (2 ** 11 - 1) ** 2 * 600  # the shorter operand's length
    want = [c % m for c in convolve_exact(a.tolist(), b.tolist(), FFT_N)]
    counts = count_transforms(monkeypatch)
    monkeypatch.setattr(_convolve, "ROUNDING_LIMIT", pair_bound)
    with pytest.raises(PrecisionError, match=f"= {pair_bound} >= {pair_bound}"):
        convolve_mod(a, b, m, FFT_N)
    assert counts == {}  # refused before transforming
    for group in range(1, limbs + 1):
        # the largest limit at which an inverse transform sums `group` pairs
        monkeypatch.setattr(_convolve, "ROUNDING_LIMIT", (group + 1) * pair_bound)
        counts.clear()
        assert convolve_mod(a, b, m, FFT_N).tolist() == want
        assert counts == {"rfft": 2 * limbs,
                          "irfft": GROUPED_IRFFTS[limbs, group]}


def test_power_mod_never_multiplies_by_one(monkeypatch):
    calls = []

    def counted(f, g, m, n_out):
        calls.append(f is g)
        return convolve_mod(f, g, m, n_out)

    monkeypatch.setattr(_convolve, "convolve_mod", counted)
    base = pentagonal_mod(97, 50)
    assert power_mod(base, 0, 97, 50).tolist() == [1] + [0] * 49
    assert power_mod(base, 1, 97, 50).tolist() == base.tolist()
    assert calls == []
    # 13 = 0b1101: three squarings and two products, none by the series 1
    power_mod(base, 13, 97, 50)
    assert sorted(calls) == [False, False, True, True, True]
    short = power_mod(base[:10], 1, 97, 50)
    assert short.tolist() == base[:10].tolist() + [0] * 40


@pytest.mark.parametrize("m,limbs", LIMB_MODULI)
def test_inverse_mod_times_series_is_one(m, limbs):
    f = np.random.default_rng(m).integers(0, m, FFT_N, dtype=np.int64)
    f[0] = 2
    g = inverse_mod(f, m, FFT_N)
    product = convolve_exact(f.tolist(), g.tolist(), FFT_N)
    assert [c % m for c in product] == [1] + [0] * (FFT_N - 1)
    with pytest.raises(ValueError):
        inverse_mod(np.array([5, 1]), 5 ** 6, 2)
