import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etacong._convolve import (
    binary_power,
    convolve_exact,
    convolve_mod,
    eta_integer_power_mod,
    pentagonal_mod,
    power_mod,
)


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
