import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etacong import _convolve
from etacong.numerics import PrecisionError
from etacong._convolve import (
    _DIRECT_SIZE_LIMIT,
    FFT_MODULUS_LIMIT,
    ROUNDING_LIMIT,
    _balanced_limbs,
    _limb_layout,
    binary_power,
    convolve_exact,
    convolve_mod,
    eta_integer_power_mod,
    fixed_operand_mod,
    inverse_mod,
    jacobi_cube_mod,
    mul_mod,
    pentagonal_mod,
    power_mod,
)
from etacong.qseries import eta_power_rational

# one, two and three limbs at FFT_N coefficients.  289 has one limb at any
# length.  5^6 and 5^14 are held at two and three by hold_limbs, since on
# their own they take that many only from 2^21 and 2^15 coefficients on;
# 5^14 also overflows int64 when squared
LIMB_MODULI = [(289, 1), (5 ** 6, 2), (5 ** 14, 3)]
# above the direct path's size limit, so every product takes the fft route
FFT_N = 700


def limb_bits(m, limbs):
    """The limb width of m split into `limbs` limbs: ceil(bits(m-1) / L)."""
    return -(-(m - 1).bit_length() // limbs)


def hold_limbs(monkeypatch, m, limbs, short=FFT_N):
    """Lower ROUNDING_LIMIT to the pair bound of one limb fewer, so that m
    takes `limbs` limbs when the shorter operand has `short` coefficients."""
    if limbs > 1:
        monkeypatch.setattr(_convolve, "ROUNDING_LIMIT",
                            4 ** (limb_bits(m, limbs - 1) - 1) * short)
    assert _limb_layout(m, short) == (limbs, limb_bits(m, limbs))


def exact_mod(a, b, m, n_out):
    """The truncated product mod m by one big-integer multiplication."""
    width = 2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length()
    size = -(-width // 8)  # bytes per coefficient; no sum carries past them

    def pack(xs):
        return int.from_bytes(
            b"".join(int(x).to_bytes(size, "little") for x in xs), "little")

    product = (pack(a) * pack(b)).to_bytes(size * (len(a) + len(b)), "little")
    return [int.from_bytes(product[k * size:(k + 1) * size], "little") % m
            for k in range(n_out)]


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


@pytest.mark.parametrize("m", [2, 289, 5 ** 13, 2 ** 33 - 9])
def test_jacobi_cube_is_the_rational_cube(m):
    want = [c % m for c in eta_power_rational(3, 400)]
    for n_out in (0, 1, 2, 3, 4, 7, 401):
        assert jacobi_cube_mod(m, n_out).tolist() == want[:n_out]


# top-level descent exponents: 72 for 17^2, 15624 = 5^6 - 1, 32769 for
# 65537 at alpha = 1/2, which stays on the pentagonal chain
CHAIN_EXPONENTS = [3, 6, 24, 72, 15624, 32769]


@pytest.mark.parametrize("m", [289, 5 ** 13, 5 ** 14, 2 ** 33 - 9])
@pytest.mark.parametrize("n_out", [1, 2, 512, 513, 10 ** 5])
def test_eta_integer_power_equals_the_pentagonal_chain(m, n_out):
    exponents = CHAIN_EXPONENTS
    if n_out == 10 ** 5:
        # one, two, three and three limbs at the longest length; there the
        # long chains run at one limb only, to keep the suite quick
        assert _limb_layout(m, n_out)[0] == {289: 1, 5 ** 13: 2}.get(m, 3)
        if m != 289:
            exponents = [3, 72]
    for e in exponents:
        chain = power_mod(pentagonal_mod(m, n_out), e, m, n_out)
        assert np.array_equal(eta_integer_power_mod(e, m, n_out), chain), e


def test_jacobi_seed_only_where_its_chain_is_cheaper(monkeypatch):
    seeds = []
    for name in ("jacobi_cube_mod", "pentagonal_mod"):
        def seed(m, n_out, _name=name, _fn=getattr(_convolve, name)):
            seeds.append(_name[:3])
            return _fn(m, n_out)
        monkeypatch.setattr(_convolve, name, seed)
    for e in (0, 1, 2, 3, 6, 24, 72, 15624, 32769, 3 * 2 ** 10):
        eta_integer_power_mod(e, 97, 50)
    # 3 * 2^10 costs 10 squares from the cube, 11 squares and a product
    # from the pentagonal series; 32769 = 2^15 + 1 would cost 47 transforms
    # as J^10923 against 33
    assert seeds == ["pen", "pen", "pen", "jac", "jac", "jac", "jac", "jac",
                     "pen", "jac"]


def test_modulus_limit_guard():
    with pytest.raises(ValueError, match="modulus too large"):
        convolve_mod(np.ones(4, dtype=np.int64), np.ones(4, dtype=np.int64),
                     1 << 40, 4)
    with pytest.raises(ValueError, match="modulus too large"):
        mul_mod(np.ones(4, dtype=np.int64), 1, FFT_MODULUS_LIMIT)


# 3037000493 is the largest prime with (m - 1)^2 < 2^63, where the product
# is taken whole; from the next prime, 3037000507, b is split in 16-bit halves
@pytest.mark.parametrize("m", [2, 3037000493, 3037000507, 4294967311,
                               2 ** 33 - 9])
def test_mul_mod_matches_python_ints(m):
    rng = np.random.default_rng(m)
    col = rng.integers(0, m, size=(6, 1), dtype=np.int64)
    row = rng.integers(0, m, size=(1, 5), dtype=np.int64)
    col[0, 0] = row[0, 0] = m - 1
    top = np.full(5, m - 1, dtype=np.int64)
    for a, b in ((top, top), (col, row), (row, col), (col, m - 1),
                 (m - 1, row), (row, 1), (row, row)):
        got = mul_mod(a, b, m)
        x, y = np.broadcast_arrays(a, b)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert got.ravel().tolist() == [
            int(u) * int(v) % m for u, v in zip(x.ravel(), y.ravel())]


def test_convolve_mod_worst_case_beyond_int64_square():
    # (m - 1)^2 overflows int64 at 5^14, so limb recombination must split.
    # m // 2 and m // 2 + 1 centre to the extremes +-(m - 1) / 2, here at
    # two limbs (8192 coefficients) and three (2^15)
    m = 5 ** 14
    for n, limbs in ((8192, 2), (2 ** 15, 3)):
        assert _limb_layout(m, n)[0] == limbs
        a = np.full(n, m // 2, dtype=np.int64)
        b = np.full(n, m // 2 + 1, dtype=np.int64)
        for x, y in ((a, a), (a, b), (b, b)):
            c2 = int(x[0]) * int(y[0]) % m
            assert convolve_mod(x, y, m, n).tolist() == [
                (k + 1) * c2 % m for k in range(n)]


@pytest.mark.parametrize("n,limbs", [(2 ** 21 - 1, 1), (2 ** 21, 2)])
def test_one_limb_bound_of_5_6_is_exact_on_both_sides(monkeypatch, n, limbs):
    # 5^6 < 2^14 fits one 14-bit limb while (2^13)^2 * n < 2^47, that is
    # below 2^21 coefficients; from there on it takes two 7-bit limbs
    m = 5 ** 6
    assert _limb_layout(m, n) == (limbs, 14 // limbs)
    a = np.full(n, m // 2, dtype=np.int64)
    b = np.full(n, m // 2 + 1, dtype=np.int64)
    counts = count_transforms(monkeypatch)
    got = convolve_mod(a, b, m, n)
    assert counts == {"rfft": 2 * limbs, "irfft": 2 * limbs - 1}
    k = np.arange(1, n + 1, dtype=np.int64)
    assert np.array_equal(got, k * (m // 2 * (m // 2 + 1) % m) % m)


def test_limb_layout_from_length_and_modulus():
    assert _limb_layout(289, 10 ** 7) == (1, 9)
    assert _limb_layout(5 ** 13, 25_000) == (2, 16)
    assert _limb_layout(5 ** 13, 2 ** 17) == (3, 11)
    assert _limb_layout(5 ** 14, 2 ** 15 - 1) == (2, 17)
    assert _limb_layout(5 ** 14, 2 ** 15) == (3, 11)
    # no modulus below 2^33 is refused short of 2^27 coefficients, beyond
    # the 33,587,225 at which 11-bit limbs (2^11 - 1)^2 * n reached 2^47
    for width in range(1, 34):
        for m in (2 ** (width - 1) + 1, 2 ** width - 1):
            if 2 <= m < FFT_MODULUS_LIMIT:
                assert _limb_layout(m, 2 ** 27 - 1)[0] <= -(-width // 11)
    with pytest.raises(PrecisionError, match=f"= {2 ** 47} >= {2 ** 47}"):
        _limb_layout(2 ** 33 - 9, 2 ** 27)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, FFT_MODULUS_LIMIT - 1), st.integers(1, 2 ** 27 - 1),
       st.data())
def test_balanced_limbs_round_trip_within_their_bound(m, short, data):
    limbs, bits = _limb_layout(m, short)
    assert limbs <= max(1, -(-(m - 1).bit_length() // 11))
    assert 4 ** (bits - 1) * short < ROUNDING_LIMIT
    if limbs > 1:  # the fewest limbs that fit
        assert 4 ** (limb_bits(m, limbs - 1) - 1) * short >= ROUNDING_LIMIT
    values = data.draw(st.lists(
        st.one_of(st.sampled_from([0, 1, m // 2, m // 2 + 1, m - 1]),
                  st.integers(0, m - 1)),
        min_size=1, max_size=20))
    values = [v % m for v in values]
    split = list(_balanced_limbs(np.array(values, dtype=np.int64), m, limbs,
                                 bits))
    assert len(split) == limbs
    for k, v in enumerate(values):
        digits = [int(limb[k]) for limb in split]
        assert all(abs(d) <= 2 ** (bits - 1) for d in digits)
        centred = v - m if v > m // 2 else v
        assert sum(d << (bits * i) for i, d in enumerate(digits)) == centred


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 289, 5 ** 6, 1529 ** 2, 5 ** 13, 5 ** 14,
                        2 ** 33 - 9]),
       st.integers(_convolve._DIRECT_SIZE_LIMIT + 1, 1200),
       st.integers(1, 1200), st.integers(0, 2 ** 32), st.booleans())
def test_fft_path_matches_exact(m, len_a, len_b, seed, extremes):
    rng = np.random.default_rng(seed)
    if extremes:
        a, b = (rng.choice([m // 2, (m // 2 + 1) % m], n) for n in (len_a, len_b))
    else:
        a, b = (rng.integers(0, m, n, dtype=np.int64) for n in (len_a, len_b))
    n_out = int(rng.integers(1, len_a + len_b))
    assert exact_mod(a[:30], b[:30], m, 30) == [
        c % m for c in convolve_exact(a[:30].tolist(), b[:30].tolist(), 30)]
    assert convolve_mod(a, b, m, n_out).tolist() == exact_mod(a, b, m, n_out)


def test_binary_power_rejects_negative_and_non_integral_exponents():
    assert [binary_power(3, e, 1, operator.mul) for e in range(6)] == [
        1, 3, 9, 27, 81, 243]
    with pytest.raises(ValueError, match="negative exponent"):
        binary_power(3, -1, 1, operator.mul)
    with pytest.raises(TypeError):
        binary_power(3, 0.5, 1, operator.mul)


@pytest.mark.parametrize("m,limbs", LIMB_MODULI)
@pytest.mark.parametrize("worst", [False, True])
def test_square_equals_product_equals_exact(monkeypatch, m, limbs, worst):
    hold_limbs(monkeypatch, m, limbs)
    if worst:
        # the centred extremes +-(m - 1) / 2
        a = np.full(FFT_N, m // 2, dtype=np.int64)
        b = np.full(FFT_N, m // 2 + 1, dtype=np.int64)
    else:
        a, b = np.random.default_rng(m).integers(0, m, (2, FFT_N),
                                                 dtype=np.int64)
    for x, y in ((a, a), (a, b), (b, b)):
        want = [c % m for c in convolve_exact(x.tolist(), y.tolist(), FFT_N)]
        assert convolve_mod(x, y, m, FFT_N).tolist() == want
        assert convolve_mod(x, y.copy(), m, FFT_N).tolist() == want


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
    hold_limbs(monkeypatch, m, limbs)
    a = np.random.default_rng(1).integers(0, m, FFT_N, dtype=np.int64)
    counts = count_transforms(monkeypatch)
    convolve_mod(a, a, m, FFT_N)
    assert counts == {"rfft": limbs, "irfft": 2 * limbs - 1}
    counts.clear()
    convolve_mod(a, a.copy(), m, FFT_N)
    assert counts == {"rfft": 2 * limbs, "irfft": 2 * limbs - 1}


@pytest.mark.parametrize("m, n, limbs", [
    (5 ** 6, _DIRECT_SIZE_LIMIT, 0),  # the direct path: no transform
    (5 ** 6, 2000, 1),
    (5 ** 13, 2000, 2),
    (2 ** 33 - 9, 40000, 3),  # a prime just below the modulus limit
])
def test_fixed_operand_matches_convolve_mod(monkeypatch, m, n, limbs):
    if limbs:
        assert n > _DIRECT_SIZE_LIMIT and _limb_layout(m, n)[0] == limbs
    rng = np.random.default_rng(n)
    b = np.full(n, m // 2 + 1, dtype=np.int64)  # the centred extreme
    operands = [rng.integers(0, m, n, dtype=np.int64),
                np.full(n, m // 2, dtype=np.int64),
                rng.integers(0, m, n // 3, dtype=np.int64),  # shorter
                rng.integers(0, m, n + 5, dtype=np.int64)]   # cut to n
    operands.append(operands[0].copy())
    wants = [convolve_mod(a[:n], b, m, n).tolist() for a in operands]
    counts = count_transforms(monkeypatch)
    times_b = fixed_operand_mod(b, m, n)
    assert counts["rfft"] == limbs
    # five products by the same spectra: a product that changed them would
    # spoil the ones after it
    assert [times_b(a).tolist() for a in operands] == wants
    # b was transformed once, each a once per limb
    assert counts["rfft"] == limbs * (1 + len(operands))


# inverse transforms per product when each sums at most `group` limb pairs
GROUPED_IRFFTS = {(1, 1): 1, (2, 1): 4, (2, 2): 3, (3, 1): 9, (3, 2): 6,
                  (3, 3): 5}


@pytest.mark.parametrize("m,limbs", LIMB_MODULI)
def test_rounding_bound_enforced_at_its_limit(monkeypatch, m, limbs):
    # `limbs` is the most the layout rule splits m into, ceil(bits / 11)
    assert limbs == -(-(m - 1).bit_length() // 11)
    a = np.full(FFT_N, m // 2 + 1, dtype=np.int64)
    b = np.full(600, m // 2, dtype=np.int64)
    # one pair's bound at `limbs` limbs, for the shorter operand's length
    pair_bound = 4 ** (limb_bits(m, limbs) - 1) * 600
    want = [c % m for c in convolve_exact(a.tolist(), b.tolist(), FFT_N)]
    counts = count_transforms(monkeypatch)
    monkeypatch.setattr(_convolve, "ROUNDING_LIMIT", pair_bound)
    with pytest.raises(PrecisionError, match=f"= {pair_bound} >= {pair_bound}"):
        convolve_mod(a, b, m, FFT_N)
    assert counts == {}  # refused before transforming
    for group in range(1, limbs + 1):
        # the largest limit at which an inverse transform sums `group` pairs
        monkeypatch.setattr(_convolve, "ROUNDING_LIMIT", (group + 1) * pair_bound)
        assert _limb_layout(m, 600)[0] == limbs
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
def test_inverse_mod_times_series_is_one(monkeypatch, m, limbs):
    hold_limbs(monkeypatch, m, limbs)
    f = np.random.default_rng(m).integers(0, m, FFT_N, dtype=np.int64)
    f[0] = 2
    g = inverse_mod(f, m, FFT_N)
    product = convolve_exact(f.tolist(), g.tolist(), FFT_N)
    assert [c % m for c in product] == [1] + [0] * (FFT_N - 1)
    with pytest.raises(ValueError):
        inverse_mod(np.array([5, 1]), 5 ** 6, 2)
