import math
import operator
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etacong import _convolve
from etacong.numerics import PrecisionError
from etacong._convolve import (
    _BLOCKED_OUTPUT,
    _DIRECT_SIZE_LIMIT,
    FFT_MODULUS_LIMIT,
    ROUNDING_LIMIT,
    _balanced_limbs,
    _class_product,
    _dense,
    _fft_layout,
    _jacobi_cube_terms,
    _limb_layout,
    _pentagonal_terms,
    _sparse_product,
    binary_power,
    convolve_class_mod,
    convolve_exact,
    convolve_mod,
    eta_integer_power_mod,
    fixed_operand_mod,
    inverse_mod,
    mul_mod,
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


def pentagonal_mod(m, n_out):
    """(q;q)_infinity mod m as a dense series, from its terms."""
    return _dense(_pentagonal_terms(m, n_out), n_out)


def jacobi_cube_mod(m, n_out):
    """(q;q)_infinity^3 mod m as a dense series, from its terms."""
    return _dense(_jacobi_cube_terms(m, n_out), n_out)


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


# descent exponents: 4, the two seeds' sparse product, 72 for 17^2,
# 15624 = 5^6 - 1, 32769 for 65537 at alpha = 1/2, which stays on the
# pentagonal chain
CHAIN_EXPONENTS = [3, 4, 6, 24, 72, 15624, 32769]


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


@pytest.mark.parametrize("m", [289, 5 ** 13, 2 ** 33 - 9])
def test_eta_integer_power_class_is_a_slice_of_the_power(monkeypatch, m):
    # the last product restricted to one class: a product by the seed
    # (32769), by a lower power (72 = J^24: J^8 * J^16), a square (16 and
    # 24 = J^8), the sparse square alone (2, 6 = J^2), the seeds' sparse
    # product (4) and no product (0, 1)
    ell, n_out = 17, 17 * (_convolve._CLASS_MIN_LENGTH + 1) + 5
    squares = []

    def recorded(a, b, *args):
        squares.append(a is b)
        return convolve_class_mod(a, b, *args)

    monkeypatch.setattr(_convolve, "convolve_class_mod", recorded)
    exponents = [0, 1, 2, 16, *CHAIN_EXPONENTS]
    if m != 289:
        exponents = exponents[:-2]  # the long chains at one limb, for time
    for e in exponents:
        power = eta_integer_power_mod(e, m, n_out)
        squares.clear()
        for r in (0, 5, 14):
            got = eta_integer_power_mod(e, m, n_out, residue=r, ell=ell)
            assert np.array_equal(got, power[r::ell]), (e, r)
        restricted = {16: True, 24: True, 72: False, 15624: False,
                      32769: False}
        want = [restricted[e]] * 3 if e in restricted else []
        assert squares == want, e


SQUARE_MODULI = [289, 5 ** 6, 5 ** 13, 5 ** 14, 2 ** 33 - 9]


@pytest.mark.parametrize("m", SQUARE_MODULI)
@pytest.mark.parametrize("n_out", [1, 2, 512, 513, 10 ** 5])
def test_sparse_square_equals_the_fft_square(m, n_out):
    # 2^33 - 9 multiplies its rows on mul_mod's split path; the two seeds'
    # product is (q;q)^4, either way round.  The seeds are their terms, and
    # the oracle is convolve_mod of their dense series
    seeds = [_pentagonal_terms(m, n_out), _jacobi_cube_terms(m, n_out)]
    dense = [pentagonal_mod(m, n_out), jacobi_cube_mod(m, n_out)]
    for seed, series in zip(seeds, dense):
        assert np.array_equal(_sparse_product(seed, seed, m, n_out),
                              convolve_mod(series, series, m, n_out))
    want = convolve_mod(*dense, m, n_out)
    assert np.array_equal(_sparse_product(*seeds, m, n_out), want)
    assert np.array_equal(_sparse_product(*seeds[::-1], m, n_out), want)


@pytest.mark.parametrize("n_out", [0, 1, 2, 3, 5, 6, 7, 100, 4_000_001])
def test_seed_terms_are_euler_and_jacobi_series(n_out):
    # Euler's (-1)^j at j(3j -+ 1)/2, j >= 1, and 1 at 0; Jacobi's
    # (-1)^j (2j + 1) at j(j + 1)/2; each in increasing order below n_out
    m = 289
    euler, jacobi = {0: 1}, {}
    for j in range(1, math.isqrt(n_out) + 2):
        for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            euler[g] = (-1) ** j % m
    for j in range(math.isqrt(2 * n_out) + 2):
        jacobi[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1) % m
    for (index, value), want in ((_pentagonal_terms(m, n_out), euler),
                                 (_jacobi_cube_terms(m, n_out), jacobi)):
        assert index.dtype == value.dtype == np.int64
        assert np.all(np.diff(index) > 0)
        assert dict(zip(index.tolist(), value.tolist())) == {
            k: v for k, v in want.items() if k < n_out}


@pytest.mark.parametrize("m", SQUARE_MODULI)
@pytest.mark.parametrize("n_out", [1, 2, 512, 513, 10 ** 5])
def test_odd_and_even_chains_after_the_sparse_square(m, n_out):
    # the chain's exponent after the seed choice: 2, 5, 7 of the
    # pentagonal series, 3 (e = 9) and 4 (e = 12) of Jacobi's cube
    exponents = [2, 5, 7, 9, 12] if n_out < 10 ** 5 or m == 289 else [5, 12]
    for e in exponents:
        chain = power_mod(pentagonal_mod(m, n_out), e, m, n_out)
        assert np.array_equal(eta_integer_power_mod(e, m, n_out), chain), e


@pytest.mark.parametrize("rows", [1, 3])
def test_sparse_square_reduced_every_few_rows(monkeypatch, rows):
    # a limit of (2 rows + 1) m reduces a square's sums after every `rows`
    # rows, and a product's after every 2 rows; neither result may change
    m = 2 ** 33 - 9
    monkeypatch.setattr(_convolve, "_SPARSE_SUM_LIMIT", (2 * rows + 1) * m)
    seeds = [_pentagonal_terms(m, 5000), _jacobi_cube_terms(m, 5000)]
    dense = [pentagonal_mod(m, 5000), jacobi_cube_mod(m, 5000)]
    for seed, series in zip(seeds, dense):
        assert np.array_equal(_sparse_product(seed, seed, m, 5000),
                              convolve_mod(series, series, m, 5000))
    assert np.array_equal(_sparse_product(*seeds, m, 5000),
                          convolve_mod(*dense, m, 5000))


@pytest.mark.parametrize("rows", [1, 2])
def test_sparse_product_reduced_every_few_rows(monkeypatch, rows):
    # a product adds one term below m per row: a limit of (rows + 1) m
    # reduces its sums after every `rows` rows
    m = 2 ** 33 - 9
    monkeypatch.setattr(_convolve, "_SPARSE_SUM_LIMIT", (rows + 1) * m)
    seeds = [_pentagonal_terms(m, 5000), _jacobi_cube_terms(m, 5000)]
    for pair in (seeds, seeds[::-1]):
        assert np.array_equal(_sparse_product(*pair, m, 5000),
                              convolve_mod(pentagonal_mod(m, 5000),
                                           jacobi_cube_mod(m, 5000), m, 5000))


@pytest.mark.parametrize("m,limbs", [(289, 1), (5 ** 6, 2), (5 ** 13, 3),
                                     (2 ** 31 - 1, 2)])
@pytest.mark.parametrize("n", [2, 300, 40_000])
def test_int32_operands_give_the_int64_product(monkeypatch, m, limbs, n):
    # the direct path, the flat and the blocked product, squares, and a
    # class, at one to three limbs; 2^31 - 1 puts residues next to int32's
    # top, past which the limbs' offsets carry them
    if _limb_layout(m, n)[0] < limbs:
        hold_limbs(monkeypatch, m, limbs, short=n)
    rng = np.random.default_rng(n + limbs)
    wide = rng.integers(0, m, (2, n), dtype=np.int64)
    narrow = wide.astype(np.int32)
    want = convolve_mod(*wide, m, n)
    assert np.array_equal(convolve_mod(*narrow, m, n), want)
    assert np.array_equal(convolve_mod(wide[0], narrow[1], m, n), want)
    assert np.array_equal(convolve_mod(narrow[0], narrow[0], m, n),
                          convolve_mod(wide[0], wide[0], m, n))
    assert np.array_equal(convolve_class_mod(wide[0], narrow[1], m, n, 5, 7),
                          want[5::7])


def test_an_int32_operand_is_not_copied_whole():
    # the top level's product by 1 + 68 Y reads Y's int32 array class by
    # class: no int64 copy of it, 8 n bytes, is ever held
    n, m = 300_000, 289
    rng = np.random.default_rng(3)
    power = rng.integers(0, m, n, dtype=np.int64)
    z = rng.integers(0, m, n, dtype=np.int64).astype(np.int32)
    convolve_class_mod(power[:5000], z[:5000], m, 5000, 3, 101)
    tracemalloc.start()
    try:
        got = convolve_class_mod(power, z, m, n, 3, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, convolve_class_mod(
        power, z.astype(np.int64), m, n, 3, 101))
    assert peak < 8 * n / 2


def test_seeds_stay_terms_until_an_fft_product_reads_them(monkeypatch):
    # (q;q)^4 and the even chains 24 (J^8) and 72 (J^24) hold no n-long
    # seed when their pair product starts, and (q;q)^4 holds its result
    # and little more
    n = 200_000
    held = []
    sparse = _convolve._sparse_product

    def traced(a, b, m, n_out):
        held.append(tracemalloc.get_traced_memory()[0])
        return sparse(a, b, m, n_out)

    monkeypatch.setattr(_convolve, "_sparse_product", traced)
    eta_integer_power_mod(72, 289, 1000)  # the first FFT loads numpy.fft
    for e in (4, 24, 72):
        held.clear()
        tracemalloc.start()
        try:
            eta_integer_power_mod(e, 289, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] < 8 * n / 4, (e, held)
        if e == 4:
            assert peak <= 1.25 * 8 * n


def test_the_first_square_takes_no_transform(monkeypatch):
    counts = count_transforms(monkeypatch)
    # J^24: three fft squares and one product; 72 from the pentagonal
    # series would take five squares and one product
    eta_integer_power_mod(72, 289, FFT_N)
    assert counts == {"rfft": 3 + 2, "irfft": 3 + 1}
    counts.clear()
    # J^2, the pentagonal series squared and times J: no transform at all
    eta_integer_power_mod(6, 289, FFT_N)
    eta_integer_power_mod(2, 289, FFT_N)
    eta_integer_power_mod(4, 289, FFT_N)
    assert counts == {}


def test_jacobi_seed_only_where_its_chain_is_cheaper(monkeypatch):
    seeds = []
    for name in ("_jacobi_cube_terms", "_pentagonal_terms"):
        def seed(m, n_out, _name=name, _fn=getattr(_convolve, name)):
            seeds.append(_name[1:4])
            return _fn(m, n_out)
        monkeypatch.setattr(_convolve, name, seed)
    for e in (0, 1, 2, 3, 6, 24, 72, 15624, 32769, 3 * 2 ** 10):
        eta_integer_power_mod(e, 97, 50)
    # 3 * 2^10 costs 10 squares from the cube, 11 squares and a product
    # from the pentagonal series; 32769 = 2^15 + 1 would cost 47 transforms
    # as J^10923 against 33
    assert seeds == ["pen", "pen", "pen", "jac", "jac", "jac", "jac", "jac",
                     "pen", "jac"]


@pytest.mark.parametrize("e,cost,cube", [
    (0, 0, False), (1, 0, False), (2, 0, False), (4, 0, False),
    (-4, 9, False), (8, 4, False), (12, 2, True), (24, 4, True),
    (72, 9, True), (15624, 34, True), (-1, 9, False), (-68, 22, False),
    (-102, 20, True), (-15625, 51, False),
])
def test_power_chain_prices_a_negative_exponent_with_one_inverse(
        e, cost, cube):
    # 102 as J^34: three squares and a product, 11, plus the inverse's 9
    assert _convolve._INVERSE_COST == 9
    assert _convolve._power_chain(e) == (cost, cube)


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
    # past _BLOCKED_OUTPUT coefficients, in blocks: each operand block is
    # transformed once per limb, each output block inverted once per shift
    assert n > _convolve._BLOCKED_OUTPUT
    blocks = -(-n // _fft_layout(m, n, n, n)[1])
    assert counts == {"rfft": 2 * limbs * blocks,
                      "irfft": (2 * limbs - 1) * blocks}
    k = np.arange(1, n + 1, dtype=np.int64)
    assert np.array_equal(got, k * (m // 2 * (m // 2 + 1) % m) % m)


@pytest.mark.parametrize("n_out,length,size,blocks", [
    (2 ** 16, 2 ** 17, 2 ** 17, 1),  # the longest flat product
    (2 ** 16 + 1, 2 ** 14, 2 ** 13, 9),  # the shortest blocked one
    (2 ** 17, 2 ** 14, 2 ** 13, 16),
    (2 ** 17 + 1, 2 ** 15, 2 ** 14, 9),
    (10 ** 6 + 1, 2 ** 17, 2 ** 16, 16),  # p(n) mod 5^6 to 10^6
    (289 * 13840 + 287, 2 ** 19, 2 ** 18, 16),  # verify to 4.0e6
    (10 ** 7, 2 ** 19, 2 ** 18, 39),  # blocks at the cap
])
def test_block_size_scales_with_the_product(n_out, length, size, blocks):
    # fft_length(n_out) / 16 coefficients a block, at most 2^18, at any
    # limb count
    for m in (289, 5 ** 14):
        assert _fft_layout(m, n_out, n_out, n_out)[:2] == (length, size)
        assert -(-n_out // size) == blocks


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
    # blocked products transform on worker threads
    counts, lock = Counter(), threading.Lock()
    for name in ("rfft", "irfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            with lock:
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
    (289, _BLOCKED_OUTPUT + 5000, 1),  # in 9 blocks of 2^13
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
    size = _fft_layout(m, n, n, n)[1]

    def blocks(x):
        return -(-min(len(x), n) // size)

    counts = count_transforms(monkeypatch)
    times_b = fixed_operand_mod(b, m, n)
    assert counts["rfft"] == limbs * blocks(b)
    # five products by the same spectra: a product that changed them would
    # spoil the ones after it
    assert [times_b(a).tolist() for a in operands] == wants
    # b's blocks were transformed once, each a once per block and limb
    assert counts["rfft"] == limbs * (
        blocks(b) + sum(blocks(a) for a in operands))


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


def small_blocks(monkeypatch, block=128):
    """Cut products past 4 * block coefficients into blocks of exactly
    `block`, the cap: at one block per FFT length of n_out, the rule's
    block is longer than the product, so the cap always applies."""
    monkeypatch.setattr(_convolve, "_BLOCK", block)
    monkeypatch.setattr(_convolve, "_BLOCKED_OUTPUT", 4 * block)
    monkeypatch.setattr(_convolve, "_BLOCKS_PER_PRODUCT", 1)


# (len_a, len_b, n_out) in blocks of 128
BLOCKED_SHAPES = [
    (3000, 3000, 5999),  # the full product; its top block is partial
    (3000, 2000, 4000),  # unequal lengths, cut short of len_a + len_b - 1
    (3000, 100, 3099),   # b shorter than one block
    (2000, 3000, 2560),  # n_out on a block edge
    (1024, 1024, 2047),  # the top output block holds no block pair
]


@pytest.mark.parametrize("m,limbs", LIMB_MODULI)
@pytest.mark.parametrize("len_a,len_b,n_out", BLOCKED_SHAPES)
def test_blocked_route_matches_exact(monkeypatch, m, limbs, len_a, len_b,
                                     n_out):
    small_blocks(monkeypatch)
    hold_limbs(monkeypatch, m, limbs, min(len_a, len_b))
    rng = np.random.default_rng(len_a * len_b + n_out)
    a = rng.integers(0, m, len_a, dtype=np.int64)
    b = rng.integers(0, m, len_b, dtype=np.int64)
    # one forward transform per limb and operand block below n_out
    blocks = [-(-min(n, n_out) // 128) for n in (len_a, len_b)]
    counts = count_transforms(monkeypatch)
    assert convolve_mod(a, b, m, n_out).tolist() == exact_mod(a, b, m, n_out)
    assert counts["rfft"] == limbs * sum(blocks)
    counts.clear()
    # a square transforms its blocks once, and sums its pairs u < v twice
    assert convolve_mod(a, a, m, n_out).tolist() == exact_mod(a, a, m, n_out)
    assert counts["rfft"] == limbs * blocks[0]


@pytest.mark.parametrize("limbs", [2, 3])
def test_blocked_route_at_the_centred_extremes(monkeypatch, limbs):
    # m // 2 and m // 2 + 1 centre to +-(m - 1) / 2 at 5^14, whose limb
    # products overflow int64; it takes two limbs at 3000 coefficients.
    # Every cut: blocks of 128, a fixed operand's blocks, and the lowest
    # and highest class mod 17 formed alone
    small_blocks(monkeypatch)
    monkeypatch.setattr(_convolve, "_CLASS_MIN_LENGTH", 0)
    m, n, ell = 5 ** 14, 3000, 17
    if limbs == 3:
        hold_limbs(monkeypatch, m, limbs, n)
    assert _limb_layout(m, n)[0] == limbs
    a = np.full(n, m // 2, dtype=np.int64)
    b = np.full(n, m // 2 + 1, dtype=np.int64)
    for x, y in ((a, a), (a, b), (b, b)):
        c2 = int(x[0]) * int(y[0]) % m
        want = [(k + 1) * c2 % m for k in range(n)]
        assert convolve_mod(x, y, m, n).tolist() == want
        assert fixed_operand_mod(y, m, n)(x).tolist() == want
        for r in (0, ell - 1):
            assert convolve_class_mod(x, y, m, n, r, ell).tolist() == (
                want[r::ell]), (r, x is y)


@pytest.mark.parametrize("m,limbs", LIMB_MODULI)
def test_blocked_route_rounding_bound(monkeypatch, m, limbs):
    # test_rounding_bound_enforced_at_its_limit in blocks of 128: the same
    # refusal before any transform, and the same groups per output block
    small_blocks(monkeypatch)
    a = np.full(FFT_N, m // 2 + 1, dtype=np.int64)
    b = np.full(600, m // 2, dtype=np.int64)
    pair_bound = 4 ** (limb_bits(m, limbs) - 1) * 600
    want = exact_mod(a, b, m, FFT_N)
    counts = count_transforms(monkeypatch)
    monkeypatch.setattr(_convolve, "ROUNDING_LIMIT", pair_bound)
    with pytest.raises(PrecisionError, match=f"= {pair_bound} >= {pair_bound}"):
        convolve_mod(a, b, m, FFT_N)
    assert counts == {}
    for group in range(1, limbs + 1):
        monkeypatch.setattr(_convolve, "ROUNDING_LIMIT", (group + 1) * pair_bound)
        counts.clear()
        assert convolve_mod(a, b, m, FFT_N).tolist() == want
        # 6 output blocks, from 6 blocks of a and 5 of b
        assert counts == {"rfft": limbs * (6 + 5),
                          "irfft": 6 * GROUPED_IRFFTS[limbs, group]}


def test_precision_error_in_a_worker_reaches_the_caller(monkeypatch):
    # an inverse transform a third off an integer fails the rounding check:
    # raised on a worker thread, the error of the blocked route, a fixed
    # operand's blocks and the class route is the one-block route's.  No
    # thread outlives a product, whether it returns or raises
    irfft, on_main = np.fft.irfft, []

    def off_by_a_third(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        raw = irfft(*args, **kwargs)
        raw[0] += 1 / 3
        return raw

    a = np.random.default_rng(5).integers(0, 289, FFT_N, dtype=np.int64)
    threads = threading.active_count()
    want = convolve_mod(a, a, 289, FFT_N)
    monkeypatch.setattr(np.fft, "irfft", off_by_a_third)
    with pytest.raises(PrecisionError) as flat:
        convolve_mod(a, a, 289, FFT_N)
    assert on_main == [True]
    assert threading.active_count() == threads
    small_blocks(monkeypatch)
    cuts = {
        "blocks": (lambda: convolve_mod(a, a, 289, FFT_N), want),
        "fixed": (lambda: fixed_operand_mod(a, 289, FFT_N)(a), want),
        "class": (lambda: _class_product(a, a, 289, FFT_N, 5, 17),
                  want[5::17]),
    }
    for cut, (product, exact) in cuts.items():
        monkeypatch.setattr(np.fft, "irfft", irfft)
        assert np.array_equal(product(), exact), cut
        assert threading.active_count() == threads, cut
        monkeypatch.setattr(np.fft, "irfft", off_by_a_third)
        on_main.clear()
        with pytest.raises(PrecisionError) as raised:
            product()
        assert on_main and not any(on_main), cut
        assert threading.active_count() == threads, cut
        assert type(raised.value) is type(flat.value)
        assert str(raised.value) == str(flat.value) == (
            "fft convolution lost integrality")


def test_blocked_route_with_more_threads_than_cores(monkeypatch):
    # eight output blocks at once on eight threads, switching every
    # microsecond: an update lost between threads would change a residue
    small_blocks(monkeypatch)
    monkeypatch.setattr(_convolve, "_PARALLEL_BLOCKS", 8)
    monkeypatch.setattr(_convolve, "_usable_cpus", lambda: 8)
    m, limbs = 5 ** 14, 3
    hold_limbs(monkeypatch, m, limbs, 2000)
    a, b = np.random.default_rng(8).integers(0, m, (2, 2000), dtype=np.int64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for x, y in ((a, a), (a, b)):
            assert convolve_mod(x, y, m, 3999).tolist() == exact_mod(
                x, y, m, 3999)
    finally:
        sys.setswitchinterval(interval)


# one, two and three limbs: 289 at any length, 5^13 below 2^17
# coefficients, and 2^33 - 9, the largest prime power below 2^33, past 2^15
# (held there by hold_limbs below it)
CLASS_MODULI = [(289, 1), (5 ** 13, 2), (2 ** 33 - 9, 3)]
CLASS_ELLS = [2, 3, 17, 101]


def class_cases(ell, n_out):
    """(a, b) pairs for the class product at n_out: a product whose b is
    shorter by one more than a class, and a square."""
    rng = np.random.default_rng(ell * n_out)
    a = rng.integers(0, 2 ** 33 - 9, n_out, dtype=np.int64)
    b = rng.integers(0, 2 ** 33 - 9, n_out - ell - 1, dtype=np.int64)
    return a, b


def assert_every_class(m, ell, n_out, residues):
    a, b = (x % m for x in class_cases(ell, n_out))
    # convolve_class_mod slices short classes and those of a small ell
    # from the product: the class route there too, at every class
    sliced = (ell < _convolve._CLASS_MIN_ELL
              or -(-n_out // ell) <= _convolve._CLASS_MIN_LENGTH)
    for x, y in ((a, b), (a, a)):
        want = convolve_mod(x, y, m, n_out)
        for r in residues:
            got = (_class_product if sliced else convolve_class_mod)(
                x, y, m, n_out, r, ell)
            assert np.array_equal(got, want[r::ell]), (n_out, r, x is y)
        if sliced:
            for r in (min(residues), max(residues)):
                got = convolve_class_mod(x, y, m, n_out, r, ell)
                assert np.array_equal(got, want[r::ell]), (n_out, r, x is y)


def hold_class_limbs(monkeypatch, m, limbs, short):
    """hold_limbs where m takes fewer than `limbs` limbs at `short`."""
    if _limb_layout(m, short)[0] < limbs:
        hold_limbs(monkeypatch, m, limbs, short)
    assert _limb_layout(m, short)[0] == limbs


@pytest.mark.parametrize("m,limbs", CLASS_MODULI)
@pytest.mark.parametrize("ell", CLASS_ELLS)
def test_class_product_is_one_class_of_the_product(monkeypatch, m, limbs,
                                                   ell):
    # classes of 512 and 513 coefficients, the direct path's size limit
    # and one past it, at n_out = 0, 1 and ell // 2 + 1 mod ell; every
    # class but at ell = 101, which takes every class at one limb and one
    # n_out and a few at the others, for time
    widths = (_DIRECT_SIZE_LIMIT, _DIRECT_SIZE_LIMIT + 1)
    hold_class_limbs(monkeypatch, m, limbs, ell * widths[-1] - ell - 1)
    for w in widths:
        low = ell * (w - 1)
        for n_out in (ell * w, low + 1, low + ell // 2 + 1):
            residues = range(ell)
            if ell == 101 and (limbs > 1 or n_out % ell or w < widths[-1]):
                residues = {0, n_out % ell, (n_out - 1) % ell, ell - 1}
            assert_every_class(m, ell, n_out, residues)


@pytest.mark.parametrize("m,limbs", CLASS_MODULI)
@pytest.mark.parametrize("ell", CLASS_ELLS)
def test_class_product_past_the_blocked_output(m, limbs, ell):
    # the products that the flat oracle takes in blocks and one below,
    # at the moduli's own limb counts
    for n_out in (_BLOCKED_OUTPUT, _BLOCKED_OUTPUT + ell // 2 + 1):
        assert _limb_layout(m, n_out - ell - 1)[0] == limbs
        assert_every_class(m, ell, n_out, {0, n_out % ell, (n_out - 1) % ell,
                                           ell // 2, ell - 1})


@pytest.mark.parametrize("ell", CLASS_ELLS)
def test_class_product_wrap_sum(ell):
    # q^(ell - 1) times q^(r + 1) lands on class r one index up: only the
    # pairs u + v = r + ell reach it
    m, n_out = 5 ** 13, ell * 600
    for r in {0, (ell - 2) // 2, ell - 2}:
        a = np.zeros(n_out, dtype=np.int64)
        b = np.zeros(n_out, dtype=np.int64)
        a[ell - 1], b[r + 1] = m - 1, 3
        got = _class_product(a, b, m, n_out, r, ell)
        assert got.tolist() == [0, 3 * (m - 1) % m] + [0] * (len(got) - 2)


@pytest.mark.parametrize("m,limbs", CLASS_MODULI)
def test_class_product_transforms_each_class_once(monkeypatch, m, limbs):
    # classes of _CLASS_MIN_LENGTH coefficients are sliced from the flat
    # product, one block; one more takes the class route
    ell = 17
    counts = count_transforms(monkeypatch)
    edge = _convolve._CLASS_MIN_LENGTH
    for width in (edge, edge + 1):
        n_out = ell * width
        a, b = (x % m for x in class_cases(ell, n_out))
        assert _limb_layout(m, len(b))[0] == limbs
        groups = len(list(_convolve._shift_groups(
            (None, None, len(b), *_limb_layout(m, len(b))))))
        # r = 14 sums both kinds of pair; 16 = ell - 1 has no wrap pair
        for r, sums in ((14, 2), (16, 1)):
            if width == edge:
                sums, ell_or_one = 1, 1
            else:
                ell_or_one = ell
            counts.clear()
            convolve_class_mod(a, a, m, n_out, r, ell)
            assert counts == {"rfft": limbs * ell_or_one,
                              "irfft": sums * groups}, (width, r)
            counts.clear()
            convolve_class_mod(a, b, m, n_out, r, ell)
            assert counts == {"rfft": 2 * limbs * ell_or_one,
                              "irfft": sums * groups}, (width, r)


def test_class_route_with_more_threads_than_cores(monkeypatch):
    # eight class pairs at once on eight threads, switching every
    # microsecond: a pair folded twice or lost would change a residue
    monkeypatch.setattr(_convolve, "_PARALLEL_BLOCKS", 8)
    monkeypatch.setattr(_convolve, "_usable_cpus", lambda: 8)
    m, ell, n_out = 2 ** 33 - 9, 17, 17 * 600
    a, b = (x % m for x in class_cases(ell, n_out))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for x, y in ((a, a), (a, b)):
            want = convolve_mod(x, y, m, n_out)
            for r in (0, 14):
                got = _class_product(x, y, m, n_out, r, ell)
                assert np.array_equal(got, want[r::ell]), (r, x is y)
    finally:
        sys.setswitchinterval(interval)
