"""Dense truncated convolution backends.

Two regimes: exact big-integer convolution (Python ints, used by the small
exact series engine) and modular convolution for coefficient arrays reduced
mod m (numpy, used by the large-scale residue engine).  The modular backend
splits operands into L limbs of 11 bits and convolves them with real FFTs:
L forward transforms per operand (a square reuses its operand's), and one
inverse transform per limb shift s = i + j, 2L - 1 in all, applied to the
sum of the limb-pair spectra that share that shift.  An inverse transform
that sums `pairs` limb pairs recovers exact coefficients up to
pairs * (2^11 - 1)^2 * min(len a, len b), which must stay below
``ROUNDING_LIMIT`` = 2^47, six bits inside the 2^53 window where float64
holds integers exactly.  Long operands therefore sum fewer pairs per
inverse transform, down to one.  A call where even one pair would pass the
limit (shorter operand of 3.36e7 coefficients or more) is refused before
transforming, and every rounded value is still checked to lie within 0.25
of an integer; both checks raise ``PrecisionError``.  ``binary_power`` is
the one square-and-multiply loop; every power in the package goes through
it, and ``inverse_mod`` inverts a series by Newton iteration on top of
``convolve_mod``.
"""

from __future__ import annotations

import operator

import numpy as np

from .numerics import PrecisionError

_LIMB_BITS = 11
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# beyond this modulus the limb count makes the FFT path pointless; callers
# fall back to exact convolution
FFT_MODULUS_LIMIT = 1 << 33
# below this size the direct int64 path beats FFT setup cost
_DIRECT_SIZE_LIMIT = 1 << 9
# every exact coefficient an inverse transform recovers stays below this
ROUNDING_LIMIT = 1 << 47


def convolve_exact(a, b, n_out):
    """Truncated convolution of two integer sequences over Z."""
    out = [0] * n_out
    for i, x in enumerate(a):
        if x == 0 or i >= n_out:
            continue
        top = min(len(b), n_out - i)
        for j in range(top):
            out[i + j] += x * b[j]
    return out


def _fft_length(n):
    length = 1
    while length < n:
        length <<= 1
    return length


def _limb_spectra(a, limbs, length):
    return [
        np.fft.rfft(((a >> (_LIMB_BITS * i)) & _LIMB_MASK).astype(np.float64), length)
        for i in range(limbs)
    ]


def _pairs_spectrum(fa, fb, s, first, stop):
    """Sum of the limb-pair spectra fa[i] * fb[s - i] for first <= i < stop."""
    spectrum = fa[first] * fb[s - first]
    for i in range(first + 1, stop):
        spectrum += fa[i] * fb[s - i]
    return spectrum


def _limb_count(m):
    return max(1, -(-int(m - 1).bit_length() // _LIMB_BITS))


def product_bytes(n_out, m):
    """Bytes a product of two n_out-coefficient series mod m can hold at once.

    An upper bound on the traced peak, counted in spectrum-sized arrays at
    the FFT length and int64 series of n_out coefficients.  Spectra: both
    operands' limb spectra, and three transients, at most, live with them:
    the summed pair spectrum (and its next term), the inverse transform's
    full-length output and the previous shift's one.  Series: the caller's
    three (both operands, and the power's base or the descent's inner
    result), the result, the rounded copy, and the previous shift's rounded
    copy or the recombination's temporaries (three at most).
    """
    spectrum = 16 * (_fft_length(2 * n_out - 1) // 2 + 1)  # complex128
    return (2 * _limb_count(m) + 3) * spectrum + 8 * 8 * n_out


def _convolve_fft_mod(a, b, m, n_out):
    length = _fft_length(len(a) + len(b) - 1)
    limbs = _limb_count(m)
    pair_bound = _LIMB_MASK ** 2 * min(len(a), len(b))
    if pair_bound >= ROUNDING_LIMIT:
        raise PrecisionError(
            f"fft convolution out of float64 range: (2^{_LIMB_BITS} - 1)^2 * "
            f"length {min(len(a), len(b))} = {pair_bound} >= {ROUNDING_LIMIT}")
    # limb pairs one inverse transform may sum: group * pair_bound < limit
    group = (ROUNDING_LIMIT - 1) // pair_bound
    fa = _limb_spectra(a, limbs, length)
    fb = fa if b is a else _limb_spectra(b, limbs, length)
    out = np.zeros(n_out, dtype=np.int64)
    for s in range(2 * limbs - 1):
        low, high = max(0, s - limbs + 1), min(s, limbs - 1) + 1
        for first in range(low, high, group):
            raw = np.fft.irfft(
                _pairs_spectrum(fa, fb, s, first, min(first + group, high)),
                length)[:n_out]
            rounded = np.round(raw)
            if raw.size and np.abs(raw - rounded).max() >= 0.25:
                raise PrecisionError("fft convolution lost integrality")
            shift = pow(2, _LIMB_BITS * s, int(m))
            if m * (m - 1) < 1 << 63:
                out = (out + (rounded.astype(np.int64) % m) * shift) % m
            else:
                # (m-1)^2 overflows int64: split the shift so that, with
                # m < 2^33, no product reaches 2^50
                limb = rounded.astype(np.int64) % m
                hi, lo = divmod(shift, 1 << 16)
                out = (out + ((limb * hi % m) << 16) + limb * lo) % m
    return out


def convolve_mod(a, b, m, n_out):
    """Truncated convolution of int64 arrays, reduced mod m (exact).

    Requires 0 <= entries < m.  For m beyond FFT_MODULUS_LIMIT use
    convolve_exact and reduce.
    """
    m = int(m)
    if m >= FFT_MODULUS_LIMIT:
        raise ValueError("modulus too large for the fft backend")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n_out = min(n_out, len(a) + len(b) - 1)
    small = min(len(a), len(b))
    if small * (m - 1) ** 2 < (1 << 62) and max(len(a), len(b)) <= _DIRECT_SIZE_LIMIT:
        return np.convolve(a, b)[:n_out] % m
    return _convolve_fft_mod(a, b, m, n_out)


def binary_power(base, exponent, result, mul):
    """result * base^exponent by square-and-multiply under mul.

    base and result are rebound as the loop runs, so neither outlives its
    last use unless the caller keeps a reference to the value it passed.
    """
    e = operator.index(exponent)
    if e < 0:
        raise ValueError("negative exponent")
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _series_mod(f, m, n_out):
    """A fresh int64 copy of f reduced mod m, cut or zero-padded to n_out."""
    series = np.zeros(n_out, dtype=np.int64)
    head = np.asarray(f[:n_out], dtype=np.int64)
    np.remainder(head, m, out=series[:len(head)])
    return series


def power_mod(base, exponent, m, n_out):
    """base(q)^exponent truncated to n_out coefficients, mod m, by squaring."""
    def mul(f, g):
        # None stands for the series 1, so the first product is no product
        return g if f is None else convolve_mod(f, g, m, n_out)

    power = binary_power(_series_mod(base, m, n_out), exponent, None, mul)
    if power is None:
        power = np.zeros(n_out, dtype=np.int64)
        power[0] = 1 % m
    return power


def inverse_mod(f, m, n_out):
    """1/f(q) truncated to n_out coefficients, mod m; f[0] must be a unit.

    Newton iteration at doubling lengths: if f g == 1 + q^n r (mod q^2n),
    then g - q^n g r inverts f to 2n coefficients.
    """
    f = _series_mod(f, m, n_out)
    g = np.array([pow(int(f[0]), -1, m)], dtype=np.int64)
    n = 1
    while n < n_out:
        n2 = min(2 * n, n_out)
        r = convolve_mod(f[:n2], g, m, n2)[n:]
        g = np.concatenate([g, -convolve_mod(g, r, m, n2 - n) % m])
        n = n2
    return g


def pentagonal_mod(m, n_out):
    """(q;q)_infinity mod m: +-1 at generalized pentagonal indices."""
    out = np.zeros(n_out, dtype=np.int64)
    if n_out > 0:
        out[0] = 1 % m
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 >= n_out and g2 >= n_out:
            break
        sign = 1 if j % 2 == 0 else -1
        if g1 < n_out:
            out[g1] = sign % m
        if g2 < n_out:
            out[g2] = sign % m
        j += 1
    return out


def eta_integer_power_mod(exponent, m, n_out):
    """(q;q)_infinity^exponent mod m for an integer exponent >= 0."""
    return power_mod(pentagonal_mod(m, n_out), exponent, m, n_out)
