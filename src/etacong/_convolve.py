"""Dense truncated convolution backends.

Two regimes: exact big-integer convolution (Python ints, used by the small
exact series engine) and modular convolution for coefficient arrays reduced
mod m (numpy, used by the large-scale residue engine).  The modular backend
splits operands into 11-bit limbs and convolves each limb pair with a real
FFT; every limb-pair convolution is bounded by 2^22 * len < 2^47, far inside
the 2^53 window where float64 holds integers exactly, and rounding is still
asserted to be unambiguous at runtime.  ``binary_power`` is the one
square-and-multiply loop; every power in the package goes through it.
"""

from __future__ import annotations

import operator

import numpy as np

_LIMB_BITS = 11
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# beyond this modulus the limb count makes the FFT path pointless; callers
# fall back to exact convolution
FFT_MODULUS_LIMIT = 1 << 33
# below this size the direct int64 path beats FFT setup cost
_DIRECT_SIZE_LIMIT = 1 << 9


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


def _convolve_fft_mod(a, b, m, n_out):
    length = _fft_length(len(a) + len(b) - 1)
    limbs = max(1, -(-int(m - 1).bit_length() // _LIMB_BITS))
    fa = [
        np.fft.rfft(((a >> (_LIMB_BITS * i)) & _LIMB_MASK).astype(np.float64), length)
        for i in range(limbs)
    ]
    fb = [
        np.fft.rfft(((b >> (_LIMB_BITS * i)) & _LIMB_MASK).astype(np.float64), length)
        for i in range(limbs)
    ]
    out = np.zeros(n_out, dtype=np.int64)
    for i in range(limbs):
        for j in range(limbs):
            raw = np.fft.irfft(fa[i] * fb[j], length)[:n_out]
            rounded = np.round(raw)
            if raw.size and np.abs(raw - rounded).max() >= 0.25:
                raise ArithmeticError("fft convolution lost integrality")
            shift = pow(2, _LIMB_BITS * (i + j), int(m))
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


def power_mod(base, exponent, m, n_out):
    """base(q)^exponent truncated to n_out coefficients, mod m, by squaring."""
    one = np.zeros(n_out, dtype=np.int64)
    one[0] = 1 % m
    return binary_power(np.asarray(base[:n_out], dtype=np.int64) % m, exponent,
                        one, lambda f, g: convolve_mod(f, g, m, n_out))


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
