"""Dense truncated convolution backends.

Two regimes: exact big-integer convolution (Python ints, used by the small
exact series engine) and modular convolution for coefficient arrays reduced
mod m (numpy, used by the large-scale residue engine).  The modular backend
centres each residue into (-m/2, m/2], splits it into L balanced limbs of
b = ceil(bits(m - 1) / L) bits, each at most 2^(b-1) in size, and
convolves them with real FFTs: L forward transforms per operand (a square
reuses its operand's), and one inverse transform per limb shift
s = i + j, 2L - 1 in all, applied to the sum of the limb-pair spectra that
share that shift.  An inverse transform that sums `pairs` limb pairs
recovers exact coefficients up to pairs * (2^(b-1))^2 * min(len a, len b),
which must stay below ``ROUNDING_LIMIT`` = 2^47, six bits inside the 2^53
window where float64 holds integers exactly.  ``_limb_layout`` picks the
fewest limbs whose single pair fits, never more than 11-bit limbs would
take: 5^6 fits one limb below 2^21 coefficients, 5^14 two limbs below
2^15.  Long operands sum fewer pairs per inverse transform, down to one.
A call where even one pair at the most limbs would pass the limit (for
any modulus below ``FFT_MODULUS_LIMIT``, not before 2^27 coefficients) is
refused before transforming, and every rounded value is still checked to
lie within 0.25 of an integer; both checks raise ``PrecisionError``.
``binary_power`` is the one square-and-multiply loop; every power in the
package goes through it, and ``inverse_mod`` inverts a series by Newton
iteration on top of ``convolve_mod``.
"""

from __future__ import annotations

import operator

import numpy as np

from .numerics import PrecisionError

# no modulus is split into more limbs than 11-bit limbs would need
_LIMB_CAP_BITS = 11
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


def _limb_layout(m, short):
    """(L, b): the fewest balanced limbs of b bits that carry residues mod m.

    With B = bits(m - 1), b = ceil(B / L).  A limb pair's coefficients are
    bounded by (2^(b-1))^2 * short, where short is the shorter operand's
    length, and that bound must stay below ``ROUNDING_LIMIT``.  L never
    exceeds ceil(B / 11); if even that many limbs do not fit, the product
    is refused before any transform.
    """
    width = max(1, int(m - 1).bit_length())
    for limbs in range(1, -(-width // _LIMB_CAP_BITS) + 1):
        bits = -(-width // limbs)
        pair_bound = 4 ** (bits - 1) * short
        if pair_bound < ROUNDING_LIMIT:
            return limbs, bits
    raise PrecisionError(
        f"fft convolution out of float64 range: (2^{bits - 1})^2 * length "
        f"{short} = {pair_bound} >= {ROUNDING_LIMIT}")


def _balanced_limbs(a, m, limbs, bits):
    """The L balanced b-bit limbs of a's residues mod m, lowest first.

    Each residue is centred to c_0 in (-m/2, m/2], so |c_0| <= 2^(B-1) with
    B = bits(m - 1).  Limb i is c_i's remainder in [-2^(b-1), 2^(b-1)),
    and c_(i+1) = floor((c_i + 2^(b-1)) / 2^b) carries the rest; the top
    limb is c_(L-1) itself.  Induction: if |c_i| <= 2^e with e >= b, then
    |c_(i+1)| <= floor(2^(e-b) + 1/2) = 2^(e-b); if e < b, then c_(i+1) is
    0 or 1.  So |c_i| <= 2^max(B-1-ib, 0), and the top limb obeys
    |c_(L-1)| <= 2^max(B-1-(L-1)b, 0) <= 2^(b-1), because Lb >= B.  Limbs
    come one at a time, float64 below the top and int64 at the top.
    """
    above = a > m // 2
    if limbs == 1:
        centred = a.astype(np.float64)
        centred -= m * above
        yield centred
        return
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    # with half added to every lower limb, the limbs are plain base-2^b
    # digits of t: limb i is ((t >> ib) & mask) - half below the top
    t = a + half * sum(1 << (bits * i) for i in range(limbs - 1))
    t -= m * above
    del above
    for i in range(limbs - 1):
        limb = (t >> (bits * i)) if i else t.copy()
        limb &= mask
        yield np.subtract(limb, half, dtype=np.float64)
        del limb
    yield np.right_shift(t, bits * (limbs - 1), out=t)


def _pairs_spectrum(fa, fb, s, first, stop):
    """Sum of the limb-pair spectra fa[i] * fb[s - i] for first <= i < stop.

    Limb s - L + 1 of either operand pairs with no later shift, so it is
    dropped from fa and fb once the sum reaches shift s's last pair.  The
    top shift's one pair is the last use of both spectra and is multiplied
    in place.
    """
    limbs = len(fa)
    if s == 2 * limbs - 2:
        spectrum = fa[first]
        spectrum *= fb[s - first]
    else:
        spectrum = fa[first] * fb[s - first]
        for i in range(first + 1, stop):
            spectrum += fa[i] * fb[s - i]
    if stop == limbs:
        fa[s - limbs + 1] = fb[s - limbs + 1] = None
    return spectrum


def _exact_residues(spectrum, length, n_out, m, lift):
    """The inverse transform of a summed limb-pair spectrum, reduced mod m.

    Its coefficients are integers below ``ROUNDING_LIMIT`` in size: each
    must lie within 0.25 of an integer, and it is lifted by ``lift``, a
    multiple of m of at least that size, so that % m reduces nonnegative
    values only.
    """
    raw = np.fft.irfft(spectrum, length)[:n_out]
    del spectrum
    rounded = np.round(raw)
    error = np.subtract(raw, rounded, out=raw)
    if error.size and np.abs(error, out=error).max() >= 0.25:
        raise PrecisionError("fft convolution lost integrality")
    del raw, error
    residues = rounded.astype(np.int64)
    del rounded
    residues += lift
    residues %= m
    return residues


def _add_scaled(out, residues, shift, m):
    """out = (out + residues * shift) mod m in place; residues is consumed."""
    if m * (m - 1) >= 1 << 63:
        # (m-1)^2 overflows int64: split the shift so that, with m < 2^33,
        # no product reaches 2^50
        hi, shift = divmod(shift, 1 << 16)
        upper = residues * hi
        upper %= m
        upper <<= 16
        out += upper
        del upper
    residues *= shift
    out += residues
    out %= m


def product_bytes(n_out, m):
    """Bytes a product of two n_out-coefficient series mod m can hold at once.

    An upper bound on the traced peak, counted in spectrum-sized arrays at
    the FFT length and int64 series of n_out coefficients, for the layout
    ``_limb_layout(m, n_out)``.  Spectra: one limb multiplies in place, so
    it holds two at most (both operands', or the product and its inverse
    transform); L > 1 limbs hold all 2L beside the summed pair spectrum
    and the inverse transform's output (or the next pair's term).  Series:
    both operands, the result or the limb being split, and one transient.
    """
    limbs = _limb_layout(m, n_out)[0]
    spectrum = 16 * (_fft_length(2 * n_out - 1) // 2 + 1)  # complex128
    spectra = 2 if limbs == 1 else 2 * limbs + 2
    return spectra * spectrum + 4 * 8 * n_out


def _convolve_fft_mod(a, b, m, n_out):
    length = _fft_length(len(a) + len(b) - 1)
    short = min(len(a), len(b))
    limbs, bits = _limb_layout(m, short)
    # limb pairs one inverse transform may sum: group * pair bound < limit
    group = (ROUNDING_LIMIT - 1) // (4 ** (bits - 1) * short)
    lift = -(-ROUNDING_LIMIT // m) * m
    fa = [np.fft.rfft(x, length) for x in _balanced_limbs(a, m, limbs, bits)]
    fb = fa if b is a else [
        np.fft.rfft(x, length) for x in _balanced_limbs(b, m, limbs, bits)]
    out = None
    for s in range(2 * limbs - 1):
        low, high = max(0, s - limbs + 1), min(s, limbs - 1) + 1
        shift = pow(2, bits * s, m)
        for first in range(low, high, group):
            residues = _exact_residues(
                _pairs_spectrum(fa, fb, s, first, min(first + group, high)),
                length, n_out, m, lift)
            if out is None:
                out = residues  # shift 0 holds one pair, at weight 2^0
            else:
                _add_scaled(out, residues, shift, m)
            # the next transforms run without this shift's residues
            del residues
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

    # binary_power gets the only reference to the reduced base, so that
    # neither it nor the caller's series outlives the first squaring
    reduced = [_series_mod(base, m, n_out)]
    del base
    power = binary_power(reduced.pop(), exponent, None, mul)
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
