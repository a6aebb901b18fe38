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
``fixed_operand_mod`` serves many products by one fixed operand through
the same kernel: that operand's limb spectra are computed once.
``binary_power`` is the one square-and-multiply loop; every power in the
package goes through it, and ``inverse_mod`` inverts a series by Newton
iteration on top of ``convolve_mod``.  ``eta_integer_power_mod`` raises
Euler's pentagonal series to e, or Jacobi's cube (q;q)^3, as sparse, to
e / 3 when that chain costs fewer transforms (two per square, three per
product).
Every other product of residues mod m < 2^33 goes through ``mul_mod``,
elementwise, or ``_matmul_mod``, float64 BLAS on limbs recombined by
``mul_mod``.
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
# every float64 product-sum a _matmul_mod limb product forms stays below this
_MATMUL_LIMIT = 1 << 52


def convolve_exact(a, b, n_out):
    """Truncated convolution of two exact sequences (ints or Fractions)."""
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


def mul_mod(a, b, m):
    """a * b mod m elementwise for int64 residues in [0, m), exact for every
    m < 2^33 (a larger m raises ValueError): where (m - 1)^2 passes int64,
    b is split into 16-bit halves, so that no product reaches 2^50."""
    m = _fft_modulus(m)
    if (m - 1) ** 2 < 1 << 63:
        return a * b % m
    product = a * (b >> 16) % m
    product <<= 16
    product += a * (b & 0xFFFF)
    return product % m


def _matmul_mod(a, b, ell):
    """a @ b mod ell for int64 matrices with entries in [0, ell), ell < 2^33.

    a is cut into the widest w-bit limbs whose float64 BLAS product-sums,
    nonnegative and at most (min(2^w, ell) - 1)(ell - 1) * inner, stay
    exact below 2^52: one limb while (ell - 1)^2 * inner does.  ``mul_mod``
    recombines the limb products.  No width fits past an inner size of
    about 2^19 near ell = 2^33: ``PrecisionError``.
    """
    width = max(1, (ell - 1).bit_length())
    row_sum = (ell - 1) * max(1, a.shape[-1])
    bits = width if (ell - 1) * row_sum < _MATMUL_LIMIT else (
        (_MATMUL_LIMIT - 1) // row_sum + 1).bit_length() - 1
    if bits < 1:
        raise PrecisionError(f"matmul mod {ell} out of float64 range")
    b = b.astype(np.float64)
    out = None
    for shift in range(0, width, bits):
        limb = a if bits == width else (a >> shift) & ((1 << bits) - 1)
        part = (limb.astype(np.float64) @ b).astype(np.int64) % ell
        out = part if out is None else (
            out + mul_mod(part, pow(2, shift, ell), ell)) % ell
    return out


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


def _fft_layout(m, len_a, len_b):
    """(length, short, limbs, bits) of a product of len_a by len_b
    coefficients mod m: the FFT length, the shorter operand's length and
    ``_limb_layout``'s limbs for it."""
    short = min(len_a, len_b)
    return (_fft_length(len_a + len_b - 1), short) + _limb_layout(m, short)


def _limb_spectra(x, m, layout):
    length, _, limbs, bits = layout
    return [np.fft.rfft(limb, length)
            for limb in _balanced_limbs(x, m, limbs, bits)]


def _convolve_fft_mod(a, b, m, n_out, fixed=None):
    """a * b mod m to n_out coefficients by limb-split real FFTs.

    ``fixed`` is ``(layout, spectra)``, b's limb spectra at a layout that
    covers a, from ``fixed_operand_mod``; they are read, never changed.
    """
    if fixed is None:
        layout = _fft_layout(m, len(a), len(b))
        fb = None
    else:
        layout, fb = fixed
        # _pairs_spectrum clears the slots of the list it is given
        fb = list(fb)
    length, short, limbs, bits = layout
    # limb pairs one inverse transform may sum: group * pair bound < limit
    group = (ROUNDING_LIMIT - 1) // (4 ** (bits - 1) * short)
    lift = -(-ROUNDING_LIMIT // m) * m
    fa = _limb_spectra(a, m, layout)
    if fb is None:
        fb = fa if b is a else _limb_spectra(b, m, layout)
    out = None
    for s in range(2 * limbs - 1):
        low, high = max(0, s - limbs + 1), min(s, limbs - 1) + 1
        shift = pow(2, bits * s, m)
        for first in range(low, high, group):
            # in place only on fa, a's own spectra, never on a fixed fb
            residues = _exact_residues(
                _pairs_spectrum(fa, fb, s, first, min(first + group, high)),
                length, n_out, m, lift)
            if out is None:
                out = residues  # shift 0 holds one pair, at weight 2^0
            else:
                out += mul_mod(residues, shift, m)
                out %= m
            # the next transforms run without this shift's residues
            del residues
    return out


def _fft_modulus(m):
    m = int(m)
    if m >= FFT_MODULUS_LIMIT:
        raise ValueError("modulus too large for the fft backend")
    return m


def _is_direct(len_a, len_b, m):
    """Whether np.convolve's int64 sums stay exact and beat FFT set-up."""
    return (min(len_a, len_b) * (m - 1) ** 2 < (1 << 62)
            and max(len_a, len_b) <= _DIRECT_SIZE_LIMIT)


def convolve_mod(a, b, m, n_out):
    """Truncated convolution of int64 arrays, reduced mod m (exact).

    Requires 0 <= entries < m.  For m beyond FFT_MODULUS_LIMIT use
    convolve_exact and reduce.
    """
    m = _fft_modulus(m)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n_out = min(n_out, len(a) + len(b) - 1)
    if _is_direct(len(a), len(b), m):
        return np.convolve(a, b)[:n_out] % m
    return _convolve_fft_mod(a, b, m, n_out)


def fixed_operand_mod(b, m, n_out):
    """The product a -> convolve_mod(a, b, m, n_out) for a fixed b.

    b's limb spectra are computed once, at the layout of an n_out-long a,
    and every product transforms only its own a (cut to n_out
    coefficients, which is all the truncated product reads).  Short
    products take the direct path, as in ``convolve_mod``.
    """
    m = _fft_modulus(m)
    b = np.asarray(b, dtype=np.int64)[:n_out]
    fixed = None
    if not _is_direct(n_out, len(b), m):
        layout = _fft_layout(m, n_out, len(b))
        fixed = (layout, _limb_spectra(b, m, layout))

    def times_b(a):
        a = np.asarray(a, dtype=np.int64)[:n_out]
        if fixed is None:
            return np.convolve(a, b)[:n_out] % m
        return _convolve_fft_mod(a, b, m, min(n_out, len(a) + len(b) - 1),
                                 fixed)

    return times_b


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


def jacobi_cube_mod(m, n_out):
    """(q;q)_infinity^3 mod m by Jacobi's identity:
    sum_(j >= 0) (-1)^j (2j + 1) q^(j(j+1)/2)."""
    out = np.zeros(n_out, dtype=np.int64)
    j = 0
    while j * (j + 1) // 2 < n_out:
        out[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1) % m
        j += 1
    return out


def _chain_cost(exponent):
    """Transforms binary_power spends on a one-limb power: two per square,
    three per product, for bits(e) - 1 squares and popcount(e) - 1 products."""
    return 2 * (exponent.bit_length() - 1) + 3 * (bin(exponent).count("1") - 1)


def eta_integer_power_mod(exponent, m, n_out):
    """(q;q)_infinity^exponent mod m for an integer exponent >= 0.

    A multiple of 3 starts from Jacobi's cube, as sparse as Euler's
    pentagonal series, when e / 3 takes a cheaper chain than e: 72 becomes
    J^24, four squares and a product instead of six and a product.
    """
    e = operator.index(exponent)
    if e > 0 and e % 3 == 0 and _chain_cost(e // 3) < _chain_cost(e):
        return power_mod(jacobi_cube_mod(m, n_out), e // 3, m, n_out)
    return power_mod(pentagonal_mod(m, n_out), e, m, n_out)
