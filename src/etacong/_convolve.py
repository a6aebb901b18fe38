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
Every such product runs on one scheduler, ``_product``, that takes it as
a cut: the operands in parts, and the product in slots (offset, pairs),
each summing weight * a_u * b_v over its part pairs (u, v, weight) and
landing at offset.  A slot's coefficients sum subsets of the flat
product's terms, so the flat layout's limbs, groups and checks keep it
exact.  The block cut: past ``_BLOCKED_OUTPUT`` = 2^16 coefficients the
parts are blocks of B = fft_length(n_out) / ``_BLOCKS_PER_PRODUCT``
coefficients, 9 to 16 below the cap B = ``_BLOCK`` = 2^18, transformed at
2B points, and slot t sums the pairs u + v = t at t B; below it each
operand is one part, and the one slot of one pair is the flat product.
``fixed_operand_mod`` hands in a fixed operand's block spectra, computed
once.  The class cut, ``convolve_class_mod``, forms class r mod ell
alone: part u is a[u::ell], slot 0 sums the pairs u + v = r and slot 1,
one index up, u + v = r + ell.  A square takes the pairs u <= v and
counts u < v twice.  numpy's transforms release the GIL, so the pairs and
slots run two at a time on a thread pool that lives for one product.
``binary_power`` is the one square-and-multiply loop; every power in the
package goes through it, its final product by a different mul where a
caller asks (a class alone), and ``inverse_mod`` inverts a series by
Newton iteration on top of ``convolve_mod``.  ``eta_integer_power_mod`` raises
Euler's pentagonal series to e, or Jacobi's cube (q;q)^3, as sparse, to
e / 3 when that chain costs fewer transforms (two per square, three per
product).  Either seed is its terms, (index, value) arrays of about
sqrt(n_out) entries, so its square, and (q;q)^4, the two seeds' product,
are summed over their pairs instead of transformed (``_sparse_product``),
and only a seed that a transform reads is made a dense series.  That
cost rule is ``_power_chain``, which also prices a negative exponent,
the chain of |e| and one ``inverse_mod``, for the descent's choice of
each level's split.  ``convolve_mod`` and ``convolve_class_mod`` read
int32 operands as they are, part by part, and return int64.
Every other product of residues mod m < 2^33 goes through ``mul_mod``,
elementwise, or ``_matmul_mod``, float64 BLAS on limbs recombined by
``mul_mod``.
"""

from __future__ import annotations

import math
import operator
import os
from collections import Counter, deque

import numpy as np

from .numerics import PrecisionError

# no modulus is split into more limbs than 11-bit limbs would need
_LIMB_CAP_BITS = 11
# beyond this modulus the limb count makes the FFT path pointless; callers
# fall back to exact convolution
FFT_MODULUS_LIMIT = 1 << 33
# below this size the direct int64 path beats FFT setup cost
_DIRECT_SIZE_LIMIT = 1 << 9
# a product of more than this many coefficients is cut into blocks, which
# ran faster than its one flat transform at every limb count past 2^16
# coefficients on a 2-core box
_BLOCKED_OUTPUT = 1 << 16
# a blocked product of n_out coefficients takes blocks of
# fft_length(n_out) / _BLOCKS_PER_PRODUCT coefficients, at most _BLOCK;
# block pairs are transformed at twice a block's length
_BLOCKS_PER_PRODUCT = 16
_BLOCK = 1 << 18
# output blocks transformed at once, each on its own thread
_PARALLEL_BLOCKS = 2
# convolve_class_mod forms a class alone from this ell on; below it the
# class route's spectra, each up to 2 / ell of a flat one, held more than
# the flat product in tracemalloc runs at 2*10^5 to 10^6 coefficients
# (ell 2 and 3 at two and three limbs, ell 5 at three)
_CLASS_MIN_ELL = 7
# ... and for classes longer than this: at 1024 coefficients a class took
# up to twice the flat product's time (its ell pairs each cost Python
# work), from 2048 on at most as long at ell 17 to 1009 on a 2-core box
_CLASS_MIN_LENGTH = 1 << 11
# every exact coefficient an inverse transform recovers stays below this
ROUNDING_LIMIT = 1 << 47
# every float64 product-sum a _matmul_mod limb product forms stays below this
_MATMUL_LIMIT = 1 << 52
# every int64 sum _sparse_product accumulates stays below this
_SPARSE_SUM_LIMIT = 1 << 63


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
    come one at a time, float64 below the top and int64 at the top.  a may
    be int32 or int64: one limb converts it to float64, and L > 1 limbs
    start from an int64 copy of it.
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
    t = a.astype(np.int64)
    t += half * sum(1 << (bits * i) for i in range(limbs - 1))
    t -= m * above
    del above
    for i in range(limbs - 1):
        limb = (t >> (bits * i)) if i else t.copy()
        limb &= mask
        yield np.subtract(limb, half, dtype=np.float64)
        del limb
    yield np.right_shift(t, bits * (limbs - 1), out=t)


def _pairs_spectrum(pairs, s, first, stop, summed=None):
    """``summed`` (None for none) plus the limb-pair spectra weight * fa[i]
    * fb[s - i], first <= i < stop, of the pairs (fa, fb, weight, own);
    weight is 1, or 2 for a square's pair u < v, listed first.

    Only an own pair's spectra change: its task made fa, and the lists fa
    and fb are its own.  Limb s - L + 1 of either pairs with no later
    shift, so it is dropped from both once the sum reaches shift s's last
    pair, and a lone own pair's top shift, the last use of both spectra,
    is multiplied in place in fa's.
    """
    if not pairs:
        return summed
    limbs = len(pairs[0][0])
    weighted = sum(pair[2] == 2 for pair in pairs)
    terms = [(fa[i], fb[s - i])
             for fa, fb, _, _ in pairs for i in range(first, stop)]
    for fa, fb, _, own in pairs:
        if own and stop == limbs:
            fa[s - limbs + 1] = fb[s - limbs + 1] = None
    if len(pairs) == 1 and pairs[0][3] and s == 2 * limbs - 2:
        spectrum, y = terms.pop()
        spectrum *= y
        if weighted:
            spectrum *= 2
    else:
        spectrum = None
        for k, (x, y) in enumerate(terms, 1):
            if spectrum is None:
                spectrum = x * y
            else:
                spectrum += x * y
            if k == weighted * (stop - first):
                spectrum *= 2
    if summed is not None:
        spectrum += summed
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
    That is the flat product: one slot of one pair, run inline.

    The block cut fits the same bound: its parts of B coefficients,
    B <= fft_length(n_out) / 16 < n_out / 8 (``_fft_layout``), are short
    beside the series.  Its T parts hold T (B + 1) <= P + T complex values
    per limb and operand, with P = fft_length(n_out) >= T B: a flat
    spectrum's P + 1, and 16 (T - 1) bytes more, which the transient series
    covers.  Its first slot, which reads every part, runs alone, and a
    part that one pair reads becomes that pair's product in place.  Two
    slots at a time hold four arrays of 2B float64 at one limb, 64 B <
    8 n_out bytes, one int64 series; eight at L > 1 fit within one of the
    two spare flat spectra.  The class cut (``convolve_class_mod``) holds
    spectra of at most 2 / ell of a flat one, from ell = 7 on; it held
    less than the flat product in every tracemalloc run.
    """
    limbs = _limb_layout(m, n_out)[0]
    spectrum = 16 * (_fft_length(2 * n_out - 1) // 2 + 1)  # complex128
    spectra = 2 if limbs == 1 else 2 * limbs + 2
    return spectra * spectrum + 4 * 8 * n_out


def _fft_layout(m, len_a, len_b, n_out):
    """(length, size, short, limbs, bits) of a product of len_a by len_b
    coefficients mod m, truncated to n_out: the FFT length, the block size
    in coefficients, the shorter operand's length and ``_limb_layout``'s
    limbs for it.  Past ``_BLOCKED_OUTPUT`` output coefficients, blocks of
    fft_length(n_out) / ``_BLOCKS_PER_PRODUCT`` coefficients, at most
    ``_BLOCK``, transformed at twice that; otherwise one block each."""
    short = min(len_a, len_b)
    if n_out > _BLOCKED_OUTPUT:
        size = min(_fft_length(n_out) // _BLOCKS_PER_PRODUCT, _BLOCK)
        length = 2 * size
    else:
        length = size = _fft_length(len_a + len_b - 1)
    return (length, size, short) + _limb_layout(m, short)


def _limb_spectra(part, m, layout):
    """A part's limb spectra at `layout`, or a new list of given ones."""
    if isinstance(part, list):
        return list(part)
    length, _, _, limbs, bits = layout
    return [np.fft.rfft(limb, length)
            for limb in _balanced_limbs(part, m, limbs, bits)]


def _shift_groups(layout):
    """(s, first, stop) of each inverse transform a product takes: limb
    shift s = i + j and its limb pairs first <= i < stop, at most as many
    as one transform may sum (group * pair bound < ``ROUNDING_LIMIT``)."""
    _, _, short, limbs, bits = layout
    group = (ROUNDING_LIMIT - 1) // (4 ** (bits - 1) * short)
    for s in range(2 * limbs - 1):
        low, high = max(0, s - limbs + 1), min(s, limbs - 1) + 1
        for first in range(low, high, group):
            yield s, first, min(first + group, high)


def _slot_residues(pairs, sums, layout, m, n_out):
    """The first n_out coefficients, mod m, of one slot: its pairs'
    products (``_pairs_spectrum``'s) plus ``sums``, its own pairs' spectra
    per shift group, if any.  One inverse transform per limb shift
    s = i + j and group of limb pairs, recombined at 2^(bs)."""
    length, bits = layout[0], layout[4]
    lift = -(-ROUNDING_LIMIT // m) * m
    out = None
    for s, first, stop in _shift_groups(layout):
        residues = _exact_residues(
            _pairs_spectrum(pairs, s, first, stop,
                            sums.pop(0) if sums else None),
            length, n_out, m, lift)
        if out is None:
            out = residues  # shift 0 holds one pair, at weight 2^0
        else:
            out += mul_mod(residues, pow(2, bits * s, m), m)
            out %= m
        # the next transforms run without this shift's residues
        del residues
    return out


def _own_pair(x, y, weight, m, layout):
    """The own pair (fa, fb, weight, True) of parts x, y; fa made here."""
    if isinstance(x, list):
        x, y = y, x
    fa = _limb_spectra(x, m, layout)
    return fa, fa if y is x else _limb_spectra(y, m, layout), weight, True


def _pair_spectra(x, y, weight, m, layout):
    """An own pair's product, one spectrum per shift group."""
    pair = [_own_pair(x, y, weight, m, layout)]
    return [_pairs_spectrum(pair, *group) for group in _shift_groups(layout)]


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _product(parts_a, parts_b, slots, layout, m, n_out):
    """The product that ``slots`` cut, mod m, to n_out coefficients.

    Slot (offset, pairs) sums weight * parts_a[u] * parts_b[v] over its
    pairs (u, v, weight) at offset.  A part is an int64 array or, never
    changed, its limb spectra at `layout`; parts_b is parts_a for a
    square.  Every rule comes from the pair lists.  A part that several
    pairs read is transformed once, up front, and dropped after the last
    slot that reads it; one that one pair reads is transformed in that
    pair's task and used up in place.  A slot's pairs that read only
    shared spectra are one task, which also takes the slot's inverse
    transforms; each other pair is its own task, added into the slot's
    sums by the main thread.  Tasks run ``_PARALLEL_BLOCKS`` at a time;
    the first slot, which reads every part of a block cut, runs alone.  A
    lone pair runs inline, without a pool.
    """
    slots = [slot for slot in slots if slot[1]]
    b_side = int(parts_b is not parts_a)
    parts = [list(parts_a), list(parts_b)][:b_side + 1]
    readers, last = Counter(), {}
    for i, (_, pairs) in enumerate(slots):
        for u, v, _ in pairs:
            for key in {(0, u), (b_side, v)}:
                readers[key] += 1
                last[key] = i
    if sum(len(pairs) for _, pairs in slots) < 2:
        # a lone pair's slot lands at 0 and covers n_out, in either cut
        for _, ((u, v, weight),) in slots:
            return _slot_residues(
                [_own_pair(parts[0][u], parts[b_side][v], weight, m, layout)],
                [], layout, m, n_out)
        return np.zeros(n_out, dtype=np.int64)
    # imported once a pool is needed: it took 10 ms of a small product
    from concurrent.futures import ThreadPoolExecutor

    out = np.zeros(n_out, dtype=np.int64)
    with ThreadPoolExecutor(min(_PARALLEL_BLOCKS, _usable_cpus())) as pool:
        up_front = [key for key, count in readers.items() if count > 1
                    and not isinstance(parts[key[0]][key[1]], list)]
        for (side, i), spectra in zip(up_front, pool.map(
                lambda key: _limb_spectra(parts[key[0]][key[1]], m, layout),
                up_front)):
            parts[side][i] = spectra
        pending = deque()

        def collect():
            target, future = pending.popleft()
            if not isinstance(target, list):
                residues = future.result()
                window = out[target:target + len(residues)]
                window += residues
                window %= m
            elif target:
                for total, spectrum in zip(target, future.result()):
                    total += spectrum
            else:
                target.extend(future.result())

        def submit(offset, pairs):
            shared, sums = [], []
            for u, v, weight in pairs:
                x, y = parts[0][u], parts[b_side][v]
                if isinstance(x, list) and isinstance(y, list):
                    shared.append((x, y, weight, False))
                    continue
                pending.append((sums, pool.submit(
                    _pair_spectra, x, y, weight, m, layout)))
                while len(pending) >= _PARALLEL_BLOCKS:
                    collect()
            while any(target is sums for target, _ in pending):
                collect()
            pending.append((offset, pool.submit(
                _slot_residues, shared, sums, layout, m,
                min(layout[0], n_out - offset))))

        for i, (offset, pairs) in enumerate(slots):
            submit(offset, pairs)
            for side, index in [key for key, j in last.items() if j == i]:
                parts[side][index] = None
            while pending and (len(pending) >= _PARALLEL_BLOCKS
                               or i in (0, len(slots) - 1)):
                collect()
    return out


def _pairs_summing_to(t, parts_a, parts_b):
    """The pairs (u, t - u, weight) of parts; a square (parts_b is
    parts_a) takes u <= t - u only and counts u < t - u twice."""
    square = parts_b is parts_a
    us = range(max(0, t - len(parts_b) + 1), min(t, len(parts_a) - 1) + 1)
    return [(u, t - u, 2 if square and 2 * u < t else 1)
            for u in us if not square or 2 * u <= t]


def _blocks(x, size, n_out):
    """x in parts of `size` coefficients, as far as n_out reaches."""
    return [x[u * size:(u + 1) * size]
            for u in range(-(-min(len(x), n_out) // size))]


def _block_product(parts_a, parts_b, layout, m, n_out):
    """The block cut: slot t sums the pairs u + v = t at t size, its
    transform's upper half spilling into block t + 1.  Slots run from the
    top down: no slot below t reads part t."""
    size = layout[1]
    return _product(parts_a, parts_b, [
        (t * size, _pairs_summing_to(t, parts_a, parts_b))
        for t in reversed(range(-(-n_out // size)))], layout, m, n_out)


def _class_product(a, b, m, n_out, residue, ell):
    """Coefficients residue, residue + ell, ... below n_out of a * b mod m.

    The class cut: part u of a is a_u = a[u::ell], and class residue of
    the product sums a_u * b_v over v = (residue - u) mod ell.  Slot 0
    holds the pairs u + v = residue, landing index for index, slot 1 those
    with u + v = residue + ell, landing one index up.  Each class is read
    by one pair, so each pair is its own task, transformed at twice a
    class's length, and no operand's spectra are held whole.
    """
    width = len(range(residue, n_out, ell))
    short = min(len(a), len(b))
    # a power of two: 2 width is 2 * 17 * 13841 at verify's 4*10^6, where
    # numpy's transform ran 17 times slower than at 2^19 on a 2-core box
    layout = (_fft_length(2 * width - 1), None, short) + _limb_layout(m, short)
    parts_a = [a[u::ell][:width] for u in range(min(ell, len(a)))]
    parts_b = parts_a if b is a else [b[v::ell][:width]
                                      for v in range(min(ell, len(b)))]
    return _product(parts_a, parts_b, [
        (k, _pairs_summing_to(residue + k * ell, parts_a, parts_b))
        for k in (0, 1)], layout, m, width)


def _fft_modulus(m):
    m = int(m)
    if m >= FFT_MODULUS_LIMIT:
        raise ValueError("modulus too large for the fft backend")
    return m


def _is_direct(len_a, len_b, m):
    """Whether np.convolve's int64 sums stay exact and beat FFT set-up."""
    return (min(len_a, len_b) * (m - 1) ** 2 < (1 << 62)
            and max(len_a, len_b) <= _DIRECT_SIZE_LIMIT)


def _operand(x):
    """x as an int32 or int64 array, the caller's own where it is one."""
    x = np.asarray(x)
    return x if x.dtype == np.int32 else x.astype(np.int64, copy=False)


def convolve_mod(a, b, m, n_out):
    """Truncated convolution of int32 or int64 arrays, reduced mod m
    (exact), as int64.

    Requires 0 <= entries < m.  For m beyond FFT_MODULUS_LIMIT use
    convolve_exact and reduce.  An int32 operand is read as it is: each
    part becomes float64 or int64 as it is split into limbs.
    """
    m = _fft_modulus(m)
    square = b is a
    a = _operand(a)
    b = a if square else _operand(b)
    n_out = min(n_out, len(a) + len(b) - 1)
    if _is_direct(len(a), len(b), m):
        # summed in int64, which _is_direct's bound is for
        return np.convolve(a.astype(np.int64, copy=False),
                           b.astype(np.int64, copy=False))[:n_out] % m
    layout = _fft_layout(m, len(a), len(b), n_out)
    parts_a = _blocks(a, layout[1], n_out)
    parts_b = parts_a if b is a else _blocks(b, layout[1], n_out)
    return _block_product(parts_a, parts_b, layout, m, n_out)


def fixed_operand_mod(b, m, n_out):
    """The product a -> convolve_mod(a, b, m, n_out) for a fixed b.

    b's block spectra are computed once, at the layout of an n_out-long a,
    and every product transforms only its own a (cut to n_out
    coefficients, which is all the truncated product reads), in the same
    blocks.  Short products take the direct path, as in ``convolve_mod``.
    """
    m = _fft_modulus(m)
    b = np.asarray(b, dtype=np.int64)[:n_out]
    layout = _fft_layout(m, n_out, len(b), n_out)
    spectra = None if _is_direct(n_out, len(b), m) else [
        _limb_spectra(x, m, layout) for x in _blocks(b, layout[1], n_out)]

    def times_b(a):
        a = np.asarray(a, dtype=np.int64)[:n_out]
        if spectra is None:
            return np.convolve(a, b)[:n_out] % m
        n = min(n_out, len(a) + len(b) - 1)
        return _block_product(_blocks(a, layout[1], n), spectra, layout, m, n)

    return times_b


def convolve_class_mod(a, b, m, n_out, residue, ell):
    """convolve_mod(a, b, m, n_out)[residue::ell], forming that class alone.

    Classes longer than ``_CLASS_MIN_LENGTH`` take ``_class_product``
    from ell = ``_CLASS_MIN_ELL`` on: about a 1/ell share of the
    product's inverse transforms and output, and no operand's spectra
    held whole.  Shorter classes, where ell small transforms cost more
    than the one product, and fewer classes are sliced from the product.
    """
    m = _fft_modulus(m)
    square = b is a
    a = _operand(a)
    b = a if square else _operand(b)
    n_out = min(n_out, len(a) + len(b) - 1)
    if ell < _CLASS_MIN_ELL or -(-n_out // ell) <= _CLASS_MIN_LENGTH:
        return convolve_mod(a, b, m, n_out)[residue::ell].copy()
    return _class_product(a, b, m, n_out, residue, ell)


def binary_power(base, exponent, result, mul, last=None):
    """result * base^exponent by square-and-multiply under mul.

    ``last``, when given, forms the final product in place of mul: the
    product by base at the exponent's top bit, or, when result is still
    None there, the square before it, None standing for one.
    base and result are rebound as the loop runs, so neither outlives its
    last use unless the caller keeps a reference to the value it passed.
    """
    e = operator.index(exponent)
    if e < 0:
        raise ValueError("negative exponent")
    last = last or mul
    while e:
        if e & 1:
            result = (mul if e > 1 else last)(result, base)
        e >>= 1
        if e == 1 and result is None:
            return last(base, base)
        if e:
            base = mul(base, base)
    return result


def _series_mod(f, m, n_out):
    """A fresh int64 copy of f reduced mod m, cut or zero-padded to n_out."""
    series = np.zeros(n_out, dtype=np.int64)
    head = np.asarray(f[:n_out], dtype=np.int64)
    np.remainder(head, m, out=series[:len(head)])
    return series


def _series_mul(m, n_out):
    """binary_power's product of series mod m, truncated to n_out
    coefficients; None stands for the series 1, so the first product is no
    product."""
    def mul(f, g):
        return g if f is None else convolve_mod(f, g, m, n_out)

    return mul


def _class_mul(m, n_out, residue, ell):
    """binary_power's last product when only class residue mod ell of the
    power is read: ``convolve_class_mod``, or the slice when the other
    factor is the series 1 (None)."""
    def mul(f, g):
        if f is None:
            return g[residue::ell].copy()
        return convolve_class_mod(f, g, m, n_out, residue, ell)

    return mul


def power_mod(base, exponent, m, n_out):
    """base(q)^exponent truncated to n_out coefficients, mod m, by squaring."""
    # binary_power gets the only reference to the reduced base, so that
    # neither it nor the caller's series outlives the first squaring
    reduced = [_series_mod(base, m, n_out)]
    del base
    power = binary_power(reduced.pop(), exponent, None, _series_mul(m, n_out))
    if power is None:
        power = np.zeros(n_out, dtype=np.int64)
        power[0] = 1 % m
    return power


def inverse_mod(f, m, n_out):
    """1/f(q) truncated to n_out coefficients, mod m; f[0] must be a unit.

    Newton iteration at doubling lengths: if f g == 1 + q^n r (mod q^2n),
    then g - q^n g r inverts f to 2n coefficients.  The lengths are n_out
    halved, rounding up, until 1: the last step multiplies n_out by about
    n_out / 2 coefficients, where doubling up from 1 would multiply by the
    largest power of 2 below n_out, up to n_out - 1.  g is filled in place
    and r is dropped before the update, so no step copies the coefficients
    found before it or holds r beside the update's temporaries.
    """
    f = _series_mod(f, m, n_out)
    g = np.zeros(n_out, dtype=np.int64)
    g[0] = pow(int(f[0]), -1, m)
    lengths = [n_out]
    while lengths[-1] > 1:
        lengths.append(-(-lengths[-1] // 2))
    n = lengths.pop()
    for n2 in reversed(lengths):
        r = convolve_mod(f[:n2], g[:n], m, n2)[n:]
        step = convolve_mod(g[:n], r, m, n2 - n)
        del r
        np.subtract(m, step, out=g[n:n2])
        g[n:n2] %= m
        n = n2
    return g


def _pentagonal_terms(m, n_out):
    """(index, value) of (q;q)_infinity's terms below n_out, mod m: Euler's
    sum_j (-1)^j q^(j(3j-1)/2), the generalized pentagonal indices 0, 1, 2,
    5, 7, ... in increasing order, j(3j-1)/2 < j(3j+1)/2 < (j+1)(3j+2)/2.
    """
    j = np.arange(1, math.isqrt(2 * n_out // 3) + 2, dtype=np.int64)
    index = np.empty(2 * len(j) + 1, dtype=np.int64)
    index[0] = 0
    index[1::2] = j * (3 * j - 1) // 2
    index[2::2] = index[1::2] + j
    value = np.empty(len(index), dtype=np.int64)
    value[0] = 1
    value[1::2] = value[2::2] = np.where(j % 2, -1, 1)
    keep = index < n_out
    return index[keep], value[keep] % m


def _jacobi_cube_terms(m, n_out):
    """(index, value) of (q;q)_infinity^3's terms below n_out, mod m, by
    Jacobi's identity: sum_(j >= 0) (-1)^j (2j + 1) q^(j(j+1)/2)."""
    j = np.arange(math.isqrt(2 * n_out) + 1, dtype=np.int64)
    index = j * (j + 1) // 2
    keep = index < n_out
    j = j[keep]
    return index[keep], np.where(j % 2, -1, 1) * (2 * j + 1) % m


def _dense(terms, n_out):
    """The int64 series of n_out coefficients with the given terms."""
    out = np.zeros(n_out, dtype=np.int64)
    out[terms[0]] = terms[1]
    return out


def _sparse_product(a, b, m, n_out):
    """a(q) b(q) mod m to n_out coefficients, for series given as their
    terms (index, value), indices increasing: summed over the pairs of
    terms instead of transformed; a square when b is a.  Euler's and
    Jacobi's series have about sqrt(n_out) terms (3,266 and 2,828 at
    4*10^6), so the pairs cost far less than an FFT product.

    Row k adds x_k * y_j mod m at i_k + j_j for every term x_k of a and
    y_j of b with i_k + j_j < n_out; the rows run over the operand with
    fewer terms.  A square takes j >= k only and doubles j > k.  A row
    adds at most one term below c m to each coefficient, c = 2 for a
    square and 1 otherwise, so R rows after a reduction leave every sum
    below (c R + 1) m.  The sums are reduced every
    R = (2^63 // m - 1) // c rows and stay below ``_SPARSE_SUM_LIMIT`` =
    2^63 at any m and length.
    """
    square = b is a
    (rows_at, rows_val), (cols_at, cols_val) = a, b
    if len(cols_at) < len(rows_at):
        (rows_at, rows_val), (cols_at, cols_val) = b, a
    tops = np.searchsorted(cols_at, n_out - rows_at)
    doubled = 2 if square else 1
    rows = (_SPARSE_SUM_LIMIT // m - 1) // doubled
    out = np.zeros(n_out, dtype=np.int64)
    # a square's row k starts at column k: i_k + i_k < n holds for a prefix
    count = (np.searchsorted(rows_at, (n_out + 1) // 2) if square
             else len(rows_at))
    for k in range(int(count)):
        first = k if square else 0
        row = mul_mod(cols_val[first:tops[k]], rows_val[k], m)
        if square:
            row[1:] <<= 1
        out[rows_at[k] + cols_at[first:tops[k]]] += row
        if (k + 1) % rows == 0:
            out %= m
    out %= m
    return out


def _chain_cost(exponent):
    """Transforms binary_power spends on a seed's one-limb power e >= 0:
    two per square, three per product, for bits(e) - 1 squares and
    popcount(e) - 1 products, less the first square when e >= 2, which
    ``_sparse_product`` takes without a transform."""
    squares = max(exponent.bit_length() - 2, 0)
    return 2 * squares + 3 * max(exponent.bit_count() - 1, 0)


# one inverse_mod in _chain_cost's units, half the time of a dense square
# of the same length: inverting the pentagonal series mod 289, 5^6 and
# 5^13 at 10^4 to 4*10^6 coefficients took 4.9 to 10.1 of them on a
# 2-core box (best of 5 to 15 runs, two runs), and 2.6 to 2.7 mod 5^6 at
# 4*10^6, where the square takes two limbs and most of the inverse's
# products one
_INVERSE_COST = 9


def _power_chain(exponent):
    """(cost, cube) of (q;q)^e by eta_integer_power_mod: its transforms, in
    ``_chain_cost``'s units, and whether it starts from Jacobi's cube,
    which it does for a multiple of 3 when e / 3 takes a cheaper chain than
    e.  (q;q)^4, the two seeds' one ``_sparse_product``, takes none.  A
    negative e costs the chain of |e| and one ``inverse_mod``."""
    e = abs(operator.index(exponent))
    cube = e % 3 == 0 and _chain_cost(e // 3) < _chain_cost(e)
    cost = 0 if e == 4 else _chain_cost(e // 3 if cube else e)
    return cost + (_INVERSE_COST if exponent < 0 else 0), cube


def eta_integer_power_mod(exponent, m, n_out, residue=None, ell=None):
    """(q;q)_infinity^exponent mod m for an integer exponent >= 0, or, with
    ``residue`` and ``ell``, its coefficients residue, residue + ell, ...
    below n_out alone.

    A multiple of 3 starts from Jacobi's cube, as sparse as Euler's
    pentagonal series, when e / 3 takes a cheaper chain than e
    (``_power_chain``): 72 becomes J^24, three squares and a product
    instead of five and a product.  The seed is its terms, about
    sqrt(n_out) of them, and its square is taken pair by pair
    (``_sparse_product``); binary_power raises it to e // 2 and
    multiplies by the seed once when e is odd.  With a class, its last
    product forms that class alone (``_class_mul``): J^8 * J^16 in
    J^24.  (q;q)^4 is the pentagonal series times Jacobi's cube, pair by
    pair, and no transform.  Only a seed that an FFT product reads, at
    e < 2 or an odd chain exponent, is made a dense series; (q;q)^4 and
    an even chain's first square allocate their result alone.
    """
    e = operator.index(exponent)
    cube = _power_chain(e)[1]
    if cube:
        seed, e = _jacobi_cube_terms(m, n_out), e // 3
    else:
        seed = _pentagonal_terms(m, n_out)
    if e < 2 or e == 4 and not cube:
        power = (power_mod(_dense(seed, n_out), e, m, n_out) if e < 2 else
                 _sparse_product(seed, _jacobi_cube_terms(m, n_out), m,
                                 n_out))
        return power if residue is None else power[residue::ell].copy()
    # binary_power gets the only references to the seed and its square,
    # so that each is freed at its last use, as in power_mod
    series = [_dense(seed, n_out) if e & 1 else None,
              _sparse_product(seed, seed, m, n_out)]
    del seed
    last = None if residue is None else _class_mul(m, n_out, residue, ell)
    return binary_power(series.pop(), e >> 1, series.pop(),
                        _series_mul(m, n_out), last)
