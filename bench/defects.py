"""Known wrong answers of the package, checked outside the timed workloads.

    python3 bench/defects.py

The benchmark's workloads must run correctly, so a route known to return
wrong residues is not timed; it is checked here instead, with the same
oracle.  Exit code 1 and one line per check that fails while a defect
stands; exit code 0 once the package gets every check right.

* ``etacong coeffs --alpha -1 --mod 5^14 --trunc 10000`` against
  ``partition_numbers``: ``convolve_mod`` multiplies two residues below
  ``m`` in int64 while recombining limbs, which overflows for ``m`` above
  about 2^31.5 although ``FFT_MODULUS_LIMIT`` admits moduli up to 2^33.
"""

from __future__ import annotations

import sys

import workloads
from worker import import_etacong

CHECKS = [(14, 10000)]  # (exponent of 5, truncation)


def main() -> int:
    etacong = import_etacong()
    status = 0
    for exp, trunc in CHECKS:
        code, text = workloads.run_coeffs(exp, trunc)
        oracle = etacong.partition_numbers(trunc)
        attempted, failed = workloads.check_coeffs(exp, trunc, code, text,
                                                   oracle)
        wrong = [n for n, line in enumerate(text.splitlines()[: trunc + 1])
                 if line.split()[:2] != [str(n), str(oracle[n] % 5 ** exp)]]
        first = f", first at n = {wrong[0]}" if wrong else ""
        print(f"coeffs mod 5^{exp} to {trunc}: {failed} of {attempted} "
              f"wrong{first}")
        status |= failed > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
