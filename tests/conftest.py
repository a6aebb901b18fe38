import pytest

from fractions import Fraction

from etacong import modforms, search_good_congruences


@pytest.fixture(scope="session")
def _search_57_61_run():
    """One full search run for alpha = 57/61, with the (weight, horizon) of
    every mod-ell basis it builds."""
    build, bases = modforms._vm_cusp_basis_mod, []

    def recorded(weight, trunc, ell):
        bases.append((weight, trunc))
        return build(weight, trunc, ell)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modforms, "_vm_cusp_basis_mod", recorded)
        result = search_good_congruences(Fraction(57, 61))
    return result, bases


@pytest.fixture(scope="session")
def search_57_61(_search_57_61_run):
    """One full search run for alpha = 57/61, shared across test modules."""
    return _search_57_61_run[0]


@pytest.fixture(scope="session")
def search_57_61_bases(_search_57_61_run):
    """(weight, horizon) of each mod-ell basis that search built."""
    return _search_57_61_run[1]
