import dataclasses

import pytest

from mwselect.constants import (
    G0,
    HBAR,
    MU0,
    MU_B,
    MU_N,
    AtomSpecies,
    available_species,
    get_species,
)
from mwselect.errors import UnknownSpeciesError


def test_registry_contents():
    names = available_species()
    assert names == ("Cs133", "Na23", "Rb85", "Rb87")


def test_rb87_values():
    sp = get_species("Rb87")
    assert sp.nuclear_spin == 1.5
    assert sp.f_plus == 2.0
    assert sp.f_minus == 1.0
    # mass near 87 u, hyperfine splitting near 6.835 GHz
    assert sp.mass == pytest.approx(87 * 1.66053906660e-27, rel=5e-4)
    assert sp.delta_W == pytest.approx(2 * 3.141592653589793 * 6.834682610904290e9)


def test_unknown_species_lists_names():
    with pytest.raises(UnknownSpeciesError) as err:
        get_species("Xe129")
    assert "Rb87" in str(err.value)


def test_species_are_frozen():
    sp = get_species("Rb87")
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.mass = 1.0


@pytest.mark.parametrize("name", ["Rb87", "Rb85", "Na23", "Cs133"])
def test_half_integer_spins(name):
    sp = get_species(name)
    assert (2 * sp.nuclear_spin) == int(2 * sp.nuclear_spin)
    assert sp.nuclear_spin >= 0.5
    assert sp.delta_W > 0.0


def test_species_validation():
    good = get_species("Rb87")
    with pytest.raises(ValueError):
        AtomSpecies("X", -1.0, good.nuclear_spin, good.g_s, good.g_I, good.delta_W)
    with pytest.raises(ValueError):
        AtomSpecies("X", good.mass, 1.2, good.g_s, good.g_I, good.delta_W)
    with pytest.raises(ValueError):
        AtomSpecies("X", good.mass, good.nuclear_spin, good.g_s, good.g_I, -1.0)


def test_constants_values():
    assert HBAR == 1.054571817e-34
    assert MU_B == 9.2740100783e-24
    assert MU_N == 5.0507837461e-27
    assert G0 == 9.8
    assert MU0 == pytest.approx(1.25663706212e-6)
