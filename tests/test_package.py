"""The package's public names, which `import edslab` resolves lazily."""

import importlib

import pytest

import edslab


HOMES = {
    "elliptic": ("CurveQ", "PointQ"),
    "eds": ("EdsSequence", "WardSeed", "generate_geometric", "generate_ward"),
    "lrs": ("LrsSpec", "fit_minimal_recurrence"),
    "refuter": ("WitnessCertificate", "find_witness", "verify_certificate"),
}


def test_all_lists_every_export_and_the_version():
    assert edslab.__all__ == [*(name for names in HOMES.values() for name in names), "__version__"]
    assert edslab.__version__ == "0.1.0"


@pytest.mark.parametrize("home, name", [(home, name) for home, names in HOMES.items() for name in names])
def test_each_export_is_the_object_of_its_home_module(home, name):
    assert getattr(edslab, name) is getattr(importlib.import_module(f"edslab.{home}"), name)
    assert name in dir(edslab)


def test_from_import_gives_the_same_objects():
    from edslab import CurveQ, find_witness
    from edslab.elliptic import CurveQ as curve_home
    from edslab.refuter import find_witness as finder_home

    assert CurveQ is curve_home and find_witness is finder_home


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        edslab.no_such_name
    assert not hasattr(edslab, "no_such_name")
