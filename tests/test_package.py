"""The package's public namespace."""

import types

import sytcount


def test_all_names_exist_and_are_not_modules():
    for name in sytcount.__all__:
        assert not isinstance(getattr(sytcount, name), types.ModuleType), name

