"""Fixtures that choose the path ``regression.fit`` and ``svgplot`` take,
whatever a table's size: Python floats below ``_NUMPY_ENTRIES`` values,
rows times columns, numpy from it on."""

import pytest

import scalelab.regression as regression

# More values than any table the suite builds.
ABOVE_EVERY_TABLE = 10**9


@pytest.fixture
def float_path(monkeypatch):
    monkeypatch.setattr(regression, "_NUMPY_ENTRIES", ABOVE_EVERY_TABLE)


@pytest.fixture
def numpy_path(monkeypatch):
    monkeypatch.setattr(regression, "_NUMPY_ENTRIES", 0)
