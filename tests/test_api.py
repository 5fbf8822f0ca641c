"""The public names of the package."""

import curvem


def test_every_exported_name_resolves_once():
    assert len(set(curvem.__all__)) == len(curvem.__all__)
    missing = [name for name in curvem.__all__ if not hasattr(curvem, name)]
    assert missing == []
