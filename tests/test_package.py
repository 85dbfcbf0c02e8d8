from __future__ import annotations

import types

import layoutstress


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(layoutstress).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(layoutstress.__all__) == public
    assert len(layoutstress.__all__) == len(public)
    for name in layoutstress.__all__:
        assert getattr(layoutstress, name) is not None
