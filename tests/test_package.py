"""The package's public surface."""

import flexscat


def test_every_export_resolves():
    assert [name for name in flexscat.__all__ if not hasattr(flexscat, name)] == []
    assert len(set(flexscat.__all__)) == len(flexscat.__all__)
