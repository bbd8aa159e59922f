"""The package's export list."""

import ndstab


def test_every_exported_name_resolves():
    assert len(set(ndstab.__all__)) == len(ndstab.__all__)
    assert [name for name in ndstab.__all__ if not hasattr(ndstab, name)] == []
    namespace = {}
    exec("from ndstab import *", namespace)
    assert set(ndstab.__all__) <= set(namespace)
