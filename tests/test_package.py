"""The package namespace."""

import spdprivacy


def test_every_exported_name_resolves():
    missing = [name for name in spdprivacy.__all__ if not hasattr(spdprivacy, name)]
    assert missing == []
    assert len(set(spdprivacy.__all__)) == len(spdprivacy.__all__)
