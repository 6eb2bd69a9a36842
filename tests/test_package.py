"""The package's public surface: every exported name exists."""

import paritysim


def test_every_exported_name_resolves():
    missing = [name for name in paritysim.__all__
               if not hasattr(paritysim, name)]
    assert missing == []
    assert len(set(paritysim.__all__)) == len(paritysim.__all__)
