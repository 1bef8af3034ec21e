"""The package's export list names only what exists."""

import lossgate


def test_every_exported_name_resolves():
    missing = [name for name in lossgate.__all__ if not hasattr(lossgate, name)]
    assert missing == []
    assert len(set(lossgate.__all__)) == len(lossgate.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from lossgate import *", namespace)
    assert set(lossgate.__all__) <= set(namespace)
