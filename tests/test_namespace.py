"""The public namespace: every name in ``sumways.__all__`` is bound, none is
listed twice, and a star import binds exactly those names."""

import sumways


def test_every_exported_name_resolves_once():
    assert len(set(sumways.__all__)) == len(sumways.__all__)
    missing = [name for name in sumways.__all__ if not hasattr(sumways, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from sumways import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sumways.__all__)
