"""The package's export list names only what the package has, once each."""

import collections

import volnet


def test_every_exported_name_exists_once():
    assert [name for name in volnet.__all__ if not hasattr(volnet, name)] == []
    repeated = [n for n, c in collections.Counter(volnet.__all__).items() if c > 1]
    assert repeated == []
