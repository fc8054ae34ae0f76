"""The package's public names: each export is listed once and bound."""

import nla_weaksim


def test_all_names_are_unique_and_bound():
    names = nla_weaksim.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(nla_weaksim, n)] == []
