import types

import magspy


def test_all_lists_every_public_name_once():
    # A public function removed from its module must leave neither a
    # dangling export nor a name bound in the package but left unlisted.
    assert len(set(magspy.__all__)) == len(magspy.__all__)
    for name in magspy.__all__:
        assert hasattr(magspy, name), name
    public = {name for name, value in vars(magspy).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(magspy.__all__) == public
