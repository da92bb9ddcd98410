"""The package's export list matches what it binds."""

import types

import momentangle


def test_all_lists_exactly_the_public_names():
    names = momentangle.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(momentangle, name, None) is not None, name
    public = {name for name, value in vars(momentangle).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
