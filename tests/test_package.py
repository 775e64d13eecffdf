import types

import snmtf


def test_every_public_name_is_exported():
    public = {name for name, value in vars(snmtf).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(snmtf.__all__)
