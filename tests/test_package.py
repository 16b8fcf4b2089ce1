import paretotsp


def test_every_exported_name_resolves():
    missing = [name for name in paretotsp.__all__ if not hasattr(paretotsp, name)]
    assert missing == []
