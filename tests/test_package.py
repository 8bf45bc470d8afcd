import airnav


def test_every_exported_name_resolves():
    missing = [name for name in airnav.__all__ if not hasattr(airnav, name)]
    assert missing == []
