import rmflab


def test_every_exported_name_resolves():
    assert len(rmflab.__all__) == len(set(rmflab.__all__))
    missing = [name for name in rmflab.__all__ if not hasattr(rmflab, name)]
    assert missing == []
