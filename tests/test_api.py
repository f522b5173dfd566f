import vidtext


def test_every_public_name_resolves_once():
    assert len(vidtext.__all__) == len(set(vidtext.__all__))
    assert [name for name in vidtext.__all__ if not hasattr(vidtext, name)] == []
    assert set(vidtext.__all__) <= set(dir(vidtext))
