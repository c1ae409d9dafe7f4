import collabmap


def test_exports_resolve_once():
    assert len(collabmap.__all__) == len(set(collabmap.__all__))
    for name in collabmap.__all__:
        assert getattr(collabmap, name, None) is not None, name
