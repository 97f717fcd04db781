import starclique as sc


def test_every_export_resolves():
    # a name deleted from its module but left in __all__ fails here
    for name in sc.__all__:
        getattr(sc, name)
    assert len(set(sc.__all__)) == len(sc.__all__)
