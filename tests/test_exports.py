import opnlab


def test_every_export_resolves():
    missing = [name for name in opnlab.__all__ if not hasattr(opnlab, name)]
    assert missing == []
    assert len(set(opnlab.__all__)) == len(opnlab.__all__)
