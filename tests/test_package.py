import walsh_spectra

REMOVED = ("simulate_tvdma", "simulate_tvdarma", "finite_walsh_transform")


def test_every_exported_name_resolves():
    missing = [name for name in walsh_spectra.__all__ if not hasattr(walsh_spectra, name)]
    assert missing == []
    assert len(set(walsh_spectra.__all__)) == len(walsh_spectra.__all__)


def test_removed_aliases_are_gone():
    from walsh_spectra import processes, spectra

    for name in REMOVED:
        assert name not in walsh_spectra.__all__
        for module in (walsh_spectra, processes, spectra):
            assert not hasattr(module, name), (module.__name__, name)
