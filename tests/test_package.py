import types

import walsh_spectra

REMOVED = (
    "simulate_tvdma",
    "simulate_tvdarma",
    "finite_walsh_transform",
    "bit_reverse",
    "inverse_fwht",
    "from_grid",
    "convert_spec_frozen",
    "CovarianceSequence",
    "walsh_spectrum_from_cov",
)


def test_every_exported_name_resolves():
    missing = [name for name in walsh_spectra.__all__ if not hasattr(walsh_spectra, name)]
    assert missing == []
    assert len(set(walsh_spectra.__all__)) == len(walsh_spectra.__all__)


def test_exports_are_the_imported_public_names():
    assert walsh_spectra.__all__[0] == "__version__"
    names = walsh_spectra.__all__[1:]
    assert names == sorted(names)
    assert not [n for n in names if isinstance(getattr(walsh_spectra, n), types.ModuleType)]
    assert {"fwht", "simulate", "tv_dyadic_density", "WalshPolynomial"} <= set(names)


def test_removed_aliases_are_gone():
    from walsh_spectra import dyadic, poly, processes, spectra

    for name in REMOVED:
        assert name not in walsh_spectra.__all__
        for module in (walsh_spectra, dyadic, poly, processes, spectra):
            assert not hasattr(module, name), (module.__name__, name)
