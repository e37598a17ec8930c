"""gsaformer.__all__ is kept by hand; these keep it honest."""

import gsaformer


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gsaformer import *", namespace)
    assert [name for name in gsaformer.__all__ if name not in namespace] == []


def test_public_names_are_listed_once():
    assert len(gsaformer.__all__) == len(set(gsaformer.__all__))
