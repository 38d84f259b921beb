import pvar


def test_all_names_resolve_and_star_import_succeeds():
    missing = [name for name in pvar.__all__ if not hasattr(pvar, name)]
    assert missing == []
    namespace = {}
    exec("from pvar import *", namespace)
    assert set(pvar.__all__) <= set(namespace)
