import sparselab


def test_all_names_resolve_and_star_import_works():
    assert len(set(sparselab.__all__)) == len(sparselab.__all__)
    missing = [name for name in sparselab.__all__ if not hasattr(sparselab, name)]
    assert missing == []
    namespace: dict = {}
    exec("from sparselab import *", namespace)
    assert set(sparselab.__all__) <= set(namespace)


def test_removed_names_are_not_exported():
    for name in (
        "LeastSquaresFit",
        "least_squares_on_support",
        "re_lower_bound",
    ):
        assert name not in sparselab.__all__
        assert not hasattr(sparselab, name)
