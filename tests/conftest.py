"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_table_cache(tmp_path_factory):
    """Point the per-user table cache (qtomo._tablecache) at a directory of this session.

    The suite and the CLI processes it starts then never read or write the user's
    cache, and each table's first use in a session is built, so the pins hold cold.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def forget_tables():
    """A function that drops the homodyne tables the process holds, as a fresh process starts."""
    from qtomo.estimators import homodyne

    def forget():
        for table in (homodyne._k_tables, homodyne._dense_f_grid, homodyne._f_spline):
            table.cache_clear()
    return forget


@pytest.fixture
def table_cache(tmp_path, monkeypatch, forget_tables):
    """An empty table cache of this test and no table in memory; the cache's directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    forget_tables()
    return tmp_path / "xdg" / "qtomo"
