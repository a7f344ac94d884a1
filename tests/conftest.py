"""Suite-wide fixtures."""

import pytest

from repro.core.backend.cache import CACHE_DIR_ENV


@pytest.fixture(autouse=True)
def cache_dir(monkeypatch, tmp_path):
    """Point the default compile cache at a throwaway directory, so no
    test reads or writes the user's ``~/.cache/repro`` (a stale artifact
    there would otherwise feed old plans into the tests)."""
    directory = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(directory))
    return directory
