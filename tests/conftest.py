import pytest

from patchfem import runner


@pytest.fixture(autouse=True)
def no_workspace(monkeypatch):
    """Each test starts, and leaves this process, without the workspace a
    solve keeps for the next one on its grid (``runner._workspace``), so
    no test's memory or timing depends on the tests before it."""
    monkeypatch.setattr(runner, "_workspace", None)
