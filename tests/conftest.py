import pytest


@pytest.fixture(autouse=True)
def _default_budget(monkeypatch):
    # every test starts under the default node budget, whatever the shell
    # sets; a test that needs a cap sets LHCONE_BUDGET itself
    monkeypatch.delenv("LHCONE_BUDGET", raising=False)
