import hypothesis
import pytest

from milnorfibre import decomposition, jobs

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True
)
hypothesis.settings.register_profile(
    "thorough", max_examples=300, deadline=None
)
hypothesis.settings.load_profile("default")


@pytest.fixture(autouse=True)
def cold_job_memos():
    """Each test starts with no parsed input, no restricted stage and no
    tables kept from an earlier test, so a test that counts or replaces the
    functions behind them sees them run."""
    jobs._parse_job.cache_clear()
    decomposition._restricted_stage.cache_clear()
    jobs._tables.cache_clear()
    yield
    jobs._parse_job.cache_clear()
    decomposition._restricted_stage.cache_clear()
    jobs._tables.cache_clear()
