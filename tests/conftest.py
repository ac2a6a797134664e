import hypothesis
import pytest

from memos import clear_process_memos

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True
)
hypothesis.settings.register_profile(
    "thorough", max_examples=300, deadline=None
)
hypothesis.settings.load_profile("default")


@pytest.fixture(autouse=True)
def cold_job_memos():
    """Each test starts with no process memo filled by an earlier test (no
    parsed input or field, substitution, restricted H or stage, or tables),
    so a test that counts or replaces the functions behind them sees them
    run."""
    clear_process_memos()
    yield
    clear_process_memos()
