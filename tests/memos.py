"""The package's process memos, for tests that need a process with none of
them filled: each is a module-level functools.lru_cache, and
test_jobs.py::test_every_process_memo_is_cleared checks that this list
names them all."""

from milnorfibre import decomposition, jobs

PROCESS_MEMOS = (
    jobs._parse_job,
    jobs._field,
    decomposition._substitution,
    decomposition._restricted_h,
    decomposition._restricted_stage,
    jobs._tables,
)


def clear_process_memos() -> None:
    for memo in PROCESS_MEMOS:
        memo.cache_clear()
