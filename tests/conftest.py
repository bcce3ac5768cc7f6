"""Shared hooks and helpers: collect the acceptance one-liners and print
them at the end of the run so they show up without -s, and plant a kernel
fault in one product."""

import pytest

from descents import algebra, backend

acceptance_lines = []


def patch_kernel(monkeypatch, request, rows, cols, moves):
    """Make the table route's sweep add ``moves[word]`` to each word's
    count for the margins ``rows`` and ``cols``, a kernel fault in the
    product B(cols)·B(rows); products are cleared before and after."""
    real = backend.reading_word_counts

    def faulty(row_margins, col_margins, n):
        counts = real(row_margins, col_margins, n)
        if (row_margins, col_margins) == (rows, cols):
            for word, delta in moves.items():
                counts[word] = counts.get(word, 0) + delta
        return {word: c for word, c in counts.items() if c}

    monkeypatch.setattr(backend, "reading_word_counts", faulty)
    algebra._solomon.cache_clear()
    request.addfinalizer(algebra._solomon.cache_clear)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (report.when == "call" and report.failed
            and "test_acceptance" in report.nodeid):
        name = item.name.removeprefix("test_")
        acceptance_lines.append(f"ACCEPTANCE {name}: FAIL")


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
