"""Suite-wide pytest hooks.

The acceptance tests register one line per numbered criterion here; the
terminal summary re-emits them so the pass/fail report is visible even under
output capture.

BLAS runs one thread unless the environment says otherwise: two training
processes with two threads each on two cores ran 6-12 times slower than with
one. Importing highwaylab sets that default, and this module is imported
before any test module, so before numpy is.
"""

import highwaylab  # noqa: F401  (sets one BLAS thread before numpy loads)

CRITERION_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_RESULTS:
        terminalreporter.write_line(line)
