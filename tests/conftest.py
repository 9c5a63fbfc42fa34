"""Suite-wide pytest hooks.

The acceptance tests register one line per numbered criterion here; the
terminal summary re-emits them so the pass/fail report is visible even under
output capture.

BLAS runs one thread unless the environment says otherwise: the networks are
too small for a second thread to buy wall time, and two training processes
with two threads each on two cores ran 6-12 times slower than with one. This
module is imported before any test module, so before numpy is.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

CRITERION_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_RESULTS:
        terminalreporter.write_line(line)
