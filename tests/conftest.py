"""The acceptance-criteria summary printed at the end of a test run.

The terminal summary prints one PASS/FAIL line per acceptance criterion
(tests named test_criterion_NN_* in test_acceptance.py), so the verdicts
survive in captured logs even when every test passes.
"""

import re

_CRITERIA = {
    1: "qft/inverse round trip and unitarity, n <= 6, error < 1e-10, under 5 s",
    2: "qft product-form identity on all basis inputs, n <= 5, error < 1e-10",
    3: "qpe exact phases exhaustively (m <= 5) and inexact-phase success bound",
    4: "qip classical-oracle grid, p=2, m=3, signed match at register resolution, under 30 s",
    5: "inner-product register matches the closed form, exhaustive n,p,m <= 2 plus random n=p=m=3",
    6: "exact generator loads 100 random 4-qubit targets to tv < 1e-9",
    7: "score equals the povm trace form (1e-10) and respects the trace-distance bound",
    8: "shift-rule gradient vs finite differences < 1e-6 componentwise",
    9: "pure-state trace distance vs eigenvalue oracle < 1e-9, n <= 4",
    10: "svi pipeline: b=0 lognormal, implied-vol round trip, bin additivity, 16-bin target",
    11: "n=2 training, 5-seed mean final fidelity >= 0.99 in 300 epochs, under 60 s",
    12: "n=4 svi training, median fidelity >= 0.9 and median kl decreasing, under 10 min",
    13: "n=2 training at 10,000 shots, 10-seed median final fidelity >= 0.99, under 60 s",
    14: "n=4 svi training, 1,000 shots, median fidelity >= 0.9, median kl falling, under 10 min",
}

_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match:
        _results[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        verdict = {"passed": "PASS", "failed": "FAIL"}.get(
            _results[num], _results[num].upper()
        )
        terminalreporter.write_line(
            f"criterion {num:02d} {verdict}  {_CRITERIA.get(num, '')}"
        )
