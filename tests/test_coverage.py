"""Coverage profile and GCov report tests."""

from repro.coverage import CoverageProfile, gcov_report, profile_from_run
from repro.exec import run_program
from repro.lang.cpp.parser import parse_unit
from repro.lang.cpp.sema import analyze
from repro.lang.source import VirtualFS


SRC = "int main() {\nint a = 1;\nif (a > 5) {\nint dead = 0;\n}\nreturn a;\n}"


def run_src():
    fs = VirtualFS().add("main.cpp", SRC)
    tu = parse_unit(fs, "main.cpp")
    return fs, run_program(tu, analyze(tu))


class TestProfile:
    def test_from_run(self):
        _, res = run_src()
        p = profile_from_run(res)
        assert p.hits[("main.cpp", 2)] >= 1
        assert ("main.cpp", 4) not in p.hits

    def test_line_mask_unknown_uncovered(self):
        _, res = run_src()
        mask = profile_from_run(res).line_mask()
        assert not mask.covered("other.cpp", 1)

    def test_covered_lines(self):
        p = CoverageProfile()
        p.record("f", 3)
        p.record("f", 7)
        assert p.covered_lines("f") == {3, 7}
        assert p.covered_lines("g") == set()


class TestGcovReport:
    def test_format(self):
        fs, res = run_src()
        report = gcov_report(profile_from_run(res), fs, "main.cpp")
        lines = report.splitlines()
        assert lines[0].endswith("Source:main.cpp")
        # executed line shows a count
        assert any(":    2:" in row and row.strip()[0].isdigit() for row in lines)
        # dead line shows #####
        assert any("#####" in row and ":    4:" in row for row in lines)
