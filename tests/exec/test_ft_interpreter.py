"""MiniFortran interpreter tests."""

import pytest

from repro.coverage import profile_from_run
from repro.exec.ft_interpreter import run_fortran
from repro.lang.fortran.parser import parse_fortran
from repro.util.errors import InterpreterError


def run(body, decls=""):
    src = f"program t\nimplicit none\n{decls}\n{body}\nend program t\n"
    return run_fortran(parse_fortran(src, "t.f90"))


class TestScalars:
    def test_arithmetic(self):
        res = run("x = 2.0 * 3.0 + 1.0\nif (x /= 7.0) then\nstop 1\nend if", "real(kind=8) :: x")
        assert res.value == 0

    def test_integer_division(self):
        res = run("i = 7 / 2\nif (i /= 3) then\nstop 1\nend if", "integer :: i")
        assert res.value == 0

    def test_power(self):
        res = run("x = 2.0 ** 3\nif (x /= 8.0) then\nstop 1\nend if", "real :: x")
        assert res.value == 0

    def test_parameter(self):
        res = run("if (n /= 64) then\nstop 1\nend if", "integer, parameter :: n = 64")
        assert res.value == 0

    def test_logic_ops(self):
        res = run(
            "if (.not. (a < b .and. b < c)) then\nstop 1\nend if",
            "real :: a = 1.0, b = 2.0, c = 3.0",
        )
        assert res.value == 0

    def test_stop_code_returned(self):
        assert run("stop 3").value == 3


class TestLoops:
    def test_do_accumulates(self):
        res = run(
            "s = 0\ndo i = 1, 5\ns = s + i\nend do\nif (s /= 15) then\nstop 1\nend if",
            "integer :: i, s",
        )
        assert res.value == 0

    def test_do_step(self):
        res = run(
            "s = 0\ndo i = 1, 10, 3\ns = s + 1\nend do\nif (s /= 4) then\nstop 1\nend if",
            "integer :: i, s",
        )
        assert res.value == 0

    def test_do_concurrent(self):
        res = run(
            "allocate(a(4))\ndo concurrent (i = 1:4)\na(i) = i * 2.0\nend do\nif (a(3) /= 6.0) then\nstop 1\nend if",
            "integer :: i\nreal, allocatable, dimension(:) :: a",
        )
        assert res.value == 0

    def test_do_while(self):
        res = run(
            "n = 16\nc = 0\ndo while (n > 1)\nn = n / 2\nc = c + 1\nend do\nif (c /= 4) then\nstop 1\nend if",
            "integer :: n, c",
        )
        assert res.value == 0

    def test_exit_cycle(self):
        res = run(
            "s = 0\ndo i = 1, 10\nif (i == 3) then\ncycle\nend if\nif (i == 6) then\nexit\nend if\ns = s + i\nend do\n"
            "if (s /= 1 + 2 + 4 + 5) then\nstop 1\nend if",
            "integer :: i, s",
        )
        assert res.value == 0


class TestArrays:
    DECLS = "integer :: i\nreal(kind=8), allocatable, dimension(:) :: a, b"

    def test_element_access(self):
        res = run(
            "allocate(a(8))\na(5) = 2.5\nif (a(5) /= 2.5) then\nstop 1\nend if", self.DECLS
        )
        assert res.value == 0

    def test_whole_array_assign(self):
        res = run(
            "allocate(a(4))\na = 1.5\nif (sum(a) /= 6.0) then\nstop 1\nend if", self.DECLS
        )
        assert res.value == 0

    def test_section_elementwise(self):
        res = run(
            "allocate(a(4), b(4))\na(:) = 2.0\nb(:) = 3.0 * a(:)\nif (b(2) /= 6.0) then\nstop 1\nend if",
            self.DECLS,
        )
        assert res.value == 0

    def test_dot_product(self):
        res = run(
            "allocate(a(3), b(3))\na = 2.0\nb = 4.0\nif (dot_product(a, b) /= 24.0) then\nstop 1\nend if",
            self.DECLS,
        )
        assert res.value == 0

    def test_intrinsics(self):
        res = run(
            "allocate(a(3))\na(1) = -5.0\na(2) = 1.0\na(3) = 3.0\n"
            "if (maxval(a) /= 3.0) then\nstop 1\nend if\n"
            "if (minval(a) /= -5.0) then\nstop 2\nend if\n"
            "if (abs(a(1)) /= 5.0) then\nstop 3\nend if\n"
            "if (size(a) /= 3) then\nstop 4\nend if",
            self.DECLS,
        )
        assert res.value == 0

    def test_deallocate(self):
        res = run(
            "allocate(a(4))\ndeallocate(a)\nif (allocated(a)) then\nstop 1\nend if", self.DECLS
        )
        assert res.value == 0


class TestDirectivesAndCoverage:
    def test_omp_body_runs_serially(self):
        res = run(
            "allocate(a(4))\n!$omp parallel do\ndo i = 1, 4\na(i) = 1.0\nend do\n!$omp end parallel do\n"
            "if (sum(a) /= 4.0) then\nstop 1\nend if",
            "integer :: i\nreal, allocatable, dimension(:) :: a",
        )
        assert res.value == 0

    def test_coverage_recorded(self):
        res = run("x = 1.0\nif (.false.) then\nx = 99.0\nend if", "real :: x")
        mask = profile_from_run(res).line_mask()
        assert mask.covered("t.f90", 4)  # the assignment line
        assert not mask.covered("t.f90", 6)  # the dead branch body

    def test_print_captured(self):
        res = run("print *, 'value', 42")
        assert any("42" in line for line in res.stdout)


class TestSubprograms:
    def test_contained_subroutine(self):
        src = (
            "program t\ninteger :: x\nx = 0\ncall bump(3)\n"
            "contains\nsubroutine bump(k)\ninteger :: k\nx = x + k\nend subroutine bump\n"
            "end program t\n"
        )
        res = run_fortran(parse_fortran(src, "t.f90"))
        assert res.value == 0

    def test_contained_function(self):
        src = (
            "program t\nreal :: y\ny = sq(3.0)\nif (y /= 9.0) then\nstop 1\nend if\n"
            "contains\nfunction sq(v) result(r)\nreal :: v, r\nr = v * v\nend function sq\n"
            "end program t\n"
        )
        res = run_fortran(parse_fortran(src, "t.f90"))
        assert res.value == 0


class TestErrors:
    def test_undefined_name(self):
        with pytest.raises(InterpreterError):
            run("x = nope + 1", "real :: x")

    def test_unknown_subroutine(self):
        with pytest.raises(InterpreterError):
            run("call missing()")


class TestCorpusVerification:
    def test_all_fortran_ports_verify(self):
        """The interpreter runs every BabelStream-Fortran port to completion
        with its built-in validation passing."""
        from repro.corpus import app_models, build_fs, get_spec

        for model in app_models("babelstream-fortran"):
            spec = get_spec("babelstream-fortran", model)
            fs = build_fs("babelstream-fortran", model)
            path = spec.units["main"]
            res = run_fortran(parse_fortran(fs.get(path).text, path))
            assert res.value == 0, model
            assert res.coverage
