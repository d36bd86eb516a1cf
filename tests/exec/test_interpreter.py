"""MiniC++ interpreter: language core semantics."""

import gc
import types

import pytest

from repro.coverage import profile_from_run
from repro.exec import run_program
from repro.lang.cpp.parser import parse_unit
from repro.lang.cpp.sema import analyze
from repro.lang.source import VirtualFS
from repro.util.errors import InterpreterError


def run(text, entry="main", **files):
    fs = VirtualFS()
    for p, t in files.items():
        fs.add(p.replace("__", "/"), t)
    fs.add("main.cpp", text)
    tu = parse_unit(fs, "main.cpp")
    return run_program(tu, analyze(tu), entry)


class TestArithmetic:
    def test_integer_division_truncates(self):
        assert run("int main() { return 7 / 2; }").value == 3

    def test_float_division(self):
        assert run("int main() { double x = 7.0 / 2.0; return x == 3.5 ? 0 : 1; }").value == 0

    def test_modulo(self):
        assert run("int main() { return 17 % 5; }").value == 2

    def test_precedence(self):
        assert run("int main() { return 2 + 3 * 4; }").value == 14

    def test_comparison_and_logic(self):
        assert run("int main() { return (1 < 2 && 3 >= 3) ? 5 : 6; }").value == 5

    def test_short_circuit(self):
        # right side would divide by zero if evaluated
        src = "int div0(int x) { return 1 / x; }\nint main() { int c = 0; return (c != 0 && div0(c)) ? 1 : 0; }"
        assert run(src).value == 0

    def test_bit_ops(self):
        assert run("int main() { return (5 & 3) | (1 << 2); }").value == 5

    def test_unary_minus_and_not(self):
        assert run("int main() { return !(-1 < 0) ? 1 : 2; }").value == 2


class TestControlFlow:
    def test_for_accumulation(self):
        assert run("int main() { int s = 0; for (int i = 1; i <= 4; i++) { s += i; } return s; }").value == 10

    def test_while(self):
        assert run("int main() { int n = 16; int c = 0; while (n > 1) { n = n / 2; c++; } return c; }").value == 4

    def test_do_while_runs_once(self):
        assert run("int main() { int c = 0; do { c++; } while (false); return c; }").value == 1

    def test_break_continue(self):
        src = (
            "int main() { int s = 0;"
            " for (int i = 0; i < 10; i++) { if (i == 2) { continue; } if (i == 5) { break; } s += i; }"
            " return s; }"
        )
        assert run(src).value == 0 + 1 + 3 + 4

    def test_nested_loops(self):
        src = "int main() { int s = 0; for (int i = 0; i < 3; i++) { for (int j = 0; j < 3; j++) { s++; } } return s; }"
        assert run(src).value == 9

    def test_early_return(self):
        assert run("int f() { return 1; return 2; }\nint main() { return f(); }").value == 1


class TestFunctionsAndScope:
    def test_call_with_args(self):
        assert run("int add(int a, int b) { return a + b; }\nint main() { return add(2, 3); }").value == 5

    def test_recursion(self):
        src = "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\nint main() { return fib(10); }"
        assert run(src).value == 55

    def test_reference_parameter(self):
        src = "void inc(int& x) { x = x + 1; }\nint main() { int v = 5; inc(v); return v; }"
        assert run(src).value == 6

    def test_default_argument_used(self):
        src = "int f(int a, int b = 7) { return a + b; }\nint main() { return f(1); }"
        assert run(src).value == 8

    def test_shadowing(self):
        src = "int main() { int x = 1; { int x = 2; } return x; }"
        assert run(src).value == 1

    def test_global_variable(self):
        src = "int g = 42;\nint main() { return g; }"
        assert run(src).value == 42


class TestPointers:
    def test_new_index_store_load(self):
        src = "int main() { double* a = new double[4]; a[2] = 7.5; return a[2] == 7.5 ? 0 : 1; }"
        assert run(src).value == 0

    def test_pointer_arithmetic(self):
        src = "int main() { double* a = new double[4]; a[0] = 1.0; double* p = a + 0; return *p == 1.0 ? 0 : 1; }"
        assert run(src).value == 0

    def test_address_of_scalar(self):
        src = "void set(double* p) { *p = 3.0; }\nint main() { double x = 0.0; set(&x); return x == 3.0 ? 0 : 1; }"
        assert run(src).value == 0

    def test_local_c_array(self):
        src = "int main() { double r[8]; r[3] = 2.0; return r[3] == 2.0 ? 0 : 1; }"
        assert run(src).value == 0

    def test_increment_through_subscript(self):
        src = "int main() { double* a = new double[2]; a[0] = 1.0; a[0] += 2.0; return (int)a[0]; }"
        assert run(src).value == 3


class TestLambdasAndStructs:
    def test_value_capture_snapshots(self):
        src = (
            "int main() { int x = 1; auto f = [=]() { return x; };"
            " x = 99; return f(); }"
        )
        assert run(src).value == 1

    def test_reference_capture_sees_updates(self):
        src = (
            "int main() { int x = 1; auto f = [&]() { return x; };"
            " x = 99; return f(); }"
        )
        assert run(src).value == 99

    def test_lambda_with_params(self):
        src = "int main() { auto add = [](int a, int b) { return a + b; }; return add(2, 3); }"
        assert run(src).value == 5

    def test_struct_fields_and_methods(self):
        src = (
            "struct Counter { int n; void bump() { n = n + 1; } int get() { return n; } };\n"
            "int main() { Counter c; c.bump(); c.bump(); return c.get(); }"
        )
        assert run(src).value == 2

    def test_ctor_runs(self):
        src = (
            "struct P { int v; P(int x) : v(x) { } };\n"
            "int main() { P p(9); return p.v; }"
        )
        assert run(src).value == 9


class TestKernelLaunch:
    def test_grid_iteration(self):
        src = (
            "__global__ void fill(double* a) {\n"
            "int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
            "a[i] = 1.0;\n}\n"
            "int main() { double* a = new double[8]; fill<<<2, 4>>>(a);\n"
            "double s = 0.0; for (int i = 0; i < 8; i++) { s += a[i]; }\n"
            "return (int)s; }"
        )
        assert run(src).value == 8


class TestCoverage:
    def test_executed_lines_recorded(self):
        src = "int main() {\nint x = 1;\nreturn x;\n}"
        res = run(src)
        assert res.hits("main.cpp", 2) >= 1
        assert res.hits("main.cpp", 3) >= 1

    def test_dead_branch_not_recorded(self):
        src = "int main() {\nif (false) {\nint dead = 1;\n}\nreturn 0;\n}"
        res = run(src)
        assert res.hits("main.cpp", 3) == 0

    def test_loop_body_hit_count(self):
        src = "int main() {\nfor (int i = 0; i < 5; i++) {\nint x = i;\n}\nreturn 0;\n}"
        res = run(src)
        # once per iteration (decl statements record at both the DeclStmt
        # and VarDecl granularity, so the count is a multiple of 5)
        assert res.hits("main.cpp", 3) >= 5
        assert res.hits("main.cpp", 3) % 5 == 0

    def test_line_mask_conversion(self):
        res = run("int main() {\nreturn 0;\n}")
        mask = profile_from_run(res).line_mask()
        assert mask.covered("main.cpp", 2)
        assert not mask.covered("main.cpp", 999)


class TestErrors:
    def test_missing_entry(self):
        with pytest.raises(InterpreterError, match="entry point"):
            run("int helper() { return 1; }", entry="main")

    def test_undefined_identifier(self):
        with pytest.raises(InterpreterError, match="undefined identifier"):
            run("int main() { return nope; }")

    @pytest.mark.parametrize(
        "src",
        [
            "int main() { zz = 3; return zz; }",
            "int main() { zz++; return 0; }",
            # a misspelt accumulator used to define itself and return 0
            "int main() { int s = 0; for (int i = 1; i <= 4; i++) { totl += i; } return s; }",
        ],
    )
    def test_write_to_undeclared_name_fails_like_a_read(self, src):
        name = "totl" if "totl" in src else "zz"
        with pytest.raises(InterpreterError, match=f"^undefined identifier '{name}'$"):
            run(src)

    def test_unknown_function(self):
        with pytest.raises(InterpreterError, match="unknown function"):
            run("int main() { return missing(); }")

    def test_infinite_loop_fuel(self):
        interp_src = "int main() { while (true) { } return 0; }"
        from repro.exec.interpreter import Interpreter

        old = Interpreter.MAX_STEPS
        Interpreter.MAX_STEPS = 10_000
        try:
            with pytest.raises(InterpreterError, match="fuel"):
                run(interp_src)
        finally:
            Interpreter.MAX_STEPS = old


class TestRunContract:
    """What the coverage record and the run's text can observe: record
    placement and first-hit order, ``steps`` at every point, where an
    error is raised, and what it says."""

    def test_first_hit_order_and_counts(self):
        src = (
            "int g(int a) {\n"
            "  return a + 1;\n"
            "}\n"
            "int main() {\n"
            "  int s = 0;\n"
            "  for (int i = 0; i < 2; i++) {\n"
            "    s += g(i);\n"
            "  }\n"
            "  return s;\n"
            "}\n"
        )
        res = run(src)
        assert res.value == 3 and res.steps == 20
        # function entry and its body each record; a call records at its
        # site; keys stay in the order of their first hit
        assert [[ln, c] for (_f, ln), c in res.coverage.items()] == [
            [4, 2], [5, 2], [6, 5], [7, 4], [1, 4], [2, 2], [9, 1],
        ]

    def test_wtime_reads_steps_at_the_call(self):
        src = (
            "int main() { double t0 = omp_get_wtime(); int s = 0;"
            " for (int i = 0; i < 3; i++) { s += i; } double t1 = omp_get_wtime();"
            " return (int)((t1 - t0) * 1e9 + 0.5); }"
        )
        res = run(src)
        assert (res.value, res.steps) == (14, 20)

    def test_fuel_runs_out_at_max_steps_plus_one(self, monkeypatch):
        from repro.exec.interpreter import Interpreter

        src = "int main() { int s = 0; for (int i = 0; i < 3; i++) { s += i; } return s; }"
        n = run(src).steps
        monkeypatch.setattr(Interpreter, "MAX_STEPS", n)
        assert run(src).value == 3
        monkeypatch.setattr(Interpreter, "MAX_STEPS", n - 1)
        with pytest.raises(InterpreterError, match="fuel exhausted"):
            run(src)

    def test_untaken_malformed_literal_is_harmless(self):
        res = run("int main() { int x = 0; if (x) { x = 0x; } return x; }")
        assert (res.value, res.steps) == (0, 6)

    def test_untaken_unknown_name_is_harmless(self):
        res = run("int main() { int x = 0; if (x) { return nope; } return 7; }")
        assert (res.value, res.steps) == (7, 6)

    def test_taken_malformed_literal_fails_the_run(self):
        with pytest.raises(InterpreterError, match=r"^ValueError: invalid literal for int\(\)"):
            run("int main() { int x = 0; x = 0x; return x; }")

    def test_runtime_fault_is_an_interpreter_error(self):
        with pytest.raises(InterpreterError, match="^ZeroDivisionError: integer modulo by zero$"):
            run("int main() { int z = 1; z = z % (z - 1); return z; }")

    def test_break_outside_a_loop_leaves_its_function(self):
        # as in the tree walk: the break unwinds stop() and exits main's loop
        src = (
            "int stop() { break; return 1; }\n"
            "int main() { int s = 0; for (int i = 0; i < 5; i++)"
            " { s += 1; stop(); s += 10; } return s; }"
        )
        res = run(src)
        assert (res.value, res.steps) == (1, 15)


class TestRunLifetime:
    """A finished run leaves no reference cycle for the collector: the
    closures a run builds capture its interpreter, and the interpreter's
    closure cache holds them."""

    def _run_and_collect(self, src):
        """``(whether the run failed, functions of this module that only a
        collection of cyclic garbage would free)``."""
        fs = VirtualFS()
        fs.add("main.cpp", src)
        tu = parse_unit(fs, "main.cpp")
        sema = analyze(tu)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            try:
                run_program(tu, sema)
                failed = False
            except InterpreterError:
                failed = True
            gc.collect()
            return failed, [
                o
                for o in gc.garbage
                if isinstance(o, types.FunctionType) and o.__module__ == "repro.exec.interpreter"
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()

    def test_finished_run_frees_its_closures(self):
        src = (
            "int add(int a, int b) { return a + b; }\n"
            "int main() { int s = 0; for (int i = 0; i < 3; i++) { s = add(s, i); }"
            " auto f = [&](int x) { return x + s; }; return f(1); }"
        )
        assert self._run_and_collect(src) == (False, [])

    def test_failed_run_frees_its_closures(self):
        src = "int main() { int z = 1; for (int i = 0; i < 2; i++) { z = z % (z - 1); } return z; }"
        assert self._run_and_collect(src) == (True, [])
