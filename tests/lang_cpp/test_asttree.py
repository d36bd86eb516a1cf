"""AST → T_sem conversion: labels, OMP implicit semantics, instantiations."""

from repro.lang.cpp.asttree import ast_to_tree
from repro.lang.cpp.parser import parse_unit
from repro.lang.cpp.sema import analyze
from repro.lang.source import VirtualFS


def sem_tree(main_text, **files):
    fs = VirtualFS()
    for p, t in files.items():
        fs.add(p.replace("__", "/"), t)
    fs.add("main.cpp", main_text)
    tu = parse_unit(fs, "main.cpp")
    return ast_to_tree(tu, analyze(tu))


class TestBasicShapes:
    def test_function_node(self):
        t = sem_tree("int f(int a) { return a; }")
        fns = t.find_all(lambda n: n.kind == "fn")
        assert fns and fns[0].label == "f"

    def test_control_flow_labels(self):
        t = sem_tree("void f() {\nfor (int i = 0; i < 3; i++) { if (i) { break; } }\n}")
        labels = {n.label for n in t.preorder()}
        assert {"for", "if", "break"} <= labels

    def test_operator_names_recorded(self):
        t = sem_tree("int f(int a, int b) { return a * b + 1; }")
        labels = {n.label for n in t.preorder()}
        assert "binop:*" in labels and "binop:+" in labels

    def test_literals_recorded(self):
        t = sem_tree("double x = 3.14;")
        assert t.find_labels("3.14")

    def test_spans_present(self):
        t = sem_tree("int f() { return 1; }")
        fn = t.find_all(lambda n: n.kind == "fn")[0]
        assert fn.span is not None and fn.span.file == "main.cpp"


class TestCudaDialect:
    def test_kernel_gets_kernel_kind_and_attr(self):
        t = sem_tree("__global__ void k(double* a) { }")
        k = t.find_all(lambda n: n.kind == "kernel")
        assert k
        assert k[0].find_labels("attr:__global__")

    def test_launch_node(self):
        t = sem_tree("__global__ void k() { }\nvoid f() {\nk<<<2, 64>>>();\n}")
        launches = t.find_labels("cuda-kernel-launch")
        assert launches
        assert launches[0].find_labels("launch-config")


class TestOmpSemantics:
    CODE = (
        "void f(double* a, int n) {\n"
        "double s = 0.0;\n"
        "#pragma omp parallel for reduction(+:s)\n"
        "for (int i = 0; i < n; i++) { s += a[i]; }\n"
        "}"
    )

    def test_directive_node_label(self):
        t = sem_tree(self.CODE)
        assert t.find_labels("omp-parallel-for")

    def test_implicit_semantic_nodes(self):
        # "unique AST tokens [that] possess semantic information above the
        # laws of the host language" (§V-C / conclusions)
        t = sem_tree(self.CODE)
        labels = {n.label for n in t.preorder()}
        assert "thread-team" in labels
        assert "implicit-barrier" in labels
        assert "iteration-space" in labels

    def test_reduction_clause_expansion(self):
        t = sem_tree(self.CODE)
        labels = [n.label for n in t.preorder()]
        assert "reduction-init" in labels and "reduction-combine" in labels

    def test_captured_stmt_wraps_body(self):
        t = sem_tree(self.CODE)
        cap = t.find_labels("captured-stmt")[0]
        assert cap.find_labels("for")

    def test_implicit_captures_per_variable(self):
        t = sem_tree(self.CODE)
        caps = t.find_labels("implicit-capture")
        names = {c.attrs.get("name") for c in caps}
        assert "s" in names and "a" in names

    def test_target_adds_device_nodes(self):
        code = (
            "void f(double* a, int n) {\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
            "for (int i = 0; i < n; i++) { a[i] = 0; }\n"
            "}"
        )
        t = sem_tree(code)
        labels = {n.label for n in t.preorder()}
        assert "device-data-environment" in labels
        assert "league-of-teams" in labels
        assert "mapper" in labels

    def test_tsem_exceeds_tsrc_for_omp(self):
        """The §V-C finding: directives carry more semantics than source."""
        from repro.lang.cpp.cst import src_tree
        from repro.lang.cpp.lexer import lex

        t_sem = sem_tree(self.CODE)
        pragma_sem = t_sem.find_labels("omp-parallel-for")[0]
        t_src = src_tree(lex(self.CODE, "m"), "m")
        pragma_src = [n for n in t_src.preorder() if n.label.startswith("directive")][0]
        # the semantic subtree is strictly richer than the source tokens
        assert pragma_sem.size() > pragma_src.size()


class TestInstantiationNodes:
    HEADER = """
namespace sycl {
template <int D> class range { public: range(int n); int size() const; };
class queue {
 public:
  queue();
  template <typename K, typename R, typename F> void parallel_for(R r, F f);
};
}
"""

    def test_instantiation_node_attached_to_call(self):
        t = sem_tree(
            '#include <s.h>\nvoid f() { sycl::queue q; q.parallel_for(1, 2); }',
            **{"<system>__s.h": self.HEADER},
        )
        assert t.find_labels("template-instantiation")

    def test_instantiation_spans_at_use_site(self):
        # must survive system-header masking: spans are the call site's
        t = sem_tree(
            '#include <s.h>\nvoid f() { sycl::queue q; q.parallel_for(1, 2); }',
            **{"<system>__s.h": self.HEADER},
        )
        for inst in t.find_labels("template-instantiation"):
            for n in inst.preorder():
                assert n.span is None or n.span.file == "main.cpp"

    def test_ctor_expression_instantiation(self):
        t = sem_tree(
            '#include <s.h>\nvoid f() { int n = sycl::range<1>(8).size(); }',
            **{"<system>__s.h": self.HEADER},
        )
        assert t.find_labels("template-instantiation")

    def test_lambda_node(self):
        t = sem_tree("void f() { auto g = [=](int i) { return i; }; }")
        lam = t.find_labels("lambda")
        assert lam
        assert lam[0].find_labels("capture:=")
