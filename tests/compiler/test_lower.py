"""AST → MiniIR lowering tests."""

from repro.compiler import CompileOptions, bundle_to_tree, lower_unit
from repro.lang.cpp.parser import parse_unit
from repro.lang.cpp.sema import analyze
from repro.lang.source import VirtualFS


def lower(text, dialect="host", openmp=False):
    fs = VirtualFS()
    fs.add("main.cpp", text)
    tu = parse_unit(fs, "main.cpp")
    return lower_unit(tu, analyze(tu), CompileOptions(dialect=dialect, openmp=openmp, name="t"))


def ops(fn):
    return [i.op for b in fn.blocks for i in b.instrs]


class TestControlFlow:
    def test_if_creates_blocks(self):
        res = lower("int f(int x) {\nif (x) { return 1; }\nreturn 0;\n}")
        f = res.host.function("f")
        assert len(f.blocks) >= 3
        assert "condbr" in ops(f)

    def test_for_loop_blocks(self):
        res = lower("void f(int n) {\nfor (int i = 0; i < n; i++) { }\n}")
        f = res.host.function("f")
        labels = [b.label for b in f.blocks]
        assert any("for.cond" in lab for lab in labels)
        assert any("for.body" in lab for lab in labels)
        assert any("for.inc" in lab for lab in labels)

    def test_while_loop(self):
        res = lower("void f(int n) {\nwhile (n) { n = n - 1; }\n}")
        assert "condbr" in ops(res.host.function("f"))

    def test_break_branches_to_exit(self):
        res = lower("void f() {\nfor (;;) { break; }\n}")
        f = res.host.function("f")
        brs = [i for b in f.blocks for i in b.instrs if i.op == "br"]
        assert any("for.end" in i.operands[0] for i in brs)

    def test_all_blocks_terminated(self):
        res = lower(
            "int f(int x) {\nif (x > 0) { return 1; } else { return 2; }\n}"
        )
        for b in res.host.function("f").blocks:
            assert b.terminated or not b.instrs

    def test_ternary_select(self):
        res = lower("int f(int c) { return c ? 1 : 2; }")
        assert "select" in ops(res.host.function("f"))


class TestMemoryOps:
    def test_locals_allocated(self):
        res = lower("void f() {\ndouble x = 1.0;\n}")
        o = ops(res.host.function("f"))
        assert "alloca" in o and "store" in o

    def test_subscript_gep_load(self):
        res = lower("double f(double* a, int i) { return a[i]; }")
        o = ops(res.host.function("f"))
        assert "gep" in o and "load" in o

    def test_compound_assign_load_modify_store(self):
        res = lower("void f(double* a, int i) {\na[i] += 1.0;\n}")
        o = ops(res.host.function("f"))
        assert o.count("load") >= 1 and "add" in o and "store" in o

    def test_new_delete_runtime_calls(self):
        res = lower("void f() {\ndouble* p = new double[8];\ndelete[] p;\n}")
        names = [f.name for f in res.host.functions]
        assert "_Znam" in names and "_ZdaPv" in names


class TestOpenMP:
    OMP = "void f(double* a, int n) {\n#pragma omp parallel for reduction(+:s)\nfor (int i = 0; i < n; i++) { a[i] = 0; }\n}"

    def test_region_outlined(self):
        res = lower(self.OMP, openmp=True)
        assert any("omp_outlined" in f.name for f in res.host.functions)

    def test_fork_call_emitted(self):
        res = lower(self.OMP, openmp=True)
        assert "__kmpc_fork_call" in [f.name for f in res.host.functions]
        f = res.host.function("f")
        calls = [i for b in f.blocks for i in b.instrs if i.op == "call"]
        assert any("__kmpc_fork_call" in i.operands[0] for i in calls)

    def test_reduction_runtime_call(self):
        res = lower(self.OMP, openmp=True)
        assert "__kmpc_reduce_nowait" in [f.name for f in res.host.functions]

    def test_outlined_body_contains_loop(self):
        res = lower(self.OMP, openmp=True)
        outlined = [f for f in res.host.functions if "omp_outlined" in f.name][0]
        assert "condbr" in ops(outlined)

    def test_no_device_module_for_host_omp(self):
        res = lower(self.OMP, openmp=True)
        assert not res.devices


class TestOffload:
    TARGET = (
        "void f(double* a, int n) {\n"
        "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
        "for (int i = 0; i < n; i++) { a[i] = 0; }\n}"
    )
    CUDA = (
        "__global__ void k(double* a) { a[threadIdx.x] = 1.0; }\n"
        "void f(double* a) {\nk<<<1, 8>>>(a);\n}"
    )

    def test_omp_target_device_module(self):
        res = lower(self.TARGET, openmp=True)
        assert len(res.devices) == 1
        dev = res.devices[0]
        assert dev.target == "device:omp"
        assert any("__omp_offloading" in f.name for f in dev.functions)

    def test_omp_target_host_runtime_calls(self):
        res = lower(self.TARGET, openmp=True)
        names = [f.name for f in res.host.functions]
        assert "__tgt_target_kernel" in names
        assert "__tgt_target_data_begin" in names

    def test_cuda_kernel_in_device_module(self):
        res = lower(self.CUDA, dialect="cuda")
        dev = res.devices[0]
        k = dev.function("k")
        assert k is not None and "kernel" in k.attrs

    def test_cuda_host_stub(self):
        res = lower(self.CUDA, dialect="cuda")
        assert res.host.function("__device_stub__k") is not None

    def test_cuda_driver_noise(self):
        """§V-C: 'multiple layers of driver code that is unrelated to the
        core algorithm' pollute offload IR."""
        res = lower(self.CUDA, dialect="cuda")
        dev = res.devices[0]
        names = [f.name for f in dev.functions]
        assert "__cuda_module_ctor" in names
        assert "__cuda_register_globals" in names
        assert any(g.kind == "fatbin" for g in dev.globals)

    def test_hip_driver_noise(self):
        res = lower(self.CUDA.replace("cuda", "hip"), dialect="hip")
        dev = res.devices[0]
        assert any("hip" in f.name for f in dev.functions)

    def test_sycl_launch_outlines_device_kernel(self):
        code = (
            "namespace sycl { class queue { public:\n"
            "queue();\n"
            "template <typename K, typename R, typename F> void parallel_for(R r, F f);\n"
            "}; }\n"
            "void f(double* a) {\n"
            "sycl::queue q;\n"
            "q.parallel_for<class k1>(8, [=](int i) { a[i] = 0.0; });\n"
            "}"
        )
        res = lower(code, dialect="sycl")
        assert res.devices
        assert any("_ZTSZ_kernel" in f.name for f in res.devices[0].functions)
        host_names = [f.name for f in res.host.functions]
        assert "piEnqueueKernelLaunch" in host_names


class TestBundleTree:
    def test_host_only_tree(self):
        res = lower("int f() { return 0; }")
        t = bundle_to_tree(res)
        assert t.label == "module:host"

    def test_bundle_tree_has_device_children(self):
        res = lower(TestOffload.CUDA, dialect="cuda")
        t = bundle_to_tree(res)
        assert t.label == "offload-bundle"
        assert any(n.label == "module:device:cuda" for n in t.children)

    def test_symbol_names_dropped_from_labels(self):
        # §IV-A: "discard all symbol names but retain instruction names"
        res = lower("int compute_something(int x) { return x + 1; }")
        t = bundle_to_tree(res)
        labels = {n.label for n in t.preorder()}
        assert "compute_something" not in labels
        assert "function" in labels and "add" in labels

    def test_instr_spans_preserved(self):
        res = lower("int f() {\nreturn 1 + 2;\n}")
        t = bundle_to_tree(res)
        spanned = [n for n in t.preorder() if n.span is not None]
        assert spanned


class TestRender:
    def test_render_smoke(self):
        m = lower("int f() { return 1; }").host
        text = m.render()
        assert "define @f()" in text and "ret" in text
