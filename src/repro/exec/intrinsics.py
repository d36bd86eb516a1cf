"""Intrinsic runtime for the parallel-model API surfaces.

Maps every runtime entry point the corpus uses — CUDA/HIP memory+launch,
SYCL queues/buffers/accessors/reductions, Kokkos views and patterns, TBB
ranges and algorithms, C++ StdPar algorithms, OpenMP runtime queries, and
libm — onto serial Python semantics. User code (kernels, lambdas, loop
bodies) is always interpreted, so coverage reflects real execution of the
*codebase*; only the runtime layers are intrinsic, exactly as a real
coverage run never instruments ``libcudart``.

Registration is name-based with qualified-name preference, so corpus
headers can declare the API (for ``T_sem``) while execution lands here.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro import obs
from repro.exec.values import Buffer, Cell, Pointer, StructVal
from repro.util.errors import InterpreterError

# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

_FUNCTIONS: dict[str, Callable] = {}
_CTORS: dict[str, Callable] = {}
_METHODS: dict[tuple[str, str], Callable] = {}
_CONSTANTS: dict[str, Any] = {}
#: special forms: receive (interp, env, template_args, arg_exprs) unevaluated
#: — needed by APIs with reference out-parameters (Kokkos reductions).
_SPECIALS: dict[str, Callable] = {}


def _short(name: str) -> str:
    return name.rsplit("::", 1)[-1]


def function(name: str) -> Optional[Callable]:
    f = _FUNCTIONS.get(name)
    if f is not None:
        return f
    return _FUNCTIONS.get(_short(name))


def ctor(name: str) -> Optional[Callable]:
    c = _CTORS.get(name)
    if c is not None:
        return c
    return _CTORS.get(_short(name))


def method(class_name: str, member: str) -> Optional[Callable]:
    m = _METHODS.get((class_name, member))
    if m is not None:
        return m
    return _METHODS.get((_short(class_name), member))


def constant(name: str) -> Optional[Any]:
    return _CONSTANTS.get(name, _CONSTANTS.get(_short(name)))


def special(name: str) -> Optional[Callable]:
    s = _SPECIALS.get(name)
    if s is not None:
        return s
    return _SPECIALS.get(_short(name))


def register_function(name: str):
    def deco(fn):
        _FUNCTIONS[name] = fn
        return fn

    return deco


def register_ctor(name: str):
    def deco(fn):
        _CTORS[name] = fn
        return fn

    return deco


def register_method(class_name: str, member: str):
    def deco(fn):
        _METHODS[(class_name, member)] = fn
        return fn

    return deco


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _as_ptr(v: Any) -> Pointer:
    if isinstance(v, Pointer):
        return v
    if isinstance(v, StructVal) and "ptr" in v.payload:
        return v.payload["ptr"]
    raise InterpreterError(f"expected pointer, got {type(v).__name__}")


def _elems(nbytes: Any) -> int:
    """Byte counts arrive as n * sizeof(T) with sizeof == 8."""
    return int(nbytes) // 8


def _invoke(interp, f: Any, args: list[Any]) -> Any:
    return interp.call_value(f, args)


# ---------------------------------------------------------------------------
# libm / libc / OpenMP runtime
# ---------------------------------------------------------------------------

for _name, _fn in {
    "sqrt": math.sqrt,
    "fabs": abs,
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "pow": math.pow,
    "sin": math.sin,
    "cos": math.cos,
    "floor": math.floor,
    "ceil": math.ceil,
}.items():
    _FUNCTIONS[_name] = (lambda f: lambda interp, targs, args: f(*[float(a) for a in args]))(_fn)

_FUNCTIONS["fmin"] = lambda interp, targs, args: min(args)
_FUNCTIONS["fmax"] = lambda interp, targs, args: max(args)
_FUNCTIONS["std::min"] = lambda interp, targs, args: min(args)
_FUNCTIONS["std::max"] = lambda interp, targs, args: max(args)


@register_function("printf")
def _printf(interp, targs, args):
    fmt = str(args[0]) if args else ""
    text = fmt.replace("%d", "{}").replace("%f", "{}").replace("%g", "{}").replace("%s", "{}").replace("%e", "{}").replace("\\n", "\n")
    try:
        interp.stdout.append(text.format(*args[1:]))
    except (IndexError, KeyError, ValueError):
        # Format/argument mismatch in corpus code: keep the raw format
        # string in the transcript and count the degradation.
        obs.add("exec.printf.format_errors")
        interp.stdout.append(fmt)
    return len(args)


@register_function("fprintf")
def _fprintf(interp, targs, args):
    return _printf(interp, targs, args[1:])


@register_function("exit")
def _exit(interp, targs, args):
    raise InterpreterError(f"program called exit({args[0] if args else 0})")


_FUNCTIONS["omp_get_num_threads"] = lambda interp, targs, args: 1
_FUNCTIONS["omp_get_max_threads"] = lambda interp, targs, args: 1
_FUNCTIONS["omp_get_thread_num"] = lambda interp, targs, args: 0
_FUNCTIONS["omp_get_wtime"] = lambda interp, targs, args: float(interp.steps) * 1e-9

_CONSTANTS["std::execution::par_unseq"] = "par_unseq"
_CONSTANTS["std::execution::par"] = "par"
_CONSTANTS["std::execution::seq"] = "seq"
_CONSTANTS["cudaMemcpyHostToDevice"] = 1
_CONSTANTS["cudaMemcpyDeviceToHost"] = 2
_CONSTANTS["hipMemcpyHostToDevice"] = 1
_CONSTANTS["hipMemcpyDeviceToHost"] = 2
_CONSTANTS["cudaSuccess"] = 0
_CONSTANTS["hipSuccess"] = 0
_CONSTANTS["read_only"] = 1
_CONSTANTS["write_only"] = 2
_CONSTANTS["read_write"] = 3
_CONSTANTS["sycl::read_only"] = 1
_CONSTANTS["sycl::write_only"] = 2
_CONSTANTS["sycl::read_write"] = 3

# ---------------------------------------------------------------------------
# CUDA / HIP runtime
# ---------------------------------------------------------------------------


def _gpu_malloc(interp, targs, args):
    cell, nbytes = args[0], args[1]
    if not isinstance(cell, Cell):
        raise InterpreterError("cudaMalloc needs &pointer")
    cell.value = Pointer(Buffer(_elems(nbytes), label="device"))
    return 0


def _gpu_memcpy(interp, targs, args):
    dst = _as_ptr(args[0])
    src = _as_ptr(args[1])
    n = _elems(args[2])
    for i in range(n):
        dst.store(i, src.load(i))
    return 0


_FUNCTIONS["cudaMalloc"] = _gpu_malloc
_FUNCTIONS["hipMalloc"] = _gpu_malloc
_FUNCTIONS["cudaMemcpy"] = _gpu_memcpy
_FUNCTIONS["hipMemcpy"] = _gpu_memcpy
_FUNCTIONS["cudaFree"] = lambda interp, targs, args: 0
_FUNCTIONS["hipFree"] = lambda interp, targs, args: 0
_FUNCTIONS["cudaDeviceSynchronize"] = lambda interp, targs, args: 0
_FUNCTIONS["hipDeviceSynchronize"] = lambda interp, targs, args: 0
_FUNCTIONS["cudaMallocManaged"] = _gpu_malloc
_FUNCTIONS["hipMallocManaged"] = _gpu_malloc


@register_function("hipLaunchKernelGGL")
def _hip_launch(interp, targs, args):
    """HIP's macro-style launch: (kernel, grid, block, shmem, stream, ...)."""
    kernel = args[0]
    grid = int(args[1])
    block = int(args[2])
    kargs = args[5:]
    from repro.exec.values import Environment

    for b in range(grid):
        for t in range(block):
            kenv = Environment(interp.globals)
            kenv.define("blockIdx", StructVal("dim3", {"x": Cell(b)}))
            kenv.define("threadIdx", StructVal("dim3", {"x": Cell(t)}))
            kenv.define("blockDim", StructVal("dim3", {"x": Cell(block)}))
            kenv.define("gridDim", StructVal("dim3", {"x": Cell(grid)}))
            saved = interp.globals
            interp.globals = kenv
            try:
                interp.call_value(kernel, list(kargs))
            finally:
                interp.globals = saved
    return 0


@register_ctor("dim3")
def _dim3(interp, targs, args):
    return int(args[0]) if args else 1


# ---------------------------------------------------------------------------
# SYCL
# ---------------------------------------------------------------------------


@register_ctor("sycl::queue")
def _sycl_queue(interp, targs, args):
    return StructVal("sycl::queue")


@register_ctor("sycl::range")
def _sycl_range(interp, targs, args):
    size = int(args[0]) if args else 0
    return StructVal("sycl::range", payload={"size": size})


@register_ctor("sycl::id")
def _sycl_id(interp, targs, args):
    return StructVal("sycl::id", payload={"index": int(args[0]) if args else 0})


@register_ctor("sycl::buffer")
def _sycl_buffer(interp, targs, args):
    host = _as_ptr(args[0])
    size = args[1].payload["size"] if len(args) > 1 and isinstance(args[1], StructVal) else len(host.buffer)
    return StructVal("sycl::buffer", payload={"ptr": host, "size": size})


@register_ctor("sycl::accessor")
def _sycl_accessor(interp, targs, args):
    buf = args[0]
    if not (isinstance(buf, StructVal) and "ptr" in buf.payload):
        raise InterpreterError("accessor over non-buffer")
    return StructVal("sycl::accessor", payload={"ptr": buf.payload["ptr"], "size": buf.payload.get("size", 0)})


@register_ctor("sycl::reduction")
def _sycl_reduction(interp, targs, args):
    target = args[0]
    return StructVal("sycl::reduction", payload={"target": target})


@register_ctor("sycl::plus")
def _sycl_plus(interp, targs, args):
    return StructVal("sycl::plus", payload={"fn": lambda a, b: a + b})


@register_function("sycl::malloc_shared")
def _sycl_malloc_shared(interp, targs, args):
    n = int(args[0])
    return Pointer(Buffer(n, label="usm"))


@register_function("sycl::malloc_device")
def _sycl_malloc_device(interp, targs, args):
    return _sycl_malloc_shared(interp, targs, args)


@register_function("sycl::free")
def _sycl_free(interp, targs, args):
    return None


def _iterate_kernel(interp, size: int, fn: Any, reduction: Optional[StructVal] = None):
    if reduction is not None:
        acc = Cell(0.0)
        for i in range(size):
            idx = StructVal("sycl::id", payload={"index": i})
            interp.call_value(fn, [idx, acc])
        target = reduction.payload["target"]
        if isinstance(target, Pointer):
            target.store(0, target.load(0) + acc.value)
        elif isinstance(target, Cell):
            target.value = target.value + acc.value
        return None
    for i in range(size):
        idx = StructVal("sycl::id", payload={"index": i})
        interp.call_value(fn, [idx])
    return None


def _range_size(v: Any) -> int:
    if isinstance(v, StructVal) and "size" in v.payload:
        return int(v.payload["size"])
    return int(v)


@register_method("sycl::queue", "parallel_for")
def _q_parallel_for(interp, self_val, args):
    rng = _range_size(args[0])
    if len(args) == 3:
        return _iterate_kernel(interp, rng, args[2], reduction=args[1])
    return _iterate_kernel(interp, rng, args[1])


@register_method("sycl::handler", "parallel_for")
def _h_parallel_for(interp, self_val, args):
    return _q_parallel_for(interp, self_val, args)


@register_method("sycl::queue", "single_task")
def _q_single_task(interp, self_val, args):
    return interp.call_value(args[0], [])


@register_method("sycl::handler", "single_task")
def _h_single_task(interp, self_val, args):
    return interp.call_value(args[0], [])


@register_method("sycl::queue", "submit")
def _q_submit(interp, self_val, args):
    handler = StructVal("sycl::handler")
    interp.call_value(args[0], [handler])
    return self_val


@register_method("sycl::queue", "wait")
def _q_wait(interp, self_val, args):
    return self_val


@register_method("sycl::queue", "wait_and_throw")
def _q_wait_throw(interp, self_val, args):
    return self_val


@register_method("sycl::queue", "memcpy")
def _q_memcpy(interp, self_val, args):
    dst = _as_ptr(args[0])
    src = _as_ptr(args[1])
    for i in range(_elems(args[2])):
        dst.store(i, src.load(i))
    return self_val


@register_method("sycl::id", "get")
def _id_get(interp, self_val, args):
    return self_val.payload.get("index", 0)


@register_method("sycl::range", "size")
def _range_size_m(interp, self_val, args):
    return self_val.payload.get("size", 0)


@register_method("sycl::buffer", "get_access")
def _buf_get_access(interp, self_val, args):
    return StructVal("sycl::accessor", payload=dict(self_val.payload))


@register_method("sycl::accessor", "operator()")
def _acc_call(interp, self_val, args):
    ptr: Pointer = self_val.payload["ptr"]
    return ptr.load(int(args[0]))


# ---------------------------------------------------------------------------
# Kokkos
# ---------------------------------------------------------------------------

_FUNCTIONS["Kokkos::initialize"] = lambda interp, targs, args: None
_FUNCTIONS["Kokkos::finalize"] = lambda interp, targs, args: None
_FUNCTIONS["Kokkos::fence"] = lambda interp, targs, args: None


@register_ctor("Kokkos::View")
def _kokkos_view(interp, targs, args):
    label = str(args[0]) if args else ""
    dims = [int(a) for a in args[1:]] or [0]
    total = 1
    for d in dims:
        total *= max(d, 1)
    return StructVal(
        "Kokkos::View", payload={"ptr": Pointer(Buffer(total, label=label)), "dims": dims}
    )


@register_method("Kokkos::View", "operator()")
def _view_call(interp, self_val, args):
    ptr: Pointer = self_val.payload["ptr"]
    flat = interp._flatten_index(self_val, args)
    return ptr.load(flat)


@register_method("Kokkos::View", "size")
def _view_size(interp, self_val, args):
    return len(self_val.payload["ptr"].buffer)


@register_function("Kokkos::parallel_for")
def _kokkos_parallel_for(interp, targs, args):
    # (label, n, lambda) or (n, lambda)
    if isinstance(args[0], str):
        n, fn = int(args[1]), args[2]
    else:
        n, fn = int(args[0]), args[1]
    for i in range(n):
        _invoke(interp, fn, [i])
    return None


def _kokkos_parallel_reduce(interp, env, targs, arg_exprs):
    # (label, n, lambda(i, acc&), result&) or (n, lambda, result&) — the
    # trailing result is a reference out-parameter, so this is a special
    # form that takes the argument expressions unevaluated.
    vals = [interp.eval_expr(a, env) for a in arg_exprs[:-1]]
    result = interp._lvalue_cell(arg_exprs[-1], env)
    if isinstance(vals[0], str):
        n, fn = int(vals[1]), vals[2]
    else:
        n, fn = int(vals[0]), vals[1]
    acc = Cell(0.0)
    for i in range(n):
        _invoke(interp, fn, [i, acc])
    if isinstance(result, Cell):
        result.value = acc.value
    elif isinstance(result, Pointer):
        result.store(0, acc.value)
    return None


_SPECIALS["Kokkos::parallel_reduce"] = _kokkos_parallel_reduce


# ---------------------------------------------------------------------------
# TBB
# ---------------------------------------------------------------------------


@register_ctor("tbb::blocked_range")
def _tbb_blocked_range(interp, targs, args):
    return StructVal(
        "tbb::blocked_range", payload={"begin": int(args[0]), "end": int(args[1])}
    )


@register_method("tbb::blocked_range", "begin")
def _tbb_begin(interp, self_val, args):
    return self_val.payload["begin"]


@register_method("tbb::blocked_range", "end")
def _tbb_end(interp, self_val, args):
    return self_val.payload["end"]


@register_function("tbb::parallel_for")
def _tbb_parallel_for(interp, targs, args):
    first = args[0]
    if isinstance(first, StructVal) and first.class_name.endswith("blocked_range"):
        # (range, lambda(range&)) — single chunk, serial
        return _invoke(interp, args[1], [first])
    # (first, last, lambda(i))
    lo, hi, fn = int(args[0]), int(args[1]), args[2]
    for i in range(lo, hi):
        _invoke(interp, fn, [i])
    return None


@register_function("tbb::parallel_reduce")
def _tbb_parallel_reduce(interp, targs, args):
    # (range, init, lambda(range, running)->value, combiner)
    rng, init, body = args[0], args[1], args[2]
    return _invoke(interp, body, [rng, init])


# ---------------------------------------------------------------------------
# C++ standard algorithms (StdPar)
# ---------------------------------------------------------------------------


def _strip_policy(args: list[Any]) -> list[Any]:
    if args and isinstance(args[0], str) and args[0] in ("par", "par_unseq", "seq"):
        return args[1:]
    return args


@register_function("std::fill")
def _std_fill(interp, targs, args):
    a = _strip_policy(args)
    first, last, value = _as_ptr(a[0]), _as_ptr(a[1]), a[2]
    for i in range(last.offset - first.offset):
        first.store(i, value)
    return None


@register_function("std::copy")
def _std_copy(interp, targs, args):
    a = _strip_policy(args)
    first, last, out = _as_ptr(a[0]), _as_ptr(a[1]), _as_ptr(a[2])
    for i in range(last.offset - first.offset):
        out.store(i, first.load(i))
    return None


@register_function("std::for_each")
def _std_for_each(interp, targs, args):
    a = _strip_policy(args)
    first, last, fn = a[0], a[1], a[2]
    if isinstance(first, Pointer):
        for i in range(_as_ptr(last).offset - first.offset):
            _invoke(interp, fn, [first.load(i)])
        return None
    # counting form: integers
    for i in range(int(first), int(last)):
        _invoke(interp, fn, [i])
    return None


@register_function("std::for_each_n")
def _std_for_each_n(interp, targs, args):
    a = _strip_policy(args)
    first, n, fn = a[0], int(a[1]), a[2]
    if isinstance(first, Pointer):
        for i in range(n):
            _invoke(interp, fn, [first.load(i)])
    else:
        for i in range(int(first), int(first) + n):
            _invoke(interp, fn, [i])
    return None


@register_function("std::transform")
def _std_transform(interp, targs, args):
    a = _strip_policy(args)
    if len(a) == 4:
        first, last, out, fn = _as_ptr(a[0]), _as_ptr(a[1]), _as_ptr(a[2]), a[3]
        for i in range(last.offset - first.offset):
            out.store(i, _invoke(interp, fn, [first.load(i)]))
        return None
    first, last, second, out, fn = _as_ptr(a[0]), _as_ptr(a[1]), _as_ptr(a[2]), _as_ptr(a[3]), a[4]
    for i in range(last.offset - first.offset):
        out.store(i, _invoke(interp, fn, [first.load(i), second.load(i)]))
    return None


@register_function("std::reduce")
def _std_reduce(interp, targs, args):
    a = _strip_policy(args)
    first, last = _as_ptr(a[0]), _as_ptr(a[1])
    init = a[2] if len(a) > 2 else 0.0
    acc = init
    for i in range(last.offset - first.offset):
        acc = acc + first.load(i)
    return acc


@register_function("std::transform_reduce")
def _std_transform_reduce(interp, targs, args):
    a = _strip_policy(args)
    # (first1, last1, first2, init) — inner product form
    if len(a) >= 4 and isinstance(a[2], Pointer):
        first, last, second, init = _as_ptr(a[0]), _as_ptr(a[1]), _as_ptr(a[2]), a[3]
        acc = init
        for i in range(last.offset - first.offset):
            acc = acc + first.load(i) * second.load(i)
        return acc
    # (first, last, init, reduce_op, transform_op)
    first, last, init = _as_ptr(a[0]), _as_ptr(a[1]), a[2]
    fn = a[4] if len(a) > 4 else None
    acc = init
    for i in range(last.offset - first.offset):
        v = first.load(i)
        acc = acc + (_invoke(interp, fn, [v]) if fn is not None else v)
    return acc


@register_ctor("std::plus")
def _std_plus(interp, targs, args):
    return StructVal("std::plus", payload={"fn": lambda a, b: a + b})


@register_ctor("std::multiplies")
def _std_multiplies(interp, targs, args):
    return StructVal("std::multiplies", payload={"fn": lambda a, b: a * b})
