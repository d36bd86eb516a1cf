"""Fortran tree extraction (T_src / T_sem / T_ir)."""

from repro.compiler import bundle_to_tree
from repro.lang.fortran import (
    fortran_src_tree,
    fortran_to_tree,
    lex_fortran,
    lower_fortran,
    parse_fortran,
)

OMP_SRC = """
program t
  implicit none
  integer :: i
  real(kind=8) :: s
  real(kind=8), dimension(:), allocatable :: a
  allocate(a(8))
  s = 0.0
  !$omp parallel do reduction(+:s)
  do i = 1, 8
    s = s + a(i)
  end do
  !$omp end parallel do
  deallocate(a)
end program t
"""

ACC_SRC = OMP_SRC.replace("!$omp parallel do reduction(+:s)", "!$acc parallel loop reduction(+:s)").replace(
    "!$omp end parallel do", "!$acc end parallel loop"
)


class TestTsem:
    def test_ft_prefix_namespace(self):
        # Fortran labels must not collide with MiniC++ labels (§IV-B:
        # "cross-compiler comparison is not possible")
        t = fortran_to_tree(parse_fortran(OMP_SRC))
        structural = [n.label for n in t.preorder() if n.label.startswith("ft-")]
        assert len(structural) > 5

    def test_directive_node_with_implicit_semantics(self):
        t = fortran_to_tree(parse_fortran(OMP_SRC))
        assert t.find_labels("ft-omp-parallel-do")
        labels = {n.label for n in t.preorder()}
        assert "thread-team" in labels and "reduction-init" in labels

    def test_acc_has_no_implicit_parallel_tokens(self):
        """§V-B: GCC's OpenACC 'did not introduce extra tokens related to
        parallelism' — acc directives carry only their surface."""
        t = fortran_to_tree(parse_fortran(ACC_SRC))
        labels = {n.label for n in t.preorder()}
        assert "thread-team" not in labels
        assert t.find_labels("ft-acc-parallel-loop")

    def test_do_concurrent_is_parallel_construct(self):
        src = "program p\ninteger :: i\ndo concurrent (i = 1:4)\nend do\nend program p"
        t = fortran_to_tree(parse_fortran(src))
        nodes = t.find_labels("ft-do-concurrent")
        assert nodes and nodes[0].kind == "parallel-construct"

    def test_array_assign_label(self):
        src = "program p\nreal, dimension(:) :: a\na(:) = 1.0\nend program p"
        t = fortran_to_tree(parse_fortran(src))
        assert t.find_labels("ft-array-assign")


class TestTsrc:
    def test_cst_keeps_all_statement_tokens(self):
        t = fortran_src_tree(lex_fortran("program p\nx = 1\nend program p"))
        labels = [n.label for n in t.preorder()]
        assert "program" in labels and "x" in labels

    def test_src_tree_drops_punct(self):
        t = fortran_src_tree(lex_fortran("program p\nx = a(1) + 2 ! note\nend program p"))
        assert not [n for n in t.preorder() if n.kind in ("punct", "trivia")]
        assert t.find_labels("paren-group")

    def test_every_token_line_is_a_statement(self):
        # a line of only a comment or only punctuation keeps its (empty)
        # statement, as the lossless token tree it replaces did
        t = fortran_src_tree(lex_fortran("program p\n! note\n, =\nend program p"))
        stmts = [n for n in t.preorder() if n.label == "stmt"]
        assert len(stmts) == 4
        assert [s.children for s in stmts[1:3]] == [(), ()]

    def test_directive_words_visible(self):
        t = fortran_src_tree(lex_fortran("program p\ninteger :: i\n!$omp parallel do\ndo i = 1, 2\nend do\nend program p"))
        labels = [n.label for n in t.preorder()]
        assert "directive:omp" in labels and "parallel" in labels

    def test_block_nesting(self):
        t = fortran_src_tree(lex_fortran("program p\ninteger :: i\ndo i = 1, 2\ni = i\nend do\nend program p"))
        assert t.find_labels("do-block")


class TestTir:
    def test_host_lowering_has_loop_blocks(self):
        res = lower_fortran(parse_fortran(OMP_SRC))
        t = bundle_to_tree(res)
        labels = [n.label for n in t.preorder()]
        assert "condbr" in labels and "gep" in labels

    def test_omp_outlines_and_forks(self):
        res = lower_fortran(parse_fortran(OMP_SRC))
        fn_names = [f.name for f in res.host.functions]
        assert any("omp_outlined" in n for n in fn_names)
        assert "__kmpc_fork_call" in fn_names

    def test_acc_single_veneer(self):
        # the GOACC veneer wraps an essentially serial region (§V-B)
        res = lower_fortran(parse_fortran(ACC_SRC))
        fn_names = [f.name for f in res.host.functions]
        assert "GOACC_parallel_keyed" in fn_names
        assert not any("kmpc" in n for n in fn_names)

    def test_array_syntax_scalarised(self):
        src = "program p\nreal, dimension(:), allocatable :: a\nallocate(a(8))\na(:) = 1.0\nend program p"
        res = lower_fortran(parse_fortran(src))
        main = res.host.functions[0]
        labels = [i.op for b in main.blocks for i in b.instrs]
        assert "gep" in labels and "condbr" in labels  # elementwise loop

    def test_no_devices_for_host_models(self):
        res = lower_fortran(parse_fortran(OMP_SRC))
        assert res.devices == []

    def test_target_directive_creates_device_module(self):
        src = (
            "program p\ninteger :: i\nreal :: s\n"
            "!$omp target teams distribute parallel do\n"
            "do i = 1, 4\ns = s + 1\nend do\n"
            "end program p"
        )
        res = lower_fortran(parse_fortran(src))
        assert len(res.devices) == 1
        assert res.devices[0].target == "device:omp"
