"""MiniFortran — a from-scratch free-form Fortran-subset frontend.

Covers the BabelStream-Fortran feature set of the paper's §V-B: programs,
modules, subroutines/functions, declarations with attributes, ``do`` /
``do concurrent`` loops, whole-array and array-section assignment,
``allocate``/``deallocate``, and — crucially — OpenMP/OpenACC directives
that live in ``!$omp`` / ``!$acc`` sentinel comments yet carry semantics
("languages that use special comment tokens for directives are also
handled", §III-C).

``T_sem`` labels use an ``ft-`` prefix so Fortran semantic trees are *not*
comparable with MiniC++ trees — mirroring the paper's observation that
GIMPLE and ClangAST cannot be meaningfully compared across compilers.
"""

from repro.lang.fortran.lexer import lex_fortran, FtToken, FtTokenType
from repro.lang.fortran.parser import parse_fortran
from repro.lang.fortran.asttree import fortran_to_tree
from repro.lang.fortran.cst import fortran_src_tree
from repro.lang.fortran.lower import lower_fortran

__all__ = [
    "lex_fortran",
    "FtToken",
    "FtTokenType",
    "parse_fortran",
    "fortran_to_tree",
    "fortran_src_tree",
    "lower_fortran",
]
