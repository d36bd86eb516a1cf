"""MiniC++ — a from-scratch C++-subset frontend.

Pipeline (mirrors Fig. 3 of the paper):

``preprocessor`` (lexes each file once with ``lexer``, which splits every
directive line into its name and body tokens, and returns every file's
raw token stream, trivia preserved, for SLOC and ``T_src`` pre via
:func:`src_tree`; includes, macros, conditionals; OpenMP pragmas survive;
``T_src`` post) → ``parser`` → AST → ``sema``
(symbol resolution, template instantiation, implicit nodes) → ``T_sem`` via
:func:`ast_to_tree`.

The supported subset covers everything the mini-app corpus uses: functions,
classes/structs with methods, namespaces, templates (declarations plus
call-site instantiation), lambdas, pointers/references, control flow,
OpenMP/OpenACC pragmas as first-class statements, and the CUDA/HIP dialect
(``__global__``, ``<<<...>>>`` launches).
"""

from repro.lang.cpp.lexer import lex, Token, TokenType
from repro.lang.cpp.preprocessor import preprocess, PreprocessResult
from repro.lang.cpp.parser import parse_tokens, parse_unit
from repro.lang.cpp.cst import src_tree
from repro.lang.cpp.sema import analyze, SemaResult
from repro.lang.cpp.asttree import ast_to_tree

__all__ = [
    "lex",
    "Token",
    "TokenType",
    "preprocess",
    "PreprocessResult",
    "parse_tokens",
    "parse_unit",
    "src_tree",
    "analyze",
    "SemaResult",
    "ast_to_tree",
]
