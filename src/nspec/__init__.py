"""Needed narrowing and partial evaluation for inductively sequential
term rewriting systems."""

from .terms import (
    Symbol,
    Var,
    App,
    Term,
    Substitution,
    FreshVars,
    Succ,
    Fail,
    Demand,
    compose,
    unify,
    match,
    variant_key,
    linear_unify,
    canonical_rename,
    subterms,
    subterm_at,
    replace_at,
    vars_of,
)
from .program import (
    Rule,
    Signature,
    Program,
    ProgramError,
    Overlap,
    ValidationReport,
    validate,
    add_strict_equality,
    EQ,
    AND,
)
from .syntax import ParseError, parse_program, parse_term, print_program
from .deftree import (
    Leaf,
    Branch,
    DefTree,
    ProgramClassError,
    ISReport,
    build_tree,
    is_inductively_sequential,
    uniform_transform,
)
from .narrowing import (
    Step,
    Node,
    Bounds,
    SearchResult,
    nns,
    lns,
    narrow,
    rewrite_normalize,
    search,
    node_to_dict,
)
from .peval import (
    UnfoldPolicy,
    Resultant,
    PEReport,
    PEResult,
    PEControlError,
    PEControlResult,
    embeds,
    msg,
    unfold,
    resultants,
    closed,
    independent_renaming,
    rename_term,
    outermost_operation_subterms,
    partial_evaluate,
    abstract_add,
    pe_control,
)
from .oracle import (
    ground_terms,
    one_step_rewrites,
    rewrites_to,
    ground_solutions,
    independent,
)

__version__ = "0.1.0"

__all__ = [
    "Symbol", "Var", "App", "Term", "Substitution", "FreshVars",
    "Succ", "Fail", "Demand", "compose", "unify", "match",
    "variant_key", "linear_unify", "canonical_rename",
    "subterms", "subterm_at", "replace_at", "vars_of",
    "Rule", "Signature", "Program", "ProgramError", "Overlap",
    "ValidationReport", "validate", "add_strict_equality", "EQ", "AND",
    "ParseError", "parse_program", "parse_term", "print_program",
    "Leaf", "Branch", "DefTree", "ProgramClassError", "ISReport",
    "build_tree", "is_inductively_sequential", "uniform_transform",
    "Step", "Node", "Bounds", "SearchResult", "nns", "lns", "narrow",
    "rewrite_normalize", "search", "node_to_dict",
    "UnfoldPolicy", "Resultant", "PEReport", "PEResult",
    "PEControlError", "PEControlResult", "embeds", "msg", "unfold",
    "resultants", "closed", "independent_renaming",
    "rename_term", "outermost_operation_subterms", "partial_evaluate",
    "abstract_add", "pe_control",
    "ground_terms", "one_step_rewrites", "rewrites_to", "ground_solutions",
    "independent",
    "__version__",
]
