"""Per-file symbol model for srlint (DESIGN.md §13).

Each linted file gets a FileModel carrying its token stream, preprocessor
directives, comment list, and a small symbol table: the set of identifiers
declared with an unordered container type (``std::unordered_map`` /
``std::unordered_set``, their multi variants, and ``net::FlatMap``), either
directly or through a ``using X = std::unordered_...`` alias. Rule R10
consumes that table.

When linting ``X.cc``/``X.cpp``, the companion header ``X.h``/``X.hpp`` in
the same directory is lexed too and its declarations merged in — a member
declared in the header and iterated in the .cc is still recognized. Aliases
contaminate nothing: only the *declared variable names* enter the table, so
``membership_.at(vip)`` (a vector lookup on a map member) never matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from lexer import Comment, LexResult, PpDirective, Token, lex

_UNORDERED_TYPES = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
    # net::FlatMap iterates in slot order, which is hash order.
    "FlatMap",
}

_HEADER_SUFFIXES = {".h", ".hpp"}
_IMPL_SUFFIXES = {".cc", ".cpp"}


@dataclass
class FileModel:
    rel: str  # repo-root-relative posix path, e.g. "src/lb/slb.cc"
    path: Path
    lex: LexResult
    unordered_decls: set[str] = field(default_factory=set)

    @property
    def tokens(self) -> list[Token]:
        return self.lex.tokens

    @property
    def comments(self) -> list[Comment]:
        return self.lex.comments

    @property
    def directives(self) -> list[PpDirective]:
        return self.lex.directives

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(self.rel.split("/"))

    @property
    def top(self) -> str:
        return self.parts[0]

    @property
    def is_header(self) -> bool:
        return self.path.suffix in _HEADER_SUFFIXES


def build_model(root: Path, path: Path) -> FileModel:
    rel = path.relative_to(root).as_posix()
    result = lex(path.read_text(encoding="utf-8"))
    model = FileModel(rel=rel, path=path, lex=result)
    model.unordered_decls = _collect_unordered_decls(result.tokens)
    if path.suffix in _IMPL_SUFFIXES:
        for suffix in _HEADER_SUFFIXES:
            companion = path.with_suffix(suffix)
            if companion.is_file():
                companion_lex = lex(companion.read_text(encoding="utf-8"))
                model.unordered_decls |= _collect_unordered_decls(
                    companion_lex.tokens
                )
    return model


def _collect_unordered_decls(tokens: list[Token]) -> set[str]:
    """Identifiers declared with an unordered container type (directly or via
    a ``using`` alias declared in the same token stream)."""
    aliases = _collect_aliases(tokens)
    names: set[str] = set()
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "ident" and t.value in _UNORDERED_TYPES:
            close = _match_angles(tokens, i + 1)
            if close is not None:
                names |= _declarator_names(tokens, close + 1)
                i = close + 1
                continue
        if t.kind == "ident" and t.value in aliases:
            # `DipSet have;`, `DipSet& want = ...` — alias used as a type.
            names |= _declarator_names(tokens, i + 1)
        i += 1
    return names


def _collect_aliases(tokens: list[Token]) -> set[str]:
    """Names from `using X = ...unordered_map<...>...;` declarations."""
    aliases: set[str] = set()
    for i, t in enumerate(tokens):
        if (
            t.kind == "ident"
            and t.value == "using"
            and i + 2 < len(tokens)
            and tokens[i + 1].kind == "ident"
            and tokens[i + 2].value == "="
        ):
            j = i + 3
            while j < len(tokens) and tokens[j].value != ";":
                if (
                    tokens[j].kind == "ident"
                    and tokens[j].value in _UNORDERED_TYPES
                ):
                    aliases.add(tokens[i + 1].value)
                    break
                j += 1
    return aliases


def _match_angles(tokens: list[Token], i: int) -> int | None:
    """If tokens[i] is '<', returns the index of its matching '>'. Bails on
    anything that makes this look like a comparison rather than a template
    argument list."""
    if i >= len(tokens) or tokens[i].value != "<":
        return None
    depth = 0
    while i < len(tokens):
        v = tokens[i].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return i
        elif v in (";", "{", "}") or tokens[i].kind in ("string", "char"):
            return None
        i += 1
    return None


def _declarator_names(tokens: list[Token], i: int) -> set[str]:
    """Variable names following a type, up to the end of the declaration.
    Handles `name;`, `name = ...`, `name{...}`, `a, b;`, references and
    pointers, and trailing annotation macros (`name SR_GUARDED_BY(mu_);`).
    Returns nothing when the next tokens do not look like a declarator
    (e.g. `unordered_map<K,V>::iterator` or a closing `>` of an enclosing
    template argument list)."""
    names: set[str] = set()
    expect_name = True
    pending: str | None = None
    while i < len(tokens):
        t = tokens[i]
        v = t.value
        if v in ("&", "*", "const"):
            i += 1
            continue
        if t.kind == "ident":
            if not expect_name:
                # `name SR_GUARDED_BY(...)` / `name ;` — an identifier right
                # after a captured name is an annotation macro; skip its
                # argument list if present.
                if i + 1 < len(tokens) and tokens[i + 1].value == "(":
                    i = _skip_parens(tokens, i + 1)
                    continue
                break
            pending = v
            expect_name = False
            i += 1
            continue
        if v in (";",):
            if pending:
                names.add(pending)
            break
        if v in ("=", "{"):
            if pending:
                names.add(pending)
            # Initializer: the declaration continues but further declarators
            # after a brace/assign initializer are rare; stop conservatively.
            break
        if v == ",":
            if pending:
                names.add(pending)
            pending = None
            expect_name = True
            i += 1
            continue
        if v == "(":
            # `)` of a function signature or a constructor call — treat the
            # pending identifier as a name only for `name(...)` initializers
            # at statement scope; too ambiguous, stop without capturing.
            break
        # `::`, `>`, `)` etc. — not a declarator context.
        break
    return names


def _skip_parens(tokens: list[Token], i: int) -> int:
    """tokens[i] == '(' — returns the index just past its matching ')'."""
    depth = 0
    while i < len(tokens):
        v = tokens[i].value
        if v == "(":
            depth += 1
        elif v == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i
