"""Lexer and parser for the target language's concrete syntax.

Grammar, loosest binding first:

    program  := def* expr
    def      := "def" IDENT "=" expr
    expr     := "\\" IDENT ":" type "." expr
              | "if" expr "then" expr "else" expr
              | "case" expr "of" "(" expr "," "[" IDENT "," IDENT "]" expr ")"
              | "fold" expr "of" "(" expr "," "[" IDENT "," IDENT "," IDENT "]" expr ")"
              | rel
    rel      := cons (("<" | "<=" | "=") cons)?      -- non-associative
    cons     := add ("::" cons)?                     -- right-associative
    add      := mul (("+" | "-") mul)*               -- left-associative
    mul      := app ("*" app)*                       -- left-associative
    app      := atom atom*                           -- juxtaposition
    atom     := INT | "-" INT | IDENT | "true" | "false" | "nil"
              | "[" (expr ("," expr)*)? "]"          -- sugar for cons chains
              | "(" expr ")"
    type     := btype ("->" type)?                   -- right-associative
    btype    := "int" "*"? | "bool" | "(" type ")"

    INT      := [0-9]+                               -- ASCII digits only
    IDENT    := a word, not a keyword, whose first character c has
                c.isalpha() or c == "_", and whose later characters have
                c.isalnum() or c in "_'"

Tokens are separated by spaces, tabs, carriage returns and newlines; any
other character that starts no token is an error.  Lines and columns count
characters from 1, and a tab counts as one column.

"--" starts a comment that runs to end of line (even with no space before it,
so write "x - -3" rather than "x--3").  A leading "-" is part of a literal
only in atom position; in particular "f -3" is the subtraction f - 3, not an
application.  Outside parentheses and brackets,
an application argument must start on the same line as the function
(parenthesize to split across lines); without this, a `def` body would
swallow a following expression that starts with an atom.  `def` names
are resolved as they are read: each use stands for the definition's body,
one node shared by every use.  A definition may use earlier definitions
but not itself, and no other free variable, so every body is closed.  A
`\\x`, a `case`'s `[h, t]` or a `fold`'s `[h, t, w]` binds its names, hiding
a definition of the same name, in its body only.  A name that is neither
bound nor defined is noted as free as it is read, and a body that read one
is an error at the definition's name: no body is walked again, so parsing
is linear in `def` nesting.

A program that parses pays for one regex pass and one loop over its tokens:
`_lex` keeps them as flat lists of kinds, texts and line numbers, and the
parser indexes those lists.  Columns are worked out only when a
`ParseError` is raised, by `_positions`, which scans the text again.
"""

from __future__ import annotations

import re

from .syntax import (
    BOOL,
    INT,
    INT_LIST,
    INT_MAX,
    INT_MIN,
    OPS,
    ArrowTy,
    App,
    BinOp,
    BoolLit,
    Case,
    Cons,
    Expr,
    Fold,
    If,
    IntLit,
    Lam,
    Nil,
    Ty,
    Var,
)

KEYWORDS = frozenset(
    ["if", "then", "else", "case", "fold", "of", "nil", "true", "false", "def", "int", "bool"]
)

# One match per token, after the blanks and a comment, which runs to the end
# of the line.  The one group is the token: INT, a word, a two-character
# symbol, any other character (a newline too), or "" at the end of input.
# "--" is tried before "-".  A word may start with any word character but a
# decimal digit; `_lex` rejects the ones that are not letters, such as "²".
_TOKEN_RE = re.compile(r"[ \t\r]*(?:--[^\n]*)?([0-9]+|[^\W\d][\w']*|->|::|<=|.|\Z)", re.DOTALL)

# Keywords and symbols are their own kind; any other token is a "number"
# (the keyword `int` has kind "int"), an "ident", a newline, the end of
# input or an error.
_KINDS = {tok: tok for tok in [*KEYWORDS, "->", "::", "<=", *"-<=+*()[],.:\\"]}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        # line 0 marks errors with no source position, like unreadable files
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


def _lex(text: str) -> tuple[list[str], list[str], list[int]]:
    """The kind, text and line of every token; the last token is "eof"."""
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    line = 1
    for tok in _TOKEN_RE.findall(text):
        kind = _KINDS.get(tok)
        if kind is None:
            c = tok[:1]
            if "0" <= c <= "9":
                kind = "number"
            elif c.isalpha() or c == "_":
                kind = "ident"
            elif c == "\n":
                line += 1
                continue
            elif not c:
                break  # end of input, which findall gives twice after a last comment
            else:
                raise ParseError(f"unexpected character {c!r}", *_positions(text)[len(kinds)])
        kinds.append(kind)
        texts.append(tok)
        lines.append(line)
    kinds.append("eof")
    texts.append("")
    lines.append(line)
    return kinds, texts, lines


def _positions(text: str) -> list[tuple[int, int]]:
    """The line and column of every token `_lex` returns, and of the
    character it rejects; only errors pay for this second scan."""
    out: list[tuple[int, int]] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        if m[1] == "\n":
            line, line_start = line + 1, m.end()
        else:
            out.append((line, m.start(1) - line_start + 1))
            if not m[1]:
                break
    # A comment does not advance the column, so end of input after one sits
    # where the comment starts.  The first "--" on a line always starts one.
    comment = text.find("--", line_start)
    if comment >= 0:
        out[-1] = (line, comment - line_start + 1)
    return out


_PREC = {**{op: info.prec for op, info in OPS.items()}, "::": 2}
_ATOM_START = frozenset(["number", "ident", "[", "(", "true", "false", "nil"])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts, self.lines = _lex(text)
        self.pos = 0
        self.group = 0  # parenthesis/bracket nesting; relaxes the app line rule
        self.scoped = False  # set at the first `def`; from then on names are resolved
        self.defs: dict[str, Expr] = {}  # the definitions read so far, by name
        self.bound: set[str] = set()  # names of the enclosing binders
        self.free: set[str] = set()  # names read that are neither bound nor defined

    # ------------------------------------------------------------- plumbing

    def error(self, message: str, pos: int | None = None) -> ParseError:
        """A ParseError at token `pos`, by default the current one."""
        return ParseError(message, *_positions(self.text)[self.pos if pos is None else pos])

    def found(self) -> str:
        return "end of input" if self.kinds[self.pos] == "eof" else f"'{self.texts[self.pos]}'"

    def expect(self, kind: str, what: str | None = None) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            wanted = what or f"'{kind}'"
            raise self.error(f"expected {wanted}, found {self.found()}")
        self.pos = pos + 1
        return self.texts[pos]

    def ident(self) -> str:
        if self.kinds[self.pos] in KEYWORDS:
            raise self.error(f"'{self.texts[self.pos]}' is a reserved word")
        return self.expect("ident", "an identifier")

    # ------------------------------------------------------------- types

    def type_(self) -> Ty:
        dom = self.btype()
        if self.kinds[self.pos] == "->":
            self.pos += 1
            return ArrowTy(dom, self.type_())
        return dom

    def btype(self) -> Ty:
        kind = self.kinds[self.pos]
        if kind == "int":
            self.pos += 1
            if self.kinds[self.pos] == "*":
                self.pos += 1
                return INT_LIST
            return INT
        if kind == "bool":
            self.pos += 1
            return BOOL
        if kind == "(":
            self.pos += 1
            ty = self.type_()
            self.expect(")")
            return ty
        raise self.error(f"expected a type, found {self.found()}")

    # ------------------------------------------------------------- expressions

    def expr(self) -> Expr:
        kind = self.kinds[self.pos]
        if kind == "if":
            self.pos += 1
            test = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            return If(test, then, self.expr())
        if kind == "case" or kind == "fold":
            self.pos += 1
            scrutinee = self.expr()
            self.expect("of")
            self.expect("(")
            self.group += 1
            nil_branch = self.expr()
            self.expect(",")
            self.expect("[")
            head = self.ident()
            self.expect(",")
            tail = self.ident()
            if kind == "fold":
                self.expect(",")
                acc = self.ident()
            self.expect("]")
            if self.scoped:
                body = self.scope((head, tail, acc) if kind == "fold" else (head, tail))
            else:
                body = self.expr()
            self.expect(")")
            self.group -= 1
            if kind == "fold":
                return Fold(scrutinee, nil_branch, head, tail, acc, body)
            return Case(scrutinee, nil_branch, head, tail, body)
        if kind == "\\":
            self.pos += 1
            param = self.ident()
            self.expect(":")
            param_ty = self.type_()
            self.expect(".")
            return Lam(param, param_ty, self.scope((param,)) if self.scoped else self.expr())
        return self.binary(1)

    def scope(self, binders: tuple[str, ...]) -> Expr:
        """A binder's body, in which its binders' names are bound, hiding
        the definitions of those names; `bound` is marked in place."""
        bound = self.bound
        new = [name for name in binders if name not in bound]  # an outer binder keeps its own
        bound.update(new)
        e = self.expr()
        bound.difference_update(new)
        return e

    def binary(self, min_prec: int) -> Expr:
        # Precedence climbing: "::" parses its right operand at its own
        # level (right-associative), "+ - *" one level up (left-associative),
        # and a comparison ends the loop (non-associative).
        lhs = self.app()
        while True:
            op = self.kinds[self.pos]
            prec = _PREC.get(op, 0)
            if prec < min_prec:
                return lhs
            self.pos += 1
            if prec == 2:
                lhs = Cons(lhs, self.binary(2))
            else:
                lhs = BinOp(op, lhs, self.binary(prec + 1))
                if prec == 1:
                    return lhs

    def app(self) -> Expr:
        # Outside parentheses, juxtaposition does not cross line breaks;
        # otherwise a `def` body would swallow a following expression that
        # starts with an atom.  Inside a group the next `,` or closer
        # delimits, so line breaks are free.
        e = self.atom()
        kinds, lines = self.kinds, self.lines
        while kinds[self.pos] in _ATOM_START:
            if self.group == 0 and lines[self.pos] != lines[self.pos - 1]:
                return e
            e = App(e, self.atom())
        return e

    def atom(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "ident":
            self.pos = pos + 1
            name = self.texts[pos]
            if self.scoped and name not in self.bound:
                body = self.defs.get(name)
                if body is not None:
                    return body
                self.free.add(name)
            return Var(name)
        if kind == "number":
            self.pos = pos + 1
            return self.int_lit(int(self.texts[pos]), pos)
        if kind == "(":
            self.pos = pos + 1
            self.group += 1
            e = self.expr()
            self.expect(")")
            self.group -= 1
            return e
        if kind == "true" or kind == "false":
            self.pos = pos + 1
            return BoolLit(kind == "true")
        if kind == "nil":
            self.pos = pos + 1
            return Nil()
        if kind == "[":
            self.pos = pos + 1
            self.group += 1
            items: list[Expr] = []
            if self.kinds[self.pos] != "]":
                items.append(self.expr())
                while self.kinds[self.pos] == ",":
                    self.pos += 1
                    items.append(self.expr())
            self.expect("]")
            self.group -= 1
            out: Expr = Nil()
            for item in reversed(items):
                out = Cons(item, out)
            return out
        if kind == "-" and self.kinds[pos + 1] == "number":
            self.pos = pos + 2
            return self.int_lit(-int(self.texts[pos + 1]), pos)
        raise self.error(f"expected an expression, found {self.found()}")

    def int_lit(self, value: int, pos: int) -> IntLit:
        if not INT_MIN <= value <= INT_MAX:
            raise self.error("integer literal out of 64-bit range", pos)
        return IntLit(value)

    # ------------------------------------------------------------- programs

    def program(self) -> Expr:
        while self.kinds[self.pos] == "def":
            self.pos += 1
            self.scoped = True
            at = self.pos
            name = self.ident()
            self.expect("=")
            # A definition may use earlier names, not its own.
            body = self.expr()
            free = self.free
            if free:
                raise self.error(f"unbound variable '{min(free)}' in definition of '{name}'", at)
            self.defs[name] = body
        e = self.expr()
        if self.kinds[self.pos] != "eof":
            raise self.error(f"unexpected {self.found()} after expression")
        return e


def parse(text: str) -> Expr:
    """Parse a program (optional `def`s, then one expression) to an expression.

    Each use of a definition is its body, so the result is a plain
    expression with no definition nodes.
    """
    return _Parser(text).program()
