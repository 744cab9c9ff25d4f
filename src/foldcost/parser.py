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
swallow a following expression that starts with an atom.  `def` bodies
are expanded by substitution, in order, so a definition may use earlier
definitions but not itself.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import (
    BOOL,
    INT,
    INT_LIST,
    INT_MAX,
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
    subst,
)

KEYWORDS = frozenset(
    ["if", "then", "else", "case", "fold", "of", "nil", "true", "false", "def", "int", "bool"]
)

# One match per token.  Group 1 is the blanks before the token and a
# comment, which runs to the end of the line.  Then exactly one of: a
# newline, INT, a word, a symbol, or any other character.  "--" is tried
# before the "-" symbol.  A word may start with any word character but a
# decimal digit; `tokenize` rejects the ones that are not letters, such as
# "²".  `\Z` takes the blanks at the end of the input.
_TOKEN_RE = re.compile(
    r"([ \t\r]*(?:--[^\n]*)?)"
    r"(?:(\n)|([0-9]+)|([^\W\d][\w']*)|(->|::|<=|[-<=+*()\[\],.:\\])|(.)|\Z)"
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        # line 0 marks errors with no source position, like unreadable files
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "int", "ident", "kw", "eof", or the symbol itself
    text: str
    line: int
    col: int


# Builds a Token without the Python-level `__new__` that NamedTuple
# generates; the fields go in declaration order.
_new_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    for blank, newline, number, word, sym, other in _TOKEN_RE.findall(text):
        pos += len(blank)
        if sym:
            append(_new_token(Token, (sym, sym, line, pos - line_start + 1)))
            pos += len(sym)
        elif word:
            col = pos - line_start + 1
            if word in KEYWORDS:
                append(_new_token(Token, ("kw", word, line, col)))
            elif word[0].isalpha() or word[0] == "_":
                append(_new_token(Token, ("ident", word, line, col)))
            else:
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            pos += len(word)
        elif newline:
            pos += 1
            line, line_start = line + 1, pos
        elif number:
            append(_new_token(Token, ("int", number, line, pos - line_start + 1)))
            pos += len(number)
        elif other:
            raise ParseError(f"unexpected character {other!r}", line, pos - line_start + 1)
    # A comment does not advance the column, so end of input after one sits
    # where the comment starts.  The first "--" on a line always starts one.
    end = text.find("--", line_start)
    append(Token("eof", "", line, (len(text) if end < 0 else end) - line_start + 1))
    return tokens


_PREC = {**{op: info.prec for op, info in OPS.items()}, "::": 2}
_ATOM_START = frozenset(["int", "ident", "[", "("])
_ATOM_KWS = frozenset(["true", "false", "nil"])


class _Parser:
    def __init__(self, tokens: list[Token]):
        # A second eof lets `peek(1)` look past the end without a bounds check.
        self.tokens = tokens + tokens[-1:]
        self.pos = 0
        self.group = 0  # parenthesis/bracket nesting; relaxes the app line rule

    # ------------------------------------------------------------- plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            wanted = what or f"'{kind}'"
            raise ParseError(f"expected {wanted}, found {self._describe(tok)}", tok.line, tok.col)
        self.pos += 1
        return tok

    def expect_kw(self, word: str) -> None:
        tok = self.tokens[self.pos]
        if tok.kind != "kw" or tok.text != word:
            raise ParseError(f"expected '{word}', found {self._describe(tok)}", tok.line, tok.col)
        self.pos += 1

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else f"'{tok.text}'"

    def ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok.kind == "kw":
            raise ParseError(f"'{tok.text}' is a reserved word", tok.line, tok.col)
        return self.expect("ident", "an identifier").text

    # ------------------------------------------------------------- types

    def type_(self) -> Ty:
        dom = self.btype()
        if self.peek().kind == "->":
            self.pos += 1
            return ArrowTy(dom, self.type_())
        return dom

    def btype(self) -> Ty:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "int":
            self.pos += 1
            if self.peek().kind == "*":
                self.pos += 1
                return INT_LIST
            return INT
        if tok.kind == "kw" and tok.text == "bool":
            self.pos += 1
            return BOOL
        if tok.kind == "(":
            self.pos += 1
            ty = self.type_()
            self.expect(")")
            return ty
        raise ParseError(f"expected a type, found {self._describe(tok)}", tok.line, tok.col)

    # ------------------------------------------------------------- expressions

    def expr(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "kw":
            word = tok.text
            if word == "if":
                self.pos += 1
                test = self.expr()
                self.expect_kw("then")
                then = self.expr()
                self.expect_kw("else")
                return If(test, then, self.expr())
            if word == "case" or word == "fold":
                self.pos += 1
                scrutinee = self.expr()
                self.expect_kw("of")
                self.expect("(")
                self.group += 1
                nil_branch = self.expr()
                self.expect(",")
                self.expect("[")
                head = self.ident()
                self.expect(",")
                tail = self.ident()
                if word == "fold":
                    self.expect(",")
                    acc = self.ident()
                self.expect("]")
                body = self.expr()
                self.expect(")")
                self.group -= 1
                if word == "fold":
                    return Fold(scrutinee, nil_branch, head, tail, acc, body)
                return Case(scrutinee, nil_branch, head, tail, body)
        elif tok.kind == "\\":
            self.pos += 1
            param = self.ident()
            self.expect(":")
            param_ty = self.type_()
            self.expect(".")
            return Lam(param, param_ty, self.expr())
        return self.binary(1)

    def binary(self, min_prec: int) -> Expr:
        # Precedence climbing: "::" parses its right operand at its own
        # level (right-associative), "+ - *" one level up (left-associative),
        # and a comparison ends the loop (non-associative).
        lhs = self.app()
        while True:
            op = self.tokens[self.pos].kind
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
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind not in _ATOM_START and (tok.kind != "kw" or tok.text not in _ATOM_KWS):
                return e
            if self.group == 0 and tok.line != tokens[self.pos - 1].line:
                return e
            e = App(e, self.atom())

    def atom(self) -> Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "ident":
            self.pos += 1
            return Var(tok.text)
        if kind == "int":
            self.pos += 1
            return self._int_lit(tok, int(tok.text))
        if kind == "(":
            self.pos += 1
            self.group += 1
            e = self.expr()
            self.expect(")")
            self.group -= 1
            return e
        if kind == "kw" and tok.text in _ATOM_KWS:
            self.pos += 1
            return Nil() if tok.text == "nil" else BoolLit(tok.text == "true")
        if kind == "[":
            self.pos += 1
            self.group += 1
            items: list[Expr] = []
            if self.peek().kind != "]":
                items.append(self.expr())
                while self.peek().kind == ",":
                    self.pos += 1
                    items.append(self.expr())
            self.expect("]")
            self.group -= 1
            out: Expr = Nil()
            for item in reversed(items):
                out = Cons(item, out)
            return out
        if kind == "-" and self.peek(1).kind == "int":
            lit = self.peek(1)
            self.pos += 2
            return self._int_lit(tok, -int(lit.text))
        raise ParseError(f"expected an expression, found {self._describe(tok)}", tok.line, tok.col)

    @staticmethod
    def _int_lit(tok: Token, value: int) -> IntLit:
        if not -(2**63) <= value <= INT_MAX:
            raise ParseError("integer literal out of 64-bit range", tok.line, tok.col)
        return IntLit(value)

    # ------------------------------------------------------------- programs

    def program(self) -> Expr:
        defs: dict[str, Expr] = {}
        while self.peek()[:2] == ("kw", "def"):
            self.pos += 1
            name = self.ident()
            self.expect("=")
            # Expand eagerly: a definition may use earlier names, not itself.
            body = subst(self.expr(), defs)
            defs[name] = body
        e = subst(self.expr(), defs)
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {self._describe(tok)} after expression", tok.line, tok.col)
        return e


def parse(text: str) -> Expr:
    """Parse a program (optional `def`s, then one expression) to an expression.

    Definitions are expanded by capture-avoiding substitution, so the result
    is a plain expression with no definition nodes.
    """
    return _Parser(tokenize(text)).program()
