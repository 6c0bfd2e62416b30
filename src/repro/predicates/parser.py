"""A small textual language for global predicates.

Lets traces be queried from the command line (:mod:`repro.cli`) and from
config files without writing Python::

    x@0 & x@1                  conjunctive: x true on processes 0 and 1
    !cs@2                      negated literal
    (x@0 | x@1) & (x@2 | x@3)  singular 2-CNF
    sum(v) == 3                relational sum predicate
    count(busy) >= 2           symmetric predicate (boolean true-count)
    count(leader) in {0, 2}    symmetric predicate with an explicit count set
    inflight == 0              channel predicate: messages crossing the cut
    inflight(1) <= 2           ... sent by process 1

Grammar (``|`` binds loosest, ``!`` tightest)::

    pred    := term ('|' term)*
    term    := factor ('&' factor)*
    factor  := '!' factor | '(' pred ')' | atom
    atom    := NAME '@' INT
             | 'sum' '(' NAME ')' RELOP INT
             | 'count' '(' NAME ')' RELOP INT
             | 'count' '(' NAME ')' 'in' '{' INT (',' INT)* '}'

The parser classifies the result structurally so the detection facade can
dispatch to the fastest engine: pure AND/OR nests over literals become
:class:`~repro.predicates.boolean.CNFPredicate` (conjunctive when 1-CNF);
everything else composes with the generic combinators.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Union

from repro.predicates.base import (
    AndPredicate,
    GlobalPredicate,
    NotPredicate,
    OrPredicate,
    conjunction,
    disjunction,
    negation,
)
from repro.predicates.boolean import Clause, CNFPredicate
from repro.predicates.errors import PredicateError
from repro.predicates.local import Literal
from repro.predicates.relational import RelationalSumPredicate, Relop
from repro.predicates.symmetric import SymmetricPredicate

__all__ = ["parse_predicate", "PredicateSyntaxError"]


class PredicateSyntaxError(PredicateError):
    """The predicate text does not conform to the grammar."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<relop><=|>=|==|!=|<|>|=)"
    r"|(?P<int>-?\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[@|&!(){},]))"
)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    text = text.rstrip()
    position = 0
    while position < len(text):
        while position < len(text) and text[position].isspace():
            position += 1
        if position >= len(text):
            break
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise PredicateSyntaxError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        tokens.append(match.group().strip())
        position = match.end()
    return [t for t in tokens if t]


class _Parser:
    def __init__(self, tokens: Sequence[str], num_processes: Optional[int]):
        self._tokens = list(tokens)
        self._index = 0
        self._num_processes = num_processes

    # -- token helpers -------------------------------------------------
    def _peek(self) -> Optional[str]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise PredicateSyntaxError("unexpected end of predicate")
        self._index += 1
        return token

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise PredicateSyntaxError(f"expected {token!r}, found {got!r}")

    def _expect_int(self) -> int:
        token = self._next()
        try:
            return int(token)
        except ValueError:
            raise PredicateSyntaxError(f"expected an integer, found {token!r}")

    # -- grammar -------------------------------------------------------
    def parse(self) -> GlobalPredicate:
        result = self._pred()
        if self._peek() is not None:
            raise PredicateSyntaxError(
                f"trailing input starting at {self._peek()!r}"
            )
        return result

    def _pred(self) -> GlobalPredicate:
        parts = [self._term()]
        while self._peek() == "|":
            self._next()
            parts.append(self._term())
        if len(parts) == 1:
            return parts[0]
        return disjunction(*parts)

    def _term(self) -> GlobalPredicate:
        parts = [self._factor()]
        while self._peek() == "&":
            self._next()
            parts.append(self._factor())
        if len(parts) == 1:
            return parts[0]
        return conjunction(*parts)

    def _factor(self) -> GlobalPredicate:
        token = self._peek()
        if token == "!":
            self._next()
            return negation(self._factor())
        if token == "(":
            self._next()
            inner = self._pred()
            self._expect(")")
            return inner
        return self._atom()

    def _atom(self) -> GlobalPredicate:
        name = self._next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise PredicateSyntaxError(f"expected a name, found {name!r}")
        if name == "sum" and self._peek() == "(":
            return self._sum_atom()
        if name == "count" and self._peek() == "(":
            return self._count_atom()
        if name == "inflight":
            return self._inflight_atom()
        self._expect("@")
        return Literal(self._process(), name)

    def _process(self) -> int:
        """A process index, range-checked against the computation."""
        process, n = self._expect_int(), self._num_processes
        if process < 0 or (n is not None and process >= n):
            has = "" if n is None else f" (the computation has {n} processes)"
            raise PredicateSyntaxError(f"process {process} out of range{has}")
        return process

    def _sum_atom(self) -> GlobalPredicate:
        self._expect("(")
        variable = self._next()
        self._expect(")")
        relop = Relop.from_symbol(self._next())
        constant = self._expect_int()
        return RelationalSumPredicate(variable, relop, constant)

    def _inflight_atom(self) -> GlobalPredicate:
        from repro.predicates.channel import InFlightPredicate

        source = None
        if self._peek() == "(":
            self._next()
            source = self._process()
            self._expect(")")
        relop = Relop.from_symbol(self._next())
        constant = self._expect_int()
        return InFlightPredicate(relop, constant, source=source)

    def _count_atom(self) -> GlobalPredicate:
        self._expect("(")
        variable = self._next()
        self._expect(")")
        if self._num_processes is None:
            raise PredicateSyntaxError(
                "count(...) requires num_processes to be supplied"
            )
        n = self._num_processes
        token = self._next()
        if token == "in":
            self._expect("{")
            counts = [self._expect_int()]
            while self._peek() == ",":
                self._next()
                counts.append(self._expect_int())
            self._expect("}")
            return SymmetricPredicate(variable, n, counts)
        relop = Relop.from_symbol(token)
        bound = self._expect_int()
        counts = [j for j in range(n + 1) if relop.compare(j, bound)]
        if not counts:
            # An empty count set is a constant-false symmetric predicate;
            # SymmetricPredicate requires counts, so encode the empty set
            # as an impossible count... it accepts any subset of [0, n],
            # and the empty set is a legal frozen set.
            return SymmetricPredicate(variable, n, [])
        return SymmetricPredicate(variable, n, counts)


def _to_cnf(predicate: GlobalPredicate) -> Optional[CNFPredicate]:
    """Structurally rewrite AND/OR/NOT-of-literals into a CNF predicate."""

    def as_clause(node: GlobalPredicate) -> Optional[Clause]:
        literals = as_literals(node)
        if literals is None:
            return None
        return Clause(literals)

    def as_literals(node: GlobalPredicate) -> Optional[List[Literal]]:
        if isinstance(node, Literal):
            return [node]
        if isinstance(node, NotPredicate) and isinstance(node.inner, Literal):
            return [node.inner.negate()]
        if isinstance(node, OrPredicate):
            collected: List[Literal] = []
            for part in node.parts:
                sub = as_literals(part)
                if sub is None:
                    return None
                collected.extend(sub)
            return collected
        return None

    if isinstance(predicate, AndPredicate):
        clauses = []
        for part in predicate.parts:
            cl = as_clause(part)
            if cl is None:
                return None
            clauses.append(cl)
        return CNFPredicate(clauses)
    single = as_clause(predicate)
    if single is not None:
        return CNFPredicate([single])
    return None


def parse_predicate(
    text: str, num_processes: Optional[int] = None
) -> GlobalPredicate:
    """Parse predicate text into the most specific predicate class.

    Args:
        text: Predicate in the grammar above.
        num_processes: Required for ``count(...)`` atoms (the symmetric
            predicate needs to know n).  When given, a literal naming a
            process outside ``[0, num_processes)`` is a syntax error.

    Returns:
        A :class:`CNFPredicate` when the text is a boolean combination of
        literals expressible in CNF without expansion (the detection facade
        then picks CPDHB / CPDSC / chain-choice automatically), otherwise
        the composed predicate.
    """
    parser = _Parser(_tokenize(text), num_processes)
    predicate = parser.parse()
    rewritten = _to_cnf(predicate)
    if rewritten is not None:
        return rewritten
    return predicate
