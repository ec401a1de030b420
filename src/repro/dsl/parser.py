"""Recursive-descent parser for the ADN DSL.

Grammar (informal):

.. code-block:: text

    program     := (element | filter | app)*
    element     := ELEMENT ident '{' section* '}'
    section     := meta | state | var | init | handler
    meta        := META '{' (ident ':' literal ';')* '}'
    state       := STATE ident '(' coldef (',' coldef)* ')' [APPEND] ';'
    coldef      := ident ':' type [KEY]
    var         := VAR ident ':' type '=' literal ';'
    init        := INIT '{' stmt* '}'
    handler     := ON? -- spelled as identifier 'on' is not reserved; we use
                   the form:  on request { stmt* }   /  on response { ... }
    stmt        := select | insert | update | delete | set
    filter      := FILTER ident '{' [meta] USE OPERATOR ident ';' '}'
    app         := APP ident '{' (service | chain | constrain | guarantee)* '}'

Expressions use conventional precedence:
``or < and < not < comparison < additive < multiplicative < unary``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import DslSyntaxError
from .ast_nodes import (
    AppDef,
    BinaryOp,
    CaseExpr,
    ChainDecl,
    ColumnDef,
    ColumnRef,
    ConstraintDecl,
    DeleteStmt,
    ElementDef,
    Expr,
    FilterDef,
    FuncCall,
    GuaranteeDecl,
    Handler,
    InsertValues,
    Join,
    Literal,
    Program,
    SelectItem,
    SelectStmt,
    ServiceDecl,
    SetStmt,
    Star,
    Statement,
    StateDecl,
    UnaryOp,
    UpdateStmt,
    VarDecl,
)
from .lexer import tokenize
from .schema import FieldType
from .span import Span
from .tokens import Token, TokenType

_TYPE_KEYWORDS = {"STR", "INT", "FLOAT", "BOOL", "BYTES"}
_COMPARISON_OPS = {
    TokenType.EQ: "==",
    TokenType.EQEQ: "==",
    TokenType.NEQ: "!=",
    TokenType.LT: "<",
    TokenType.LTE: "<=",
    TokenType.GT: ">",
    TokenType.GTE: ">=",
}


class Parser:
    """Parses a token list into a :class:`Program`."""

    def __init__(self, source: str):
        self._tokens = tokenize(source)
        self._index = 0

    # -- token helpers ----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> DslSyntaxError:
        token = self._current
        return DslSyntaxError(f"{message}, found {token!r}", token.line, token.column)

    def _expect(self, type_: TokenType) -> Token:
        if self._current.type is not type_:
            raise self._error(f"expected {type_.value!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self._current.is_keyword(word):
            raise self._error(f"expected keyword {word}")
        return self._advance()

    def _expect_ident(self) -> str:
        if self._current.type is TokenType.IDENT:
            return self._advance().value
        # allow non-structural keywords (e.g. a table named "log") to be
        # used as identifiers where unambiguous
        if self._current.type is TokenType.KEYWORD:
            return self._advance().value.lower()
        raise self._error("expected identifier")

    def _match_keyword(self, word: str) -> bool:
        if self._current.is_keyword(word):
            self._advance()
            return True
        return False

    def _match(self, type_: TokenType) -> bool:
        if self._current.type is type_:
            self._advance()
            return True
        return False

    @staticmethod
    def _span(token: Token) -> Span:
        return Span(token.line, token.column)

    @property
    def _here(self) -> Span:
        return self._span(self._current)

    # -- entry point -------------------------------------------------------

    def parse_program(self) -> Program:
        elements: Dict[str, ElementDef] = {}
        filters: Dict[str, FilterDef] = {}
        apps: Dict[str, AppDef] = {}
        while self._current.type is not TokenType.EOF:
            if self._current.is_keyword("ELEMENT"):
                self._define(elements, "element", self.parse_element())
            elif self._current.is_keyword("FILTER"):
                self._define(filters, "filter", self.parse_filter())
            elif self._current.is_keyword("APP"):
                self._define(apps, "app", self.parse_app())
            else:
                raise self._error("expected 'element', 'filter', or 'app'")
        return Program(elements=elements, filters=filters, apps=apps)

    @staticmethod
    def _define(defs: Dict[str, object], kind: str, definition) -> None:
        """Record a top-level definition. A second one of the same kind
        and name is an error at its own keyword, naming the first's
        line."""
        first = defs.get(definition.name)
        if first is not None:
            raise DslSyntaxError(
                f"duplicate {kind} {definition.name!r}, first defined on "
                f"line {first.span.line}",
                definition.span.line,
                definition.span.column,
            )
        defs[definition.name] = definition

    # -- element -----------------------------------------------------------

    def parse_element(self) -> ElementDef:
        span = self._here
        self._expect_keyword("ELEMENT")
        name = self._expect_ident()
        self._expect(TokenType.LBRACE)
        meta: Dict[str, object] = {}
        states: List[StateDecl] = []
        variables: List[VarDecl] = []
        init: Tuple[Statement, ...] = ()
        handlers: List[Handler] = []
        while not self._match(TokenType.RBRACE):
            if self._current.is_keyword("META"):
                meta.update(self._parse_meta_block())
            elif self._current.is_keyword("STATE"):
                states.append(self._parse_state_decl())
            elif self._current.is_keyword("VAR"):
                variables.append(self._parse_var_decl())
            elif self._current.is_keyword("INIT"):
                self._advance()
                init = init + self._parse_stmt_block()
            elif self._current.is_keyword("ON") or (
                self._current.type is TokenType.IDENT and self._current.value == "on"
            ):
                handlers.append(self._parse_handler())
            else:
                raise self._error(
                    "expected 'meta', 'state', 'var', 'init', or 'on' in element body"
                )
        return ElementDef(
            name=name,
            meta=meta,
            states=tuple(states),
            vars=tuple(variables),
            init=init,
            handlers=tuple(handlers),
            span=span,
        )

    def _parse_meta_block(self) -> Dict[str, object]:
        self._expect_keyword("META")
        self._expect(TokenType.LBRACE)
        entries: Dict[str, object] = {}
        while not self._match(TokenType.RBRACE):
            key = self._expect_ident()
            self._expect(TokenType.COLON)
            entries[key] = self._parse_meta_value()
            self._expect(TokenType.SEMICOLON)
        return entries

    def _parse_meta_value(self) -> object:
        token = self._current
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        if token.type is TokenType.INT:
            self._advance()
            return int(token.value)
        if token.type is TokenType.FLOAT:
            self._advance()
            return float(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return True
        if token.is_keyword("FALSE"):
            self._advance()
            return False
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            # bare words like `sender` are allowed as meta values
            self._advance()
            return token.value.lower()
        raise self._error("expected literal meta value")

    def _parse_state_decl(self) -> StateDecl:
        span = self._here
        self._expect_keyword("STATE")
        name = self._expect_ident()
        self._expect(TokenType.LPAREN)
        columns: List[ColumnDef] = []
        while True:
            col_span = self._here
            col_name = self._expect_ident()
            self._expect(TokenType.COLON)
            col_type = self._parse_type()
            is_key = self._match_keyword("KEY")
            columns.append(ColumnDef(col_name, col_type, is_key, span=col_span))
            if not self._match(TokenType.COMMA):
                break
        self._expect(TokenType.RPAREN)
        append_only = self._match_keyword("APPEND")
        self._expect(TokenType.SEMICOLON)
        return StateDecl(
            name=name,
            columns=tuple(columns),
            append_only=append_only,
            span=span,
        )

    def _parse_var_decl(self) -> VarDecl:
        span = self._here
        self._expect_keyword("VAR")
        name = self._expect_ident()
        self._expect(TokenType.COLON)
        var_type = self._parse_type()
        self._expect(TokenType.EQ)
        init = self._parse_literal()
        self._expect(TokenType.SEMICOLON)
        return VarDecl(name=name, type=var_type, init=init, span=span)

    def _parse_type(self) -> FieldType:
        token = self._current
        if token.type is TokenType.KEYWORD and token.value in _TYPE_KEYWORDS:
            self._advance()
            return FieldType.from_keyword(token.value)
        raise self._error("expected a type (str, int, float, bool, bytes)")

    def _parse_literal(self) -> Literal:
        token = self._current
        span = self._span(token)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value, span=span)
        if token.type is TokenType.INT:
            self._advance()
            return Literal(int(token.value), span=span)
        if token.type is TokenType.FLOAT:
            self._advance()
            return Literal(float(token.value), span=span)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True, span=span)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False, span=span)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None, span=span)
        if token.type is TokenType.MINUS:
            self._advance()
            inner = self._parse_literal()
            return Literal(-inner.value, span=span)  # type: ignore[operator]
        raise self._error("expected literal")

    def _parse_handler(self) -> Handler:
        span = self._here
        self._advance()  # 'on'
        kind_token = self._current
        kind = self._expect_ident()
        if kind not in ("request", "response"):
            raise DslSyntaxError(
                "handler must be 'on request' or 'on response'",
                kind_token.line,
                kind_token.column,
            )
        statements = self._parse_stmt_block()
        return Handler(kind=kind, statements=statements, span=span)

    def _parse_stmt_block(self) -> Tuple[Statement, ...]:
        self._expect(TokenType.LBRACE)
        statements: List[Statement] = []
        while not self._match(TokenType.RBRACE):
            statements.append(self.parse_statement())
        return tuple(statements)

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self._current
        if token.is_keyword("SELECT"):
            return self._parse_select(into=None)
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("SET"):
            return self._parse_set()
        raise self._error("expected SELECT, INSERT, UPDATE, DELETE, or SET")

    def _parse_select(
        self,
        into: Optional[str],
        terminated: bool = True,
        span: Optional[Span] = None,
    ) -> SelectStmt:
        span = span or self._here
        self._expect_keyword("SELECT")
        items: List[object] = [self._parse_select_item()]
        while self._match(TokenType.COMMA):
            items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        source = self._expect_ident()
        joins: List[Join] = []
        while self._match_keyword("JOIN"):
            table = self._expect_ident()
            self._expect_keyword("ON")
            joins.append(Join(table=table, on=self.parse_expr()))
        where = self.parse_expr() if self._match_keyword("WHERE") else None
        if terminated:
            self._expect(TokenType.SEMICOLON)
        return SelectStmt(
            items=tuple(items),
            source=source,
            joins=tuple(joins),
            where=where,
            into=into,
            span=span,
        )

    def _parse_select_item(self) -> object:
        if self._current.type is TokenType.STAR:
            self._advance()
            return Star(None)
        # "ident.*" form
        if (
            self._current.type is TokenType.IDENT
            and self._peek(1).type is TokenType.DOT
            and self._peek(2).type is TokenType.STAR
        ):
            table = self._advance().value
            self._advance()  # '.'
            self._advance()  # '*'
            return Star(table)
        expr = self.parse_expr()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        return SelectItem(expr=expr, alias=alias)

    def _parse_insert(self) -> Statement:
        span = self._here
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        if self._current.is_keyword("VALUES"):
            self._advance()
            rows: List[Tuple[Expr, ...]] = []
            while True:
                self._expect(TokenType.LPAREN)
                row: List[Expr] = [self.parse_expr()]
                while self._match(TokenType.COMMA):
                    row.append(self.parse_expr())
                self._expect(TokenType.RPAREN)
                rows.append(tuple(row))
                if not self._match(TokenType.COMMA):
                    break
            self._expect(TokenType.SEMICOLON)
            return InsertValues(table=table, rows=tuple(rows), span=span)
        if self._current.is_keyword("SELECT"):
            return self._parse_select(into=table, span=span)
        raise self._error("expected VALUES or SELECT after INSERT INTO")

    def _parse_update(self) -> UpdateStmt:
        span = self._here
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments: List[Tuple[str, Expr]] = []
        while True:
            column = self._expect_ident()
            self._expect(TokenType.EQ)
            assignments.append((column, self.parse_expr()))
            if not self._match(TokenType.COMMA):
                break
        where = self.parse_expr() if self._match_keyword("WHERE") else None
        self._expect(TokenType.SEMICOLON)
        return UpdateStmt(
            table=table, assignments=tuple(assignments), where=where, span=span
        )

    def _parse_delete(self) -> DeleteStmt:
        span = self._here
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = self.parse_expr() if self._match_keyword("WHERE") else None
        self._expect(TokenType.SEMICOLON)
        return DeleteStmt(table=table, where=where, span=span)

    def _parse_set(self) -> SetStmt:
        span = self._here
        self._expect_keyword("SET")
        var = self._expect_ident()
        self._expect(TokenType.EQ)
        expr = self.parse_expr()
        where = self.parse_expr() if self._match_keyword("WHERE") else None
        self._expect(TokenType.SEMICOLON)
        return SetStmt(var=var, expr=expr, where=where, span=span)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._current.is_keyword("OR"):
            self._advance()
            left = BinaryOp("or", left, self._parse_and(), span=left.span)
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._current.is_keyword("AND"):
            self._advance()
            left = BinaryOp("and", left, self._parse_not(), span=left.span)
        return left

    def _parse_not(self) -> Expr:
        if self._current.is_keyword("NOT"):
            span = self._here
            self._advance()
            return UnaryOp("not", self._parse_not(), span=span)
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        if self._current.type in _COMPARISON_OPS:
            op = _COMPARISON_OPS[self._advance().type]
            return BinaryOp(op, left, self._parse_additive(), span=left.span)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self._current.type in (TokenType.PLUS, TokenType.MINUS):
            op = self._advance().value
            left = BinaryOp(op, left, self._parse_multiplicative(), span=left.span)
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self._current.type in (
            TokenType.STAR,
            TokenType.SLASH,
            TokenType.PERCENT,
        ):
            op = self._advance().value
            left = BinaryOp(op, left, self._parse_unary(), span=left.span)
        return left

    def _parse_unary(self) -> Expr:
        if self._current.type is TokenType.MINUS:
            span = self._here
            self._advance()
            operand = self._parse_unary()
            # fold numeric negation so '-1' is Literal(-1), keeping the
            # printer round-trip structural
            if isinstance(operand, Literal) and isinstance(
                operand.value, (int, float)
            ) and not isinstance(operand.value, bool):
                return Literal(-operand.value, span=span)
            return UnaryOp("-", operand, span=span)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._current
        if token.type in (TokenType.STRING, TokenType.INT, TokenType.FLOAT):
            return self._parse_literal()
        if token.is_keyword("TRUE") or token.is_keyword("FALSE"):
            return self._parse_literal()
        if token.is_keyword("NULL"):
            return self._parse_literal()
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self.parse_expr()
            self._expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.IDENT or token.type is TokenType.KEYWORD:
            span = self._span(token)
            name = self._expect_ident()
            if self._current.type is TokenType.LPAREN:
                self._advance()
                args: List[Expr] = []
                if self._current.type is not TokenType.RPAREN:
                    args.append(self.parse_expr())
                    while self._match(TokenType.COMMA):
                        args.append(self.parse_expr())
                self._expect(TokenType.RPAREN)
                return FuncCall(name=name, args=tuple(args), span=span)
            if self._match(TokenType.DOT):
                column = self._expect_ident()
                return ColumnRef(table=name, name=column, span=span)
            return ColumnRef(table=None, name=name, span=span)
        raise self._error("expected expression")

    def _parse_case(self) -> CaseExpr:
        span = self._here
        self._expect_keyword("CASE")
        whens: List[Tuple[Expr, Expr]] = []
        while self._match_keyword("WHEN"):
            condition = self.parse_expr()
            self._expect_keyword("THEN")
            whens.append((condition, self.parse_expr()))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        default = self.parse_expr() if self._match_keyword("ELSE") else None
        self._expect_keyword("END")
        return CaseExpr(whens=tuple(whens), default=default, span=span)

    # -- filters & apps --------------------------------------------------------

    def parse_filter(self) -> FilterDef:
        span = self._here
        self._expect_keyword("FILTER")
        name = self._expect_ident()
        self._expect(TokenType.LBRACE)
        meta: Dict[str, object] = {}
        operator = None
        while not self._match(TokenType.RBRACE):
            if self._current.is_keyword("META"):
                meta.update(self._parse_meta_block())
            elif self._match_keyword("USE"):
                self._expect_keyword("OPERATOR")
                operator = self._expect_ident()
                self._expect(TokenType.SEMICOLON)
            else:
                raise self._error("expected 'meta' or 'use operator' in filter")
        if operator is None:
            raise self._error(f"filter {name!r} must declare 'use operator'")
        return FilterDef(name=name, operator=operator, meta=meta, span=span)

    def parse_app(self) -> AppDef:
        span = self._here
        self._expect_keyword("APP")
        name = self._expect_ident()
        self._expect(TokenType.LBRACE)
        services: List[ServiceDecl] = []
        chains: List[ChainDecl] = []
        constraints: List[ConstraintDecl] = []
        reliable = False
        ordered = False
        while not self._match(TokenType.RBRACE):
            if self._current.is_keyword("SERVICE"):
                svc_span = self._here
                self._advance()
                svc_name = self._expect_ident()
                replicas = 1
                if self._match_keyword("REPLICAS"):
                    replicas = int(self._expect(TokenType.INT).value)
                self._expect(TokenType.SEMICOLON)
                services.append(
                    ServiceDecl(name=svc_name, replicas=replicas, span=svc_span)
                )
            elif self._current.is_keyword("CHAIN"):
                chain_span = self._here
                self._advance()
                src = self._expect_ident()
                self._expect(TokenType.ARROW)
                dst = self._expect_ident()
                self._expect(TokenType.LBRACE)
                names: List[str] = []
                if self._current.type is not TokenType.RBRACE:
                    names.append(self._expect_ident())
                    while self._match(TokenType.COMMA):
                        names.append(self._expect_ident())
                self._expect(TokenType.RBRACE)
                chains.append(
                    ChainDecl(
                        src=src, dst=dst, elements=tuple(names), span=chain_span
                    )
                )
            elif self._match_keyword("CONSTRAIN"):
                constraints.append(self._parse_constraint())
            elif self._match_keyword("GUARANTEE"):
                while not self._match(TokenType.SEMICOLON):
                    if self._match_keyword("RELIABLE"):
                        reliable = True
                    elif self._match_keyword("ORDERED"):
                        ordered = True
                    else:
                        raise self._error("expected 'reliable' or 'ordered'")
            else:
                raise self._error(
                    "expected 'service', 'chain', 'constrain', or 'guarantee'"
                )
        return AppDef(
            name=name,
            services=tuple(services),
            chains=tuple(chains),
            constraints=tuple(constraints),
            guarantees=GuaranteeDecl(reliable=reliable, ordered=ordered),
            span=span,
        )

    def _parse_constraint(self) -> ConstraintDecl:
        span = self._here
        subject = self._expect_ident()
        if self._match_keyword("COLOCATE"):
            if self._match_keyword("SENDER"):
                side = "sender"
            elif self._match_keyword("RECEIVER"):
                side = "receiver"
            else:
                raise self._error("expected 'sender' or 'receiver'")
            self._expect(TokenType.SEMICOLON)
            return ConstraintDecl(kind="colocate", args=(subject, side), span=span)
        if self._match_keyword("OUTSIDE_APP"):
            self._expect(TokenType.SEMICOLON)
            return ConstraintDecl(kind="outside_app", args=(subject,), span=span)
        if self._match_keyword("BEFORE"):
            other = self._expect_ident()
            self._expect(TokenType.SEMICOLON)
            return ConstraintDecl(kind="before", args=(subject, other), span=span)
        if self._match_keyword("AFTER"):
            other = self._expect_ident()
            self._expect(TokenType.SEMICOLON)
            return ConstraintDecl(kind="after", args=(subject, other), span=span)
        raise self._error(
            "expected 'colocate', 'outside_app', 'before', or 'after'"
        )


def parse(source: str) -> Program:
    """Parse DSL source into a :class:`Program` (elements, filters, apps)."""
    return Parser(source).parse_program()


def parse_element(source: str) -> ElementDef:
    """Parse source containing exactly one element and return it."""
    program = parse(source)
    if len(program.elements) != 1 or program.filters or program.apps:
        raise DslSyntaxError("expected exactly one element definition")
    return next(iter(program.elements.values()))
