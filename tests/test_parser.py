"""Parser unit tests."""

import pytest

from repro.dsl.ast_nodes import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    DeleteStmt,
    FuncCall,
    InsertValues,
    Literal,
    SelectItem,
    SelectStmt,
    SetStmt,
    Star,
    UnaryOp,
    UpdateStmt,
)
from repro.dsl.parser import Parser, parse, parse_element
from repro.dsl.schema import FieldType
from repro.errors import DslSyntaxError

MINIMAL = """
element E {
    on request { SELECT * FROM input; }
}
"""


def only_stmt(source):
    element = parse_element(source)
    return element.handlers[0].statements[0]


class TestElementStructure:
    def test_minimal_element(self):
        element = parse_element(MINIMAL)
        assert element.name == "E"
        assert element.handlers[0].kind == "request"

    def test_meta_block(self):
        element = parse_element(
            """
            element E {
                meta { position: sender; mandatory: true; rate: 100.5; window: 3; }
                on request { SELECT * FROM input; }
            }
            """
        )
        assert element.meta == {
            "position": "sender",
            "mandatory": True,
            "rate": 100.5,
            "window": 3,
        }

    def test_state_declaration(self):
        element = parse_element(
            """
            element E {
                state t (k: int KEY, v: str);
                on request { SELECT * FROM input; }
            }
            """
        )
        decl = element.states[0]
        assert decl.name == "t"
        assert decl.columns[0].is_key
        assert decl.columns[0].type is FieldType.INT
        assert not decl.columns[1].is_key
        assert not decl.append_only

    def test_append_only_state(self):
        element = parse_element(
            """
            element E {
                state log_t (x: bytes) APPEND;
                on request { SELECT * FROM input; }
            }
            """
        )
        assert element.states[0].append_only

    def test_var_declaration(self):
        element = parse_element(
            """
            element E {
                var n: int = 0;
                var f: float = -1.5;
                on request { SELECT * FROM input; }
            }
            """
        )
        assert element.vars[0].init.value == 0
        assert element.vars[1].init.value == -1.5

    def test_init_block(self):
        element = parse_element(
            """
            element E {
                state t (k: str KEY, v: str);
                init { INSERT INTO t VALUES ('a', 'b'), ('c', 'd'); }
                on request { SELECT * FROM input; }
            }
            """
        )
        insert = element.init[0]
        assert isinstance(insert, InsertValues)
        assert len(insert.rows) == 2

    def test_both_handlers(self):
        element = parse_element(
            """
            element E {
                on request { SELECT * FROM input; }
                on response { SELECT * FROM input; }
            }
            """
        )
        assert {h.kind for h in element.handlers} == {"request", "response"}

    def test_bad_handler_kind(self):
        with pytest.raises(DslSyntaxError):
            parse_element("element E { on sideways { SELECT * FROM input; } }")

    def test_duplicate_element_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse(MINIMAL + MINIMAL)


class TestSelect:
    def test_star(self):
        stmt = only_stmt(MINIMAL)
        assert isinstance(stmt, SelectStmt)
        assert stmt.items == (Star(None),)
        assert stmt.source == "input"

    def test_qualified_star_and_alias(self):
        stmt = only_stmt(
            """
            element E {
                on request {
                    SELECT input.*, hash(input.k) AS h FROM input;
                }
            }
            """
        )
        star, item = stmt.items
        assert star == Star("input")
        assert isinstance(item, SelectItem)
        assert item.alias == "h"
        assert isinstance(item.expr, FuncCall)

    def test_join_and_where(self):
        stmt = only_stmt(
            """
            element E {
                state t (k: int KEY, v: str);
                on request {
                    SELECT input.* FROM input JOIN t ON t.k == input.obj
                    WHERE t.v == 'x';
                }
            }
            """
        )
        assert stmt.joins[0].table == "t"
        assert isinstance(stmt.joins[0].on, BinaryOp)
        assert isinstance(stmt.where, BinaryOp)

    def test_multiple_joins(self):
        stmt = only_stmt(
            """
            element E {
                state a (k: int KEY, v: str);
                state b (k: int KEY, w: str);
                on request {
                    SELECT input.* FROM input
                    JOIN a ON a.k == input.x
                    JOIN b ON b.k == input.y;
                }
            }
            """
        )
        assert [j.table for j in stmt.joins] == ["a", "b"]

    def test_insert_select_into(self):
        stmt = only_stmt(
            """
            element E {
                state t (ts: float, p: bytes) APPEND;
                on request {
                    INSERT INTO t SELECT now(), input.payload FROM input;
                }
            }
            """
        )
        assert isinstance(stmt, SelectStmt)
        assert stmt.into == "t"

    def test_missing_from_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_element("element E { on request { SELECT *; } }")


class TestOtherStatements:
    def test_update(self):
        stmt = only_stmt(
            """
            element E {
                state t (k: str KEY, n: int);
                on request {
                    UPDATE t SET n = n + 1 WHERE k == input.m;
                }
            }
            """
        )
        assert isinstance(stmt, UpdateStmt)
        assert stmt.assignments[0][0] == "n"

    def test_delete(self):
        stmt = only_stmt(
            """
            element E {
                state t (k: str KEY, n: int);
                on request { DELETE FROM t WHERE n > 10; }
            }
            """
        )
        assert isinstance(stmt, DeleteStmt)

    def test_set_with_guard(self):
        stmt = only_stmt(
            """
            element E {
                var tokens: float = 10.0;
                on request { SET tokens = tokens - 1.0 WHERE tokens >= 1.0; }
            }
            """
        )
        assert isinstance(stmt, SetStmt)
        assert stmt.where is not None


class TestExpressions:
    def parse_expr(self, text):
        return Parser(text).parse_expr()

    def test_precedence_arithmetic(self):
        expr = self.parse_expr("1 + 2 * 3")
        assert isinstance(expr, BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "*"

    def test_precedence_logic(self):
        expr = self.parse_expr("a == 1 or b == 2 and c == 3")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_not_binds_tighter_than_and(self):
        expr = self.parse_expr("not a and b")
        assert expr.op == "and"
        assert isinstance(expr.left, UnaryOp)

    def test_parentheses(self):
        expr = self.parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_unary_minus(self):
        expr = self.parse_expr("-x")
        assert isinstance(expr, UnaryOp)
        assert expr.op == "-"

    def test_modulo(self):
        expr = self.parse_expr("hash(x) % count(t)")
        assert expr.op == "%"

    def test_case_expression(self):
        expr = self.parse_expr(
            "CASE WHEN x > 1 THEN 'big' WHEN x > 0 THEN 'small' ELSE 'neg' END"
        )
        assert isinstance(expr, CaseExpr)
        assert len(expr.whens) == 2
        assert expr.default == Literal("neg")

    def test_case_requires_when(self):
        with pytest.raises(DslSyntaxError):
            self.parse_expr("CASE ELSE 1 END")

    def test_column_ref_forms(self):
        assert self.parse_expr("x") == ColumnRef(None, "x")
        assert self.parse_expr("input.x") == ColumnRef("input", "x")

    def test_literals(self):
        assert self.parse_expr("true") == Literal(True)
        assert self.parse_expr("null") == Literal(None)
        assert self.parse_expr("'s'") == Literal("s")

    def test_literals_of_different_types_differ(self):
        # equal in Python, but a rewrite between them changes what the
        # element emits; the hash stays the value's, so no order moves
        assert Literal(1) != Literal(True)
        assert Literal(1) != Literal(1.0)
        assert Literal(0) != Literal(False)
        assert Literal(1) == Literal(1)
        nan = float("nan")
        assert Literal(nan) == Literal(nan)
        assert hash(Literal(True)) == hash((True,))

    def test_single_equals_is_comparison(self):
        expr = self.parse_expr("a = 1")
        assert expr.op == "=="


class TestFiltersAndApps:
    def test_filter(self):
        program = parse(
            """
            filter Retry {
                meta { max_retries: 3; }
                use operator retry;
            }
            """
        )
        filt = program.filters["Retry"]
        assert filt.operator == "retry"
        assert filt.meta["max_retries"] == 3

    def test_filter_requires_operator(self):
        with pytest.raises(DslSyntaxError):
            parse("filter F { meta { timeout_ms: 5.0; } }")

    def test_app(self):
        program = parse(
            """
            app Shop {
                service frontend;
                service cart replicas 3;
                chain frontend -> cart { Logging, Acl }
                constrain Acl outside_app;
                constrain Logging before Acl;
                guarantee reliable ordered;
            }
            """
        )
        app = program.apps["Shop"]
        assert app.service("cart").replicas == 3
        assert app.chains[0].elements == ("Logging", "Acl")
        kinds = {c.kind for c in app.constraints}
        assert kinds == {"outside_app", "before"}
        assert app.guarantees.reliable and app.guarantees.ordered

    def test_app_colocate(self):
        program = parse(
            """
            app P {
                service a;
                service b;
                chain a -> b { Enc }
                constrain Enc colocate sender;
            }
            """
        )
        constraint = program.apps["P"].constraints[0]
        assert constraint.kind == "colocate"
        assert constraint.args == ("Enc", "sender")

    def test_empty_chain(self):
        program = parse(
            "app P { service a; service b; chain a -> b { } }"
        )
        assert program.apps["P"].chains[0].elements == ()

    def test_mixed_program(self):
        program = parse(
            MINIMAL + "app P { service a; service b; chain a -> b { E } }"
        )
        assert set(program.elements) == {"E"}
        assert set(program.apps) == {"P"}


class TestDuplicateDefinitions:
    """A repeated top-level name is reported at the repeat's own keyword
    and names the line of the first definition."""

    DEFINITIONS = {
        "element": "element {name} {{\n    on request {{ SELECT * FROM input; }}\n}}\n",
        "filter": "filter {name} {{\n    use operator retry;\n}}\n",
        "app": "app {name} {{\n    service a;\n}}\n",
    }

    @pytest.mark.parametrize("kind", sorted(DEFINITIONS))
    def test_error_at_duplicate_keyword(self, kind):
        text = self.DEFINITIONS[kind].format(name="A")
        source = text + "\n" + "  " + text  # second starts at line 5, col 3
        with pytest.raises(DslSyntaxError) as excinfo:
            parse(source)
        error = excinfo.value
        assert (error.line, error.column) == (5, 3)
        assert str(error) == (
            f"duplicate {kind} 'A', first defined on line 1 "
            "(line 5, column 3)"
        )

    def test_first_definition_line_is_its_keyword(self):
        element = self.DEFINITIONS["element"]
        source = (
            element.format(name="A")
            + "\n-- a comment\n"
            + element.format(name="B")
            + element.format(name="B")
        )
        with pytest.raises(DslSyntaxError) as excinfo:
            parse(source)
        assert "first defined on line 6" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (9, 1)

    def test_same_name_across_kinds_is_allowed(self):
        program = parse(
            self.DEFINITIONS["element"].format(name="A")
            + self.DEFINITIONS["filter"].format(name="A")
            + self.DEFINITIONS["app"].format(name="A")
        )
        assert (set(program.elements), set(program.filters),
                set(program.apps)) == ({"A"}, {"A"}, {"A"})

    def test_lint_reports_duplicate_at_its_keyword(self):
        from repro.lint import lint_source

        element = self.DEFINITIONS["element"].format(name="A")
        result = lint_source(element + "\n" + element, path="dup.adn")
        (diagnostic,) = result.diagnostics
        assert diagnostic.code == "ADN101"
        assert (diagnostic.span.line, diagnostic.span.column) == (5, 1)
        assert "found EOF" not in diagnostic.message
