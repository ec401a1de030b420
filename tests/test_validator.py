"""Semantic validator unit tests."""

import pytest

from repro.dsl import FieldType, RpcSchema
from repro.dsl.ast_nodes import ColumnRef, FuncCall, SelectItem, SelectStmt, VarRef
from repro.dsl.parser import parse, parse_element
from repro.dsl.validator import (
    validate_app,
    validate_element,
    validate_filter,
    validate_program,
)
from repro.errors import DslValidationError


def check(source, schema=None):
    return validate_element(parse_element(source), schema=schema)


SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


class TestDeclarations:
    def test_duplicate_state_table(self):
        with pytest.raises(DslValidationError, match="duplicate state"):
            check(
                """
                element E {
                    state t (k: int KEY, v: str);
                    state t (k: int KEY, v: str);
                    on request { SELECT * FROM input; }
                }
                """
            )

    def test_state_named_input_rejected(self):
        with pytest.raises(DslValidationError, match="may not be named"):
            check(
                """
                element E {
                    state input (k: int KEY, v: str);
                    on request { SELECT * FROM input; }
                }
                """
            )

    def test_duplicate_column(self):
        with pytest.raises(DslValidationError, match="duplicate column"):
            check(
                """
                element E {
                    state t (k: int KEY, k: str);
                    on request { SELECT * FROM input; }
                }
                """
            )

    def test_var_initializer_type_mismatch(self):
        with pytest.raises(DslValidationError, match="initializer"):
            check(
                """
                element E {
                    var n: int = 'nope';
                    on request { SELECT * FROM input; }
                }
                """
            )

    def test_int_initializer_ok_for_float_var(self):
        # SQL numeric coercion: float vars accept int literals
        check(
            """
            element E {
                var f: float = 0;
                on request { SELECT * FROM input; }
            }
            """
        )

    def test_unknown_meta_key(self):
        with pytest.raises(DslValidationError, match="unknown meta key"):
            check(
                """
                element E {
                    meta { postion: sender; }
                    on request { SELECT * FROM input; }
                }
                """
            )

    def test_bad_position_value(self):
        with pytest.raises(DslValidationError, match="position"):
            check(
                """
                element E {
                    meta { position: middle; }
                    on request { SELECT * FROM input; }
                }
                """
            )

    def test_no_handlers_rejected(self):
        with pytest.raises(DslValidationError, match="no handlers"):
            check("element E { var x: int = 1; }")

    def test_duplicate_handler_rejected(self):
        with pytest.raises(DslValidationError, match="duplicate"):
            check(
                """
                element E {
                    on request { SELECT * FROM input; }
                    on request { SELECT * FROM input; }
                }
                """
            )


class TestReferences:
    def test_unknown_table(self):
        with pytest.raises(DslValidationError, match="unknown table"):
            check(
                """
                element E {
                    on request {
                        SELECT input.* FROM input JOIN nope ON nope.k == 1;
                    }
                }
                """
            )

    def test_unknown_column_in_table(self):
        with pytest.raises(DslValidationError, match="no column"):
            check(
                """
                element E {
                    state t (k: int KEY, v: str);
                    on request {
                        SELECT input.* FROM input JOIN t ON t.zzz == 1;
                    }
                }
                """
            )

    def test_unknown_input_field_with_schema(self):
        with pytest.raises(DslValidationError, match="unknown input field"):
            check(
                """
                element E {
                    on request { SELECT input.nope FROM input; }
                }
                """,
                schema=SCHEMA,
            )

    def test_open_schema_accepts_any_field(self):
        check("element E { on request { SELECT input.whatever FROM input; } }")

    def test_var_resolution(self):
        element = check(
            """
            element E {
                var n: int = 0;
                on request { SELECT * FROM input WHERE n < 5; }
            }
            """
        )
        stmt = element.handlers[0].statements[0]
        assert isinstance(stmt, SelectStmt)
        assert VarRef("n") in _leaves(stmt.where)

    def test_bare_column_resolves_to_joined_table(self):
        element = check(
            """
            element E {
                state t (k: int KEY, v: str);
                on request {
                    SELECT input.* FROM input JOIN t ON k == input.obj_id;
                }
            }
            """,
            schema=SCHEMA,
        )
        stmt = element.handlers[0].statements[0]
        assert ColumnRef("t", "k") in _leaves(stmt.joins[0].on)

    def test_set_undeclared_var(self):
        with pytest.raises(DslValidationError, match="undeclared var"):
            check(
                """
                element E {
                    on request { SET nope = 1; SELECT * FROM input; }
                }
                """
            )

    def test_append_only_table_not_readable(self):
        with pytest.raises(DslValidationError, match="cannot be read"):
            check(
                """
                element E {
                    state t (x: int) APPEND;
                    on request {
                        SELECT input.* FROM input JOIN t ON t.x == 1;
                    }
                }
                """
            )

    def test_append_only_table_not_updatable(self):
        with pytest.raises(DslValidationError, match="cannot be updated"):
            check(
                """
                element E {
                    state t (x: int) APPEND;
                    on request { UPDATE t SET x = 1; SELECT * FROM input; }
                }
                """
            )


class TestTypesAndFunctions:
    def test_string_plus_rejected(self):
        with pytest.raises(DslValidationError, match="concat"):
            check(
                "element E { on request { SELECT 'a' + 'b' AS x FROM input; } }"
            )

    def test_arith_on_bool_rejected(self):
        with pytest.raises(DslValidationError, match="non-numeric"):
            check(
                "element E { on request { SELECT true + 1 AS x FROM input; } }"
            )

    def test_compare_str_with_int_rejected(self):
        with pytest.raises(DslValidationError, match="cannot compare"):
            check(
                "element E { on request { SELECT * FROM input WHERE 'a' > 3; } }"
            )

    def test_where_must_be_boolean(self):
        with pytest.raises(DslValidationError, match="boolean"):
            check("element E { on request { SELECT * FROM input WHERE 1 + 2; } }")

    def test_unknown_function(self):
        with pytest.raises(DslValidationError, match="unknown function"):
            check(
                "element E { on request { SELECT frobnicate(1) AS x FROM input; } }"
            )

    def test_function_arity(self):
        with pytest.raises(DslValidationError, match="argument"):
            check(
                "element E { on request { SELECT hash(1, 2) AS x FROM input; } }"
            )

    def test_count_requires_table_name(self):
        with pytest.raises(DslValidationError, match="state-table name"):
            check(
                "element E { on request { SELECT * FROM input WHERE count(input.x) == 0; } }"
            )

    def test_contains_resolves_key_arg(self):
        element = check(
            """
            element E {
                state t (k: str KEY, v: int);
                on request {
                    SELECT * FROM input WHERE contains(t, input.username);
                }
            }
            """,
            schema=SCHEMA,
        )
        stmt = element.handlers[0].statements[0]
        call = stmt.where
        assert isinstance(call, FuncCall)
        assert call.args[1] == ColumnRef("input", "username")

    def test_readonly_meta_field_write_rejected(self):
        with pytest.raises(DslValidationError, match="read-only"):
            check(
                "element E { on request { SELECT input.*, 99 AS rpc_id FROM input; } }"
            )

    def test_dst_is_writable(self):
        check(
            "element E { on request { SELECT input.*, 'B.1' AS dst FROM input; } }"
        )


class TestInsertChecks:
    def test_insert_arity_mismatch(self):
        with pytest.raises(DslValidationError, match="values"):
            check(
                """
                element E {
                    state t (a: int KEY, b: str);
                    init { INSERT INTO t VALUES (1); }
                    on request { SELECT * FROM input; }
                }
                """
            )

    def test_insert_type_mismatch(self):
        with pytest.raises(DslValidationError, match="expects"):
            check(
                """
                element E {
                    state t (a: int KEY, b: str);
                    init { INSERT INTO t VALUES ('x', 'y'); }
                    on request { SELECT * FROM input; }
                }
                """
            )

    def test_insert_select_column_count(self):
        with pytest.raises(DslValidationError, match="expressions for"):
            check(
                """
                element E {
                    state t (a: int KEY, b: str);
                    on request {
                        INSERT INTO t SELECT input.obj_id FROM input;
                        SELECT * FROM input;
                    }
                }
                """,
                schema=SCHEMA,
            )

    def test_init_cannot_read_input(self):
        with pytest.raises(DslValidationError, match="input"):
            check(
                """
                element E {
                    state t (a: int KEY);
                    init { INSERT INTO t SELECT input.obj_id FROM input; }
                    on request { SELECT * FROM input; }
                }
                """
            )


class TestProgramValidation:
    def test_filter_unknown_operator(self):
        program = parse("filter F { use operator frob; }")
        with pytest.raises(DslValidationError, match="unknown operator"):
            validate_filter(program.filters["F"])

    @pytest.mark.parametrize(
        "operator, key",
        [
            ("retry", "max_retries"),
            ("retry", "timeout_ms"),
            ("retry", "backoff_ms"),
            ("retry", "deadline_budget_ms"),
            ("timeout", "timeout_ms"),
            ("rate_limit_shaper", "rate"),
            ("congestion_control", "window"),
            ("circuit_breaker", "failure_threshold"),
            ("circuit_breaker", "reset_ms"),
        ],
    )
    @pytest.mark.parametrize("value", ['"x"', "true", "fast"])
    def test_filter_numeric_meta_must_be_a_number(self, operator, key, value):
        # the runtime converts these with int()/float(); a string or a
        # bool is a validation error, not a crash in a later analysis
        program = parse(
            f"filter F {{ meta {{ {key}: {value}; }} use operator {operator}; }}"
        )
        with pytest.raises(DslValidationError, match=f"meta '{key}' must be"):
            validate_filter(program.filters["F"])

    def test_filter_numeric_meta_accepts_numbers(self):
        program = parse(
            "filter F { meta { max_retries: 2; timeout_ms: 5.0; "
            "retry_on: 'timeout'; } use operator retry; }"
        )
        assert validate_filter(program.filters["F"]) is program.filters["F"]

    def test_app_unknown_service(self):
        program = parse(
            """
            element E { on request { SELECT * FROM input; } }
            app P { service a; chain a -> ghost { E } }
            """
        )
        with pytest.raises(DslValidationError, match="unknown service"):
            validate_app(program.apps["P"], program)

    def test_app_unknown_element(self):
        program = parse("app P { service a; service b; chain a -> b { Ghost } }")
        with pytest.raises(DslValidationError, match="unknown element"):
            validate_app(program.apps["P"], program)

    def test_app_self_chain_rejected(self):
        program = parse(
            """
            element E { on request { SELECT * FROM input; } }
            app P { service a; service a2; chain a -> a { E } }
            """
        )
        with pytest.raises(DslValidationError, match="must differ"):
            validate_app(program.apps["P"], program)

    def test_constraint_references_chained_element(self):
        program = parse(
            """
            element E { on request { SELECT * FROM input; } }
            element F { on request { SELECT * FROM input; } }
            app P {
                service a; service b;
                chain a -> b { E }
                constrain F outside_app;
            }
            """
        )
        with pytest.raises(DslValidationError, match="not in any chain"):
            validate_program(program)

    def test_whole_program_validates(self):
        program = parse(
            """
            element E { on request { SELECT * FROM input; } }
            filter F { use operator timeout; }
            app P { service a; service b; chain a -> b { E, F } }
            """
        )
        validated = validate_program(program, schema=SCHEMA)
        assert set(validated.elements) == {"E"}
        assert set(validated.filters) == {"F"}


def _leaves(expr):
    from repro.ir.expr_utils import walk

    return list(walk(expr))
