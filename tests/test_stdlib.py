"""Standard element library: parse/validate + functional behaviour of
every element through the reference interpreter."""

import collections
import random
import zlib

import pytest

from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.stdlib import STDLIB_SOURCES, stdlib_loc, stdlib_source
from repro.errors import DslValidationError
from repro.ir import ElementInstance, analyze_element, build_element_ir

from conftest import make_rpc


@pytest.fixture(scope="module")
def schema():
    return RpcSchema.of(
        "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
    )


@pytest.fixture(scope="module")
def program(schema):
    return load_stdlib(schema=schema)


def instance(program, name, registry=None):
    ir = build_element_ir(program.elements[name])
    analyze_element(ir, registry)
    return ElementInstance(ir, registry)


def strip(rows):
    return [{k: v for k, v in r.items() if isinstance(k, str)} for r in rows]


class TestLibraryShape:
    def test_all_sources_load(self, program):
        assert len(program.elements) == 19
        assert len(program.filters) == 4

    def test_every_element_is_tens_of_lines(self):
        # the paper: "ADN elements have tens of lines of SQL"
        for name in STDLIB_SOURCES:
            assert stdlib_loc(name) <= 30, name

    def test_selective_load(self, schema):
        program = load_stdlib(["Acl"], schema=schema)
        assert set(program.elements) == {"Acl"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            stdlib_source("Nope")


class TestParseMemo:
    """``load_stdlib`` parses each distinct source text once per process
    and, with the default registry, validates it once per distinct set
    of schema fields."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Count the parses and validations ``load_stdlib`` makes, from
        cold memos."""
        from repro.dsl import stdlib

        calls = collections.Counter()
        real_parse = stdlib.parse
        real_validate = stdlib.validate_program

        def counting_parse(text):
            calls["parse"] += 1
            return real_parse(text)

        def counting_validate(*args, **kwargs):
            calls["validate"] += 1
            return real_validate(*args, **kwargs)

        monkeypatch.setattr(stdlib, "parse", counting_parse)
        monkeypatch.setattr(stdlib, "validate_program", counting_validate)
        stdlib._parse.cache_clear()
        stdlib._validated.cache_clear()
        return calls

    def test_repeat_calls_parse_once(self, counts):
        first, second = load_stdlib(), load_stdlib()
        assert counts == {"parse": 1, "validate": 1}
        assert first == second
        assert first.elements is not second.elements
        assert first.filters is not second.filters
        assert first.apps is not second.apps

    def test_mutating_a_result_does_not_leak(self):
        first = load_stdlib()
        first.elements.pop("Acl")
        first.filters.clear()
        second = load_stdlib()
        assert "Acl" in second.elements
        assert len(second.filters) == 4

    def test_patched_source_parses_again(self, counts, monkeypatch):
        assert "Extra" not in load_stdlib(["Acl"]).elements
        monkeypatch.setitem(
            STDLIB_SOURCES,
            "Acl",
            STDLIB_SOURCES["Acl"]
            + "element Extra { on request { SELECT * FROM input; } }\n",
        )
        assert "Extra" in load_stdlib(["Acl"]).elements
        assert counts == {"parse": 2, "validate": 2}
        monkeypatch.undo()
        assert "Extra" not in load_stdlib(["Acl"]).elements
        assert counts == {"parse": 2, "validate": 2}

    def test_validation_errors_are_not_cached(self, counts):
        narrow = RpcSchema.of("narrow", payload=FieldType.INT)
        for _ in range(2):
            with pytest.raises(DslValidationError, match="username"):
                load_stdlib(schema=narrow)
        assert counts == {"parse": 1, "validate": 2}
        assert "Acl" in load_stdlib().elements

    def test_caller_registry_validates_every_call(self, counts):
        registry = FunctionRegistry()
        first = load_stdlib(registry=registry)
        second = load_stdlib(registry=registry)
        assert counts == {"parse": 1, "validate": 2}
        assert first == second == load_stdlib()

    def test_extended_schema_validates_again(self, counts, schema):
        wider = RpcSchema.of("wider", **{
            name: spec.type for name, spec in schema.fields.items()
        })
        load_stdlib(schema=wider)
        wider.add("region", FieldType.STR)
        load_stdlib(schema=wider)
        load_stdlib(schema=wider)
        assert counts == {"parse": 1, "validate": 2}

    def test_no_schema_is_not_an_empty_schema(self, counts):
        assert "Logging" in load_stdlib(["Logging"]).elements
        with pytest.raises(DslValidationError, match="payload"):
            load_stdlib(["Logging"], schema=RpcSchema("empty"))
        assert counts == {"parse": 1, "validate": 2}


class TestLogging:
    def test_forwards_and_records(self, program):
        logger = instance(program, "Logging")
        out = logger.process(make_rpc(), "request")
        assert len(out) == 1
        out = logger.process(make_rpc(kind="response"), "response")
        assert len(out) == 1
        log = logger.state.table("log_tab")
        assert len(log) == 2
        directions = [row["direction"] for row in log.rows()]
        assert directions == ["request", "response"]


class TestAcl:
    def test_writer_allowed(self, program):
        acl = instance(program, "Acl")
        assert acl.process(make_rpc(username="usr2"), "request")

    def test_reader_denied(self, program):
        acl = instance(program, "Acl")
        assert acl.process(make_rpc(username="usr1"), "request") == []

    def test_unknown_user_denied(self, program):
        acl = instance(program, "Acl")
        assert acl.process(make_rpc(username="stranger"), "request") == []

    def test_responses_pass(self, program):
        acl = instance(program, "Acl")
        out = acl.process(make_rpc(username="usr1", kind="response"), "response")
        assert len(out) == 1


class TestFault:
    def test_abort_rate_near_configured(self, program):
        registry = FunctionRegistry(rng=random.Random(3))
        fault = instance(program, "Fault", registry)
        dropped = sum(
            1
            for i in range(2000)
            if not fault.process(make_rpc(rpc_id=i), "request")
        )
        assert 20 <= dropped <= 70  # 2% of 2000 = 40 expected

    def test_responses_never_dropped(self, program):
        registry = FunctionRegistry(rng=random.Random(3))
        fault = instance(program, "Fault", registry)
        for i in range(200):
            assert fault.process(make_rpc(rpc_id=i), "response")


class TestLoadBalancers:
    def seed(self, element):
        table = element.state.table("endpoints")
        table.insert_values([0, "B.1"])
        table.insert_values([1, "B.2"])

    def test_key_hash_deterministic(self, program):
        lb = instance(program, "LbKeyHash")
        self.seed(lb)
        first = lb.process(make_rpc(obj_id=99), "request")[0]["dst"]
        second = lb.process(make_rpc(obj_id=99), "request")[0]["dst"]
        assert first == second

    def test_key_hash_spreads(self, program):
        lb = instance(program, "LbKeyHash")
        self.seed(lb)
        destinations = {
            lb.process(make_rpc(obj_id=i), "request")[0]["dst"]
            for i in range(50)
        }
        assert destinations == {"B.1", "B.2"}

    def test_round_robin_alternates(self, program):
        lb = instance(program, "LbRoundRobin")
        self.seed(lb)
        sequence = [
            lb.process(make_rpc(rpc_id=i), "request")[0]["dst"]
            for i in range(4)
        ]
        assert sequence == ["B.1", "B.2", "B.1", "B.2"]

    def test_no_endpoints_drops(self, program):
        lb = instance(program, "LbKeyHash")
        # empty endpoints table: join never matches — conservative drop
        assert lb.process(make_rpc(), "request") == []


class TestPayloadElements:
    def test_compression_roundtrip_through_chain(self, program):
        compress = instance(program, "Compression")
        decompress = instance(program, "Decompression")
        rpc = make_rpc(payload=b"abc" * 100)
        compressed = compress.process(rpc, "request")[0]
        assert len(compressed["payload"]) < len(rpc["payload"])
        restored = decompress.process(compressed, "request")[0]
        assert restored["payload"] == rpc["payload"]

    def test_encryption_roundtrip(self, program):
        encrypt = instance(program, "Encryption")
        decrypt = instance(program, "Decryption")
        rpc = make_rpc(payload=b"top secret")
        sealed = encrypt.process(rpc, "request")[0]
        assert sealed["payload"] != rpc["payload"]
        opened = decrypt.process(sealed, "request")[0]
        assert opened["payload"] == rpc["payload"]

    def test_compression_response_direction(self, program):
        compress = instance(program, "Compression")
        response = make_rpc(
            kind="response", payload=zlib.compress(b"result data", 1)
        )
        out = compress.process(response, "response")[0]
        assert out["payload"] == b"result data"


class TestAccessControl:
    def test_pair_whitelist(self, program):
        ac = instance(program, "AccessControl")
        table = ac.state.table("acl")
        table.insert({"username": "usr2", "obj_id": 7, "allowed": True})
        table.insert({"username": "usr2", "obj_id": 8, "allowed": False})
        assert ac.process(make_rpc(username="usr2", obj_id=7), "request")
        assert ac.process(make_rpc(username="usr2", obj_id=8), "request") == []
        assert ac.process(make_rpc(username="usr1", obj_id=7), "request") == []


class TestRateLimit:
    def test_burst_then_throttle(self, program):
        registry = FunctionRegistry()
        clock = {"t": 0.0}
        registry.bind_clock(lambda: clock["t"])
        limiter = instance(program, "RateLimit", registry)
        passed = sum(
            1
            for i in range(200)
            if limiter.process(make_rpc(rpc_id=i), "request")
        )
        # burst of 128 tokens, no refill (clock frozen)
        assert passed == 128

    def test_refill_restores_capacity(self, program):
        registry = FunctionRegistry()
        clock = {"t": 0.0}
        registry.bind_clock(lambda: clock["t"])
        limiter = instance(program, "RateLimit", registry)
        for i in range(200):
            limiter.process(make_rpc(rpc_id=i), "request")
        clock["t"] = 1.0  # a full second refills to the burst cap
        assert limiter.process(make_rpc(), "request")


class TestMetrics:
    def test_counts_by_method(self, program):
        metrics = instance(program, "Metrics")
        for _ in range(3):
            metrics.process(make_rpc(method="get"), "request")
        metrics.process(make_rpc(method="put"), "request")
        counters = {
            row["method"]: row["hits"]
            for row in metrics.state.table("counters").rows()
        }
        assert counters == {"get": 3, "put": 1}


class TestRouter:
    def test_pinned_method_rerouted(self, program):
        router = instance(program, "Router")
        router.state.table("routes").insert(
            {"method": "admin", "target": "B.9"}
        )
        out = router.process(make_rpc(method="admin"), "request")
        assert out[0]["dst"] == "B.9"

    def test_unpinned_method_untouched(self, program):
        router = instance(program, "Router")
        router.state.table("routes").insert(
            {"method": "admin", "target": "B.9"}
        )
        out = router.process(make_rpc(method="get"), "request")
        assert len(out) == 1
        assert out[0]["dst"] == "B"


class TestAdmission:
    def test_window_enforced(self, program):
        admission = instance(program, "Admission")
        passed = sum(
            1
            for i in range(2000)
            if admission.process(make_rpc(rpc_id=i), "request")
        )
        assert passed == 1024

    def test_responses_release_window(self, program):
        admission = instance(program, "Admission")
        for i in range(1024):
            admission.process(make_rpc(rpc_id=i), "request")
        assert admission.process(make_rpc(), "request") == []
        admission.process(make_rpc(kind="response"), "response")
        assert admission.process(make_rpc(), "request")


class TestMirror:
    def test_mirrors_a_sample(self, program):
        registry = FunctionRegistry(rng=random.Random(5))
        mirror = instance(program, "Mirror", registry)
        copies = 0
        for i in range(2000):
            out = mirror.process(make_rpc(rpc_id=i), "request")
            assert len(out) >= 1
            copies += len(out) - 1
            if len(out) == 2:
                assert out[1]["dst"] == "shadow"
        assert 5 <= copies <= 50  # ~1% of 2000


class TestCache:
    def test_responses_populate_cache(self, program):
        cache = instance(program, "Cache")
        cache.process(
            make_rpc(kind="response", obj_id=5, payload=b"val"), "response"
        )
        row = cache.state.table("cache_tab").get(5)
        assert row is not None
        assert row["payload"] == b"val"


class TestSizeLimit:
    def test_oversized_dropped(self, program):
        limiter = instance(program, "SizeLimit")
        assert limiter.process(make_rpc(payload=b"x" * 100), "request")
        assert (
            limiter.process(make_rpc(payload=b"x" * 70000), "request") == []
        )


class TestGlobalQuota:
    def test_counts_usage_per_user(self, program):
        quota = instance(program, "GlobalQuota")
        for i in range(3):
            quota.process(make_rpc(rpc_id=i, username="usr2"), "request")
        quota.process(make_rpc(username="usr1"), "request")
        usage = {
            row["username"]: row["used"]
            for row in quota.state.table("usage").rows()
        }
        assert usage == {"usr2": 3, "usr1": 1}

    def test_quota_exhaustion_blocks(self, program):
        quota = instance(program, "GlobalQuota")
        table = quota.state.table("usage")
        table.insert({"username": "whale", "used": 100000})
        assert quota.process(make_rpc(username="usr2"), "request") == []
        # and usage is not incremented for blocked requests
        usage = {r["username"]: r["used"] for r in table.rows()}
        assert "usr2" not in usage
