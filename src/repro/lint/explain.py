"""``repro lint --explain ADNxxx`` — the rule catalog, self-describing.

Every registered rule carries its description (the rule function's
docstring) and default severity in the registry; this module adds a
minimal triggering example per code so ``--explain`` can show what the
finding looks like in source. ``tests/test_lint.py`` asserts the
example table covers every registered rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .registry import Rule, all_rules

#: minimal DSL (or spec) fragment that triggers each registered rule
EXAMPLES: Dict[str, str] = {
    "ADN201": """\
element WriteOnly {
    state audit (ts: float, user: str);
    on request {
        INSERT INTO audit SELECT now(), input.username FROM input;
        SELECT * FROM input;  -- audit is written but never read
    }
}""",
    "ADN202": """\
element Unused {
    state never_touched (k: str KEY, v: int);  -- no handler accesses it
    on request { SELECT * FROM input; }
}""",
    "ADN203": """\
element Unreachable {
    on request {
        SELECT * FROM input WHERE false;  -- folds to constant false
        SELECT * FROM input;
    }
}""",
    "ADN204": """\
element SilentDrop {
    state log_tab (ts: float) APPEND;
    on request {
        INSERT INTO log_tab SELECT now() FROM input;
        -- no SELECT emits: every request is silently dropped here
    }
}""",
    "ADN205": """\
element DeadVar {
    var seq: int = 0;
    on request {
        SET seq = seq + 1;  -- written, never read anywhere
        SELECT * FROM input;
    }
}""",
    "ADN301": """\
element RaceTable {
    state quota (user: str, used: int);
    on request {
        -- read-modify-write with no KEY pinning: replicas would race
        UPDATE quota SET used = used * 2 WHERE user == input.username;
        SELECT * FROM input;
    }
}""",
    "ADN302": """\
element RaceVar {
    var seq: int = 0;
    on request {
        SET seq = seq + 1;
        SELECT input.*, seq AS seq_no FROM input;  -- read back: RMW var
    }
}""",
    "ADN303": """\
element ShardOnly {
    state counters (method: str KEY, hits: int);
    on request {
        -- every access pins the KEY: scales by partitioning only
        UPDATE counters SET hits = hits + 1 WHERE method == input.method;
        SELECT * FROM input;
    }
}""",
    "ADN310": """\
app Reordered {
    service A; service B;
    -- adjacent pair does not commute: the second element reads a field
    -- the first rewrites, so swapping them changes behaviour
    chain A -> B { RewriteUser, AclByUser }
}""",
    "ADN401": """\
element NeedsEverything {
    state big (k: str KEY, v: bytes);
    on request { SELECT * FROM input WHERE contains(big, input.username); }
}
-- lint with --no-engine --no-sidecars --no-kernel and no SmartNICs or
-- programmable switch: no remaining platform can host stateful logic
""",
    "ADN402": """\
app Contradiction {
    service A; service B;
    chain A -> B { Compress @ A, Decompress @ A }
    -- Decompress must sit with the receiver, the pin forces the sender
}""",
    "ADN403": """\
app Fragile {
    service A; service B;
    -- RateLimit holds read-modify-write vars: its state cannot be
    -- replicated, so a crash of its host loses the limiter's history
    chain A -> B { RateLimit }
}""",
    "ADN404": """\
filter retry_forever = retry {
    max_attempts: 5;
    -- no deadline_budget_ms: every transient failure amplifies 5x
};""",
    "ADN405": """\
app NoCustody {
    service gw; service mid; service leaf;
    chain gw -> mid { Logging }                -- no budget established
    chain mid -> leaf { guarded }              -- retry consumes one
}
filter guarded {
    meta { max_retries: 2; deadline_budget_ms: 20.0; }
    use operator retry;
}""",
    "ADN406": """\
element HugeTable {
    state seen (k: str KEY, v: int);
    meta { table_entries: 10000000; }  -- 10M rows x 40 B > NIC memory
    on request { UPDATE seen SET v = 1 WHERE k == input.username; }
}
app Offloaded {
    service A; service B;
    chain A -> B { HugeTable }
}
-- lint with --smartnics: the element passes the eBPF-subset check but
-- its table cannot fit the device; placement falls back to the host
""",
    "ADN407": """\
element DurableLimit {
    meta { checkpoint: true; }  -- recovery is now the controller's job
    state quota (user: str KEY, used: int);
    on request {
        UPDATE quota SET used = used + 1 WHERE user == input.username;
        SELECT * FROM input;
    }
}
app Fragile {
    service A; service B;
    chain A -> B { DurableLimit }
}
-- lint without --standby-controller: the single controller that would
-- replay DurableLimit's checkpoint is itself a point of failure
""",
    "ADN501": """\
element MissingField {
    on request {
        -- 'nonexistent' is guaranteed absent from the schema here
        SELECT input.nonexistent FROM input;
    }
}""",
    "ADN502": """\
element TypeClash {
    on request {
        SELECT input.username + 1 AS bad FROM input;  -- str + int
    }
}""",
    "ADN503": """\
element DivZero {
    on request { SELECT input.obj_id / 0 AS bad FROM input; }
}""",
    "ADN504": """\
element StateClash {
    state t (k: str KEY, v: int);
    on request {
        INSERT INTO t SELECT input.username, input.payload FROM input;
        -- payload: bytes written into v: int
        SELECT * FROM input;
    }
}""",
    "ADN505": """\
element MaybeFault {
    on request {
        -- obj_id - obj_id could be zero; the checker cannot prove it
        SELECT input.username, 1 / (input.obj_id - 7) AS risky FROM input;
    }
}""",
    "ADN601": """\
app Storm {
    service a; service b; service c;
    chain a -> b { r3 }
    chain b -> c { r3 }   -- 3 x 3 = 9x worst-case amplification
}
filter r3 {
    meta { max_retries: 2; deadline_budget_ms: 50.0; }  -- 3 attempts
    use operator retry;
}""",
    "ADN602": """\
app BadBudget {
    service a; service b; service c;
    chain a -> b { tight }
    chain b -> c { loose }   -- child budgets more ms than the parent has
}
filter tight {
    meta { max_retries: 1; deadline_budget_ms: 10.0; }
    use operator retry;
}
filter loose {
    meta { max_retries: 1; deadline_budget_ms: 200.0; }
    use operator retry;
}""",
    "ADN700": """\
element DoubleCharge {
    state counters (method: str KEY, hits: int);
    on request {
        -- not idempotent, not rpc_id-keyed: a retried attempt
        -- increments again (at-least-once delivery double-charges)
        UPDATE counters SET hits = hits + 1 WHERE method == input.method;
        SELECT * FROM input;
    }
}""",
    "ADN701": """\
element OrderDependent {
    state usage (username: str KEY, used: int);
    on request {
        -- the aggregated guard makes this a compare-and-swap: sibling
        -- RPCs racing through fan-out edges interleave differently
        UPDATE usage SET used = used + 1
            WHERE username == input.username
              AND sum_of(usage, used) < 100;
        SELECT * FROM input;
    }
}""",
    "ADN702": """\
element Drifting {
    state cache_tab (obj_id: int KEY, stamp: float);
    on request {
        -- keyed insert (coarse verdict: shardable) but the written
        -- value is nondeterministic: replicas holding the same key
        -- silently diverge, so scale-out must be refused
        INSERT INTO cache_tab SELECT input.obj_id, now() FROM input;
        SELECT * FROM input;
    }
}""",
    "ADN703": """\
element RetryVisible {
    var seq: int = 0;
    on request {
        SET seq = seq + 1;
        -- the emitted field reads state a duplicate attempt has
        -- already advanced: the caller can observe its own retry
        SELECT input.*, seq AS attempt_no FROM input;
    }
}""",
}


def find_rule(code: str) -> Optional[Rule]:
    """Registered rule for ``code`` (case-insensitive), or None."""
    wanted = code.strip().upper()
    for registered in all_rules():
        if registered.code == wanted:
            return registered
    return None


def explain_rule(code: str) -> Optional[str]:
    """Human-readable explainer for one rule code, or None if unknown."""
    registered = find_rule(code)
    if registered is None:
        return None
    lines: List[str] = [
        f"{registered.code} ({registered.name}) — "
        f"default severity: {registered.severity.value}",
        "",
        registered.doc or "(no description)",
    ]
    example = EXAMPLES.get(registered.code)
    if example:
        lines += ["", "Minimal triggering example:", ""]
        lines += ["    " + line for line in example.splitlines()]
    return "\n".join(lines)


def missing_examples() -> List[str]:
    """Registered codes with no example — must stay empty (tested)."""
    return [r.code for r in all_rules() if r.code not in EXAMPLES]
