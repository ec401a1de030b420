"""Hot element update (§5.2): "State decoupling also enables us to
hot-update element processing logic."

Traffic runs continuously while the operator re-applies the ADNConfig
with changed element logic; the controller swaps the compiled modules on
the live processors and carries their state across. Zero dropped RPCs,
and the accumulated state (the logger's records) survives the swap.
"""

import pytest

from repro.control.controller import AdnController
from repro.control.k8s import MiniKube
from repro.dsl import FieldType, RpcSchema
from repro.runtime.message import reset_rpc_ids
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

from bench_harness import bench_assert, print_table

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)

APP_V1 = """
app Shop {
    service A;
    service B;
    chain A -> B { Logging, Fault }
}
"""

# v2 changes the fault element's logic (doubled abort probability) —
# a realistic policy tweak pushed without restarting anything
APP_V2 = """
element Fault2 {
    meta { abort_probability: 0.04; }
    on request { SELECT * FROM input WHERE rand() >= 0.04; }
    on response { SELECT * FROM input; }
}
app Shop {
    service A;
    service B;
    chain A -> B { Logging, Fault2 }
}
"""


@pytest.fixture(scope="module")
def hot_update_run():
    reset_rpc_ids()
    kube = MiniKube()
    controller = AdnController(kube, SCHEMA)
    kube.apply_adn_config("shop", APP_V1, "Shop")
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    stack = controller.install_stack(sim, cluster, "A", "B")

    phase1 = ClosedLoopClient(
        sim, stack.call, concurrency=16, total_rpcs=2000
    ).run()
    log_len_before = len(
        stack.processors[0].element_state("Logging").table("log_tab")
    )

    # push the same-shape update (same chain length/placement) so the
    # controller hot-swaps in place; Fault -> Fault with new logic
    kube.apply_adn_config(
        "shop", APP_V2.replace("Fault2", "Fault"), "Shop"
    )
    still_same_stack = controller.installed[("A", "B")].stack is stack

    phase2 = ClosedLoopClient(
        sim, stack.call, concurrency=16, total_rpcs=2000, seed=2
    ).run()
    log_len_after = len(
        stack.processors[0].element_state("Logging").table("log_tab")
    )
    return {
        "phase1": phase1,
        "phase2": phase2,
        "log_before": log_len_before,
        "log_after": log_len_after,
        "in_place": still_same_stack,
    }


def test_hot_update_table(hot_update_run, benchmark):
    def report():
        run = hot_update_run
        return print_table(
            "Hot element update (Fault 2% -> 4%)",
            rows=["before update", "after update"],
            columns=["completed", "aborted"],
            cell=lambda row, col: float(
                getattr(
                    run["phase1" if row == "before update" else "phase2"],
                    col,
                )
            ),
        )

    bench_assert(benchmark, report)


def test_update_happened_in_place(hot_update_run, benchmark):
    def check():
        assert hot_update_run["in_place"]

    bench_assert(benchmark, check)


def test_no_traffic_lost(hot_update_run, benchmark):
    def check():
        assert hot_update_run["phase1"].completed == 2000
        assert hot_update_run["phase2"].completed == 2000

    bench_assert(benchmark, check)


def test_new_logic_took_effect(hot_update_run, benchmark):
    def check():
        before = hot_update_run["phase1"].aborted
        after = hot_update_run["phase2"].aborted
        # 2% -> 4%: abort count should roughly double
        assert after > before * 1.3, (before, after)
        return before, after

    bench_assert(benchmark, check)


def test_logger_state_carried_across(hot_update_run, benchmark):
    def check():
        assert hot_update_run["log_before"] > 0
        assert (
            hot_update_run["log_after"] > hot_update_run["log_before"]
        )

    bench_assert(benchmark, check)
