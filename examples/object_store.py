#!/usr/bin/env python3
"""The paper's §2 example, end to end through the control plane.

An application with two services: A calls B; B has two replicas, each
holding a subset of the object-identifier space. The developer wants
the network to (1) load-balance requests to B.1/B.2 by the object id in
the request, (2) compress/decompress the payload, and (3) perform
access control on user+object identifiers — all without touching the
application or wrapping RPCs in HTTP/TCP.

The whole network is the `app` spec below. The controller compiles it,
places it, and updates it live when B scales.

Run:  python examples/object_store.py
"""

from repro import FieldType, RpcSchema
from repro.control.controller import AdnController
from repro.control.k8s import MiniKube
from repro.runtime.message import reset_rpc_ids
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

APP_SPEC = """
app ObjectStore {
    service A;
    service B replicas 2;
    chain A -> B { LbKeyHash, Compression, Decompression, AccessControl }
    constrain Compression colocate sender;
    constrain Decompression colocate receiver;
    constrain AccessControl outside_app;
    guarantee reliable ordered;
}
"""

OBJECT_SPACE = 64


def main() -> None:
    schema = RpcSchema.of(
        "objectstore",
        payload=FieldType.BYTES,
        username=FieldType.STR,
        obj_id=FieldType.INT,
    )

    # -- control plane: apply the ADNConfig and the deployment ---------
    kube = MiniKube()
    controller = AdnController(kube, schema)
    kube.apply_deployment("B", replicas=2)
    kube.apply_adn_config("objectstore", APP_SPEC, "ObjectStore")
    print("--- controller reconciliation log ---")
    for record in controller.history:
        for action in record.actions:
            print(f"  gen {record.generation}: {action}")

    chain = controller.installed[("A", "B")].chain
    print(f"\noptimized chain order: {' -> '.join(chain.element_order)}")

    # -- data plane: install and drive traffic -------------------------
    reset_rpc_ids()
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    stack = controller.install_stack(sim, cluster, "A", "B")

    # whitelist the object space for the writing user
    for processor in stack.processors:
        if "AccessControl" in processor.segment.elements:
            acl = processor.element_state("AccessControl").table("acl")
            for obj_id in range(OBJECT_SPACE):
                acl.insert(
                    {"username": "usr2", "obj_id": obj_id, "allowed": True}
                )

    def workload(rng, index):
        return {
            "payload": b"object-contents " * 16,
            "username": "usr2" if rng.random() < 0.95 else "usr1",
            "obj_id": rng.randrange(OBJECT_SPACE),
        }

    client = ClosedLoopClient(
        sim,
        stack.call,
        concurrency=32,
        total_rpcs=3000,
        warmup_rpcs=300,
        fields_fn=workload,
    )
    metrics = client.run()
    print("\n--- phase 1: two replicas ---")
    print(f"rate {metrics.throughput_krps:.1f} krps, "
          f"median {metrics.latency.median_us():.1f} us, "
          f"aborted {metrics.aborted} (usr1 has no write permission)")

    # -- live reconfiguration: B scales to 3 replicas ------------------
    kube.apply_deployment("B", replicas=3)
    lb_table = None
    for processor in stack.processors:
        if "LbKeyHash" in processor.segment.elements:
            lb_table = processor.element_state("LbKeyHash").table("endpoints")
    assert lb_table is not None
    replicas = sorted(row["replica"] for row in lb_table.rows())
    print(f"\ncontroller pushed new endpoints live: {replicas}")

    client2 = ClosedLoopClient(
        sim,
        stack.call,
        concurrency=32,
        total_rpcs=3000,
        warmup_rpcs=300,
        seed=2,
        fields_fn=workload,
    )
    metrics2 = client2.run()
    print("--- phase 2: three replicas (no restart, no dropped RPCs) ---")
    print(f"rate {metrics2.throughput_krps:.1f} krps, "
          f"median {metrics2.latency.median_us():.1f} us")

    # -- show where each object went -----------------------------------
    from repro.dsl import DEFAULT_REGISTRY

    hash_fn = DEFAULT_REGISTRY.get("hash").impl
    routed = {}
    for obj_id in range(8):
        index = hash_fn(obj_id) % len(replicas)
        routed.setdefault(replicas[index], []).append(obj_id)
    print("\nobject placement by key hash (first 8 ids):")
    for replica, objects in sorted(routed.items()):
        print(f"  {replica}: {objects}")


if __name__ == "__main__":
    main()
