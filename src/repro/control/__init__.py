"""Control plane: mini cluster manager (:mod:`.k8s`), the ADN controller
(:mod:`.controller`), the placement solver and the plans it makes
(:mod:`.placement`), the autoscaler (:mod:`.scaling`), and the
resilience layer: leases, failover, epoch-fenced configuration
(:mod:`.resilience`).

Import from the submodule. This package imports none of them, so the
toolchain can load the placement solver without the controller, the
fault injector and the runtime they pull in.
"""
