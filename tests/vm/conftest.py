"""Shared helpers for the VM suites."""


def machine_state(vm):
    """Every architectural list a fused run may cache or write."""
    return {
        "gpr": vm.gpr, "xmm_lo": vm.xmm_lo, "xmm_hi": vm.xmm_hi,
        "flags": vm.flags, "rng": vm.rng, "mem": vm.mem,
    }
