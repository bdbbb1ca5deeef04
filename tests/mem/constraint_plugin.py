"""A third-party routing constraint living in a real module.

Registering it is this module's only side effect, so the sweep executor's
spawn bootstrap reaches it only if :func:`repro._registry.plugin_modules`
harvests routing constraints too.
"""

from repro.core import DenyRegions, register_constraint


@register_constraint("mem-test-no-asia")
def mem_test_no_asia(topology):
    """Never offload to Asia."""
    return DenyRegions({"asia"})
