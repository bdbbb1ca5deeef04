"""A third-party stream factory living in a real module.

Registering it is this module's only side effect, so the sweep executor's
spawn bootstrap reaches it only if :func:`repro._registry.plugin_modules`
harvests stream factories too.
"""

from repro.workloads import register_stream_factory
from repro.workloads.streams import conversation_stream


@register_stream_factory("mem-test-conversation")
def mem_test_conversation(*, config):
    """The built-in conversation stream under a plug-in name."""
    return conversation_stream(config=config)
