"""OS substrate: physical memory, allocators, tasks, and schedulers.

Import the modules themselves (``repro.os.partition``,
``repro.os.scheduler``, ...): this package re-exports nothing, so
importing it loads no simulator code.
"""
