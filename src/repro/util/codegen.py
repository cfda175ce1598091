"""Helpers for code generated at run time (translated programs, NoC ports).

Generated functions run in their own namespace dicts.  The interpreter
specializes a function's global lookups for its namespace *inside the
code object*, so one code object shared by namespaces that take turns
(the cores of a platform, the ports of a NoC) would lose that on every
turn: each namespace gets its own copy.
"""

from types import CodeType


def fresh(code):
    """A copy of ``code`` (and of the code it nests) that specializes on
    its own — cheap, no compile."""
    return code.replace(co_consts=tuple(
        fresh(const) if isinstance(const, CodeType) else const
        for const in code.co_consts
    ))
