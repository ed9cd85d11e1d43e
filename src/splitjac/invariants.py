"""Internal consistency checks that hold whatever the interpreter flags.

``assert`` statements vanish under ``python -O``; :func:`check` does not.
:class:`InvariantViolation` subclasses ``AssertionError`` so that callers
treating a failed assertion as an internal error (the CLI maps it to exit
code 3) handle both alike.
"""

from __future__ import annotations


class InvariantViolation(AssertionError):
    """An internal invariant of the computation failed."""


def check(cond, msg: str, *args) -> None:
    """Raise :class:`InvariantViolation` unless ``cond`` holds.

    The message is ``msg % args``, formatted only on failure, so a check in
    a loop does not pay for the text of its message.
    """
    if not cond:
        raise InvariantViolation(msg % args if args else msg)
