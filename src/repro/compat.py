"""Interpreter-version shims, declared once.

The supported floor is Python 3.9 (what CI's oldest job runs); anything
that needs a newer interpreter is spelled here so the modules that use
it do not each restate the version test.
"""

from __future__ import annotations

import sys

#: Keyword arguments for ``@dataclass(**SLOTTED)``: a fixed attribute
#: layout (``__slots__``, no per-instance ``__dict__``) where the
#: interpreter can generate one — ``dataclass(slots=True)`` exists from
#: Python 3.10; older interpreters fall back to normal dataclasses, so
#: nothing may *rely* on the missing ``__dict__``.
SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}
