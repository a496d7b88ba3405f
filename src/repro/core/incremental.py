"""Incremental (streaming) semi-local kernels.

The kernel ``P_{a,b}`` records the strand state on the exit boundary of
``a``'s grid, so the kernel of ``a · block`` is the comb of ``a``
continued through the block's rows
(:func:`repro.core.compose.extend_kernel`). :class:`KernelBuilder` keeps
``P_{a,b}`` while ``a`` grows — append characters or whole blocks, and
pay ``|block| * n`` combed cells plus O(m + n) relabelling per append,
instead of recombing everything.

Typical uses: scoring a growing query against a fixed reference, or
combing a huge ``a`` in bounded-memory blocks.

>>> import numpy as np
>>> from repro.core.incremental import KernelBuilder
>>> builder = KernelBuilder("semilocal")
>>> for block in ("semi", "-", "local"):
...     builder.append(block)
>>> builder.kernel().lcs_whole()
9
"""

from __future__ import annotations

import numpy as np

from ..alphabet import concat, encode
from ..types import CodeArray, PermArray, Sequenceish
from .compose import extend_kernel
from .kernel import SemiLocalKernel


class KernelBuilder:
    """Maintains ``P_{a,b}`` for a fixed ``b`` while ``a`` is appended to.

    Parameters
    ----------
    b:
        The fixed second string.
    """

    def __init__(self, b: Sequenceish):
        self._cb: CodeArray = encode(b)
        self._a_parts: list[CodeArray] = []
        self._m = 0
        # kernel of the empty a against b: the identity of order n
        self._kernel: PermArray = np.arange(self._cb.size, dtype=np.int64)

    # -- growing ---------------------------------------------------------

    def append(self, block: Sequenceish) -> "KernelBuilder":
        """Append *block* to the end of ``a`` and update the kernel."""
        cblock = encode(block)
        if cblock.size == 0:
            return self
        self._kernel = extend_kernel(self._kernel, self._m, cblock, self._cb)
        self._a_parts.append(cblock)
        self._m += cblock.size
        return self

    def extend(self, blocks) -> "KernelBuilder":
        """Append every block of an iterable."""
        for block in blocks:
            self.append(block)
        return self

    # -- reading -----------------------------------------------------------

    @property
    def m(self) -> int:
        """Current length of ``a``."""
        return self._m

    @property
    def n(self) -> int:
        """Length of the fixed ``b``."""
        return int(self._cb.size)

    def a(self) -> CodeArray:
        """The accumulated first string."""
        return concat(self._a_parts)

    def raw_kernel(self) -> PermArray:
        """The current kernel permutation (a copy)."""
        return self._kernel.copy()

    def kernel(self) -> SemiLocalKernel:
        """The current kernel wrapped for score queries."""
        return SemiLocalKernel(self._kernel, self._m, self.n, validate=False)

    def lcs(self) -> int:
        """Current ``LCS(a, b)`` without materializing a query structure
        beyond the one the kernel wrapper builds."""
        return self.kernel().lcs_whole()

    def __repr__(self) -> str:
        return f"KernelBuilder(m={self._m}, n={self.n}, blocks={len(self._a_parts)})"
