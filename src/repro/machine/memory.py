"""Updatable data memory: named scalar locations and bounds-checked arrays.

The paper's memory model (Section 2.2): locations can be written more than
once; the result of a read depends on the order of operations, so correct
ordering must be enforced by the program graph, not by this unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MemoryFault
from .istructure import IStructureMemory


class DataMemory:
    """Scalar and array storage.  Unwritten scalars read as 0; arrays are
    zero-initialized at their declared size."""

    def __init__(
        self,
        scalars: dict[str, int] | None = None,
        arrays: dict[str, int] | None = None,
    ):
        self.scalars: dict[str, int] = dict(scalars or {})
        self.arrays: dict[str, list[int]] = {
            name: [0] * size for name, size in (arrays or {}).items()
        }

    @staticmethod
    def for_program(prog, inputs: dict[str, int] | None = None) -> "DataMemory":
        """Memory sized for a parsed :class:`~repro.lang.Program`: every
        program scalar is explicitly initialized (to its ``inputs`` value or
        0), so final snapshots are comparable across execution paths."""
        inputs = inputs or {}
        scalars = {
            v: inputs.get(v, 0)
            for v in prog.variables()
            if v not in prog.arrays
        }
        for name in inputs:
            if name in prog.arrays:
                raise MemoryFault(f"{name!r} is an array, not a scalar input")
            scalars[name] = inputs[name]
        mem = DataMemory(scalars=scalars, arrays=prog.arrays)
        return mem

    # -- scalars ----------------------------------------------------------

    def read(self, var: str) -> int:
        if var in self.arrays:
            raise MemoryFault(f"scalar read of array {var!r}")
        return self.scalars.get(var, 0)

    def write(self, var: str, value: int) -> None:
        if var in self.arrays:
            raise MemoryFault(f"scalar write of array {var!r}")
        self.scalars[var] = value

    # -- arrays -----------------------------------------------------------

    def aread(self, arr: str, index: int) -> int:
        cells = self._cells(arr, index)
        return cells[index]

    def awrite(self, arr: str, index: int, value: int) -> None:
        cells = self._cells(arr, index)
        cells[index] = value

    def _cells(self, arr: str, index: int) -> list[int]:
        try:
            cells = self.arrays[arr]
        except KeyError:
            raise MemoryFault(f"unknown array {arr!r}") from None
        if not 0 <= index < len(cells):
            raise MemoryFault(
                f"index {index} out of bounds for {arr!r}[{len(cells)}]"
            )
        return cells

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> dict[str, int | list[int]]:
        """Final state for equivalence checks: scalar values plus array
        contents (copies)."""
        out: dict[str, int | list[int]] = dict(self.scalars)
        for name, cells in self.arrays.items():
            out[name] = list(cells)
        return out

    def copy(self) -> "DataMemory":
        m = DataMemory()
        m.scalars = dict(self.scalars)
        m.arrays = {k: list(v) for k, v in self.arrays.items()}
        return m


@dataclass(frozen=True)
class MemorySpec:
    """The memory image a compiled program runs against, as three flat
    tuples: the scalars (each initialized to its input value or 0), the
    updatable arrays and the I-structure arrays, both as (name, size)
    pairs.  Built once per compiled program; both scheduler loops build
    their memory from it."""

    scalars: tuple[str, ...] = ()
    arrays: tuple[tuple[str, int], ...] = ()
    istruct_arrays: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, prog, istructure_arrays=()) -> "MemorySpec":
        """The spec of a parsed :class:`~repro.lang.Program` whose
        ``istructure_arrays`` were promoted to I-structures."""
        return cls(
            scalars=tuple(
                v for v in prog.variables() if v not in prog.arrays
            ),
            arrays=tuple(
                (name, size)
                for name, size in prog.arrays.items()
                if name not in istructure_arrays
            ),
            istruct_arrays=tuple(
                (name, prog.arrays[name]) for name in istructure_arrays
            ),
        )

    def image(
        self, inputs: dict[str, int] | None = None
    ) -> tuple[DataMemory, IStructureMemory]:
        """A fresh memory image: ``inputs`` name scalars.  An input that
        names an array raises :class:`MemoryFault`, as
        :meth:`DataMemory.for_program` does for the reference
        interpreters."""
        inputs = inputs or {}
        array_names = {name for name, _ in self.arrays}
        array_names.update(name for name, _ in self.istruct_arrays)
        scalars = {v: inputs.get(v, 0) for v in self.scalars}
        for name, value in inputs.items():
            if name in array_names:
                raise MemoryFault(f"{name!r} is an array, not a scalar input")
            scalars[name] = value
        mem = DataMemory(scalars=scalars, arrays=dict(self.arrays))
        return mem, IStructureMemory(dict(self.istruct_arrays))
