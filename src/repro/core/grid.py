"""The structured grid and its patch layout.

A :class:`Grid` is a single-level regular Cartesian mesh over a physical
box, partitioned into equally-sized patches ("the grid is partitioned
into equally-sized patches for parallelization", paper Sec. VII-A; the
evaluation fixes an 8x8x2 patch layout).  Multi-level AMR, which full
Uintah supports, is outside the paper's experiments and therefore out of
scope here (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import functools

from repro.core.patch import Patch, Region, FACES


class _PatchTable:
    """Every patch of one grid, built once: the grid's immutable patch table.

    Holds the :class:`Patch` objects in id order, a layout-index lookup,
    and per patch (by id) its physical-boundary faces and the number of
    one-deep ghost cells on those faces (the boundary-condition fill).
    """

    __slots__ = ("patches", "by_index", "boundary_faces", "boundary_cells")

    def __init__(self, grid: "Grid"):
        layout, ex = grid.layout, grid.patch_extent
        patches: list[Patch] = []
        for iz in range(layout[2]):
            for iy in range(layout[1]):
                for ix in range(layout[0]):
                    index = (ix, iy, iz)
                    low = tuple(index[a] * ex[a] for a in range(3))
                    high = tuple(low[a] + ex[a] for a in range(3))
                    # x-major loop order: the running count is the patch id
                    patches.append(Patch(len(patches), index, Region(low, high)))
        self.patches = tuple(patches)
        self.by_index = {p.index: p for p in patches}
        # a face is on the domain boundary iff stepping across it leaves
        # the layout (exactly when ``Grid.neighbor`` returns None)
        self.boundary_faces = tuple(
            tuple(
                (axis, side)
                for axis, side in FACES
                if not 0 <= p.index[axis] + side < layout[axis]
            )
            for p in patches
        )
        self.boundary_cells = tuple(
            sum(p.ghost_region(axis, side).num_cells for axis, side in faces)
            for p, faces in zip(patches, self.boundary_faces)
        )


@dataclasses.dataclass(frozen=True)
class Grid:
    """A regular grid of ``extent`` cells split into ``layout`` patches.

    Parameters
    ----------
    extent:
        Global cells per axis ``(Nx, Ny, Nz)``.
    layout:
        Patches per axis ``(Px, Py, Pz)``; must divide ``extent``.
    domain_low / domain_high:
        Physical bounds of the box; cell spacing follows.
    """

    extent: tuple[int, int, int]
    layout: tuple[int, int, int] = (1, 1, 1)
    domain_low: tuple[float, float, float] = (0.0, 0.0, 0.0)
    domain_high: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        for axis in range(3):
            n, p = self.extent[axis], self.layout[axis]
            if n < 1 or p < 1:
                raise ValueError(f"extent/layout must be positive, got {self.extent}/{self.layout}")
            if n % p:
                raise ValueError(
                    f"layout {self.layout} does not divide extent {self.extent} on axis {axis}"
                )
            if self.domain_high[axis] <= self.domain_low[axis]:
                raise ValueError("domain_high must exceed domain_low")

    # -- geometry -------------------------------------------------------------
    @property
    def spacing(self) -> tuple[float, float, float]:
        """Cell width per axis (dx, dy, dz)."""
        return tuple(  # type: ignore[return-value]
            (hi - lo) / n for lo, hi, n in zip(self.domain_low, self.domain_high, self.extent)
        )

    @property
    def patch_extent(self) -> tuple[int, int, int]:
        """Cells per patch per axis."""
        return tuple(n // p for n, p in zip(self.extent, self.layout))  # type: ignore[return-value]

    @property
    def num_cells(self) -> int:
        """Total cells in the grid."""
        nx, ny, nz = self.extent
        return nx * ny * nz

    @property
    def num_patches(self) -> int:
        """Total patches in the layout."""
        px, py, pz = self.layout
        return px * py * pz

    def cell_center(self, cell: tuple[int, int, int]) -> tuple[float, float, float]:
        """Physical coordinates of a cell's centroid."""
        dx = self.spacing
        return tuple(  # type: ignore[return-value]
            self.domain_low[a] + (cell[a] + 0.5) * dx[a] for a in range(3)
        )

    # -- patches ------------------------------------------------------------------
    def patch_index_to_id(self, index: tuple[int, int, int]) -> int:
        """Serial patch id from layout coordinates (x-major)."""
        px, py, pz = self.layout
        ix, iy, iz = index
        if not (0 <= ix < px and 0 <= iy < py and 0 <= iz < pz):
            raise IndexError(f"patch index {index} outside layout {self.layout}")
        return (iz * py + iy) * px + ix

    @functools.cached_property
    def _table(self) -> _PatchTable:
        # built on first use and cached on the instance (not in a
        # module-level cache), so it dies with the grid
        return _PatchTable(self)

    def patch(self, index: tuple[int, int, int]) -> Patch:
        """The patch at layout coordinates ``index`` (the same object every call)."""
        try:
            return self._table.by_index[index]
        except (KeyError, TypeError):
            # outside the layout (IndexError) or not a tuple: go by the id
            return self._table.patches[self.patch_index_to_id(tuple(index))]

    def patches(self) -> list[Patch]:
        """All patches, ordered by patch id (a fresh list over the table)."""
        return list(self._table.patches)

    def neighbor(self, patch: Patch, axis: int, side: int) -> Patch | None:
        """The face neighbour of ``patch``, or None at the domain boundary."""
        idx = list(patch.index)
        idx[axis] += side
        if not 0 <= idx[axis] < self.layout[axis]:
            return None
        return self.patch(tuple(idx))  # type: ignore[arg-type]

    def face_neighbors(self, patch: Patch) -> list[tuple[int, int, Patch]]:
        """All existing face neighbours as ``(axis, side, neighbor)``."""
        out = []
        for axis, side in FACES:
            nb = self.neighbor(patch, axis, side)
            if nb is not None:
                out.append((axis, side, nb))
        return out

    def boundary_faces(self, patch: Patch) -> list[tuple[int, int]]:
        """Faces of ``patch`` lying on the physical domain boundary."""
        return list(self._table.boundary_faces[self.patch(patch.index).patch_id])

    def boundary_cells(self, patch: Patch) -> int:
        """One-deep ghost cells on the faces of :meth:`boundary_faces`."""
        return self._table.boundary_cells[self.patch(patch.index).patch_id]

    # -- bookkeeping used by the harness ------------------------------------------
    def memory_bytes(self, fields: int = 2, ghosts: int = 1, itemsize: int = 8) -> int:
        """Approximate allocation for ``fields`` ghosted copies of the grid.

        Matches the paper's Table III "Mem" column, which counts the u and
        u_new fields over all patches including their ghost layers.
        """
        ex = self.patch_extent
        per_patch = 1
        for a in range(3):
            per_patch *= ex[a] + 2 * ghosts
        return per_patch * itemsize * fields * self.num_patches
