"""Structure-of-arrays particle container.

Following the HPC idiom, particle attributes live in contiguous NumPy arrays
rather than per-particle objects, so kernels vectorise and the working set
stays compact (the property the paper's Table II measures).  All arrays share
one leading dimension N; reordering (e.g. sorting into tree order) permutes
every registered attribute together while keeping ``orig_index`` so results
can be scattered back to input order.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Box3, bounding_box

__all__ = ["ParticleSet"]

# Attributes every ParticleSet carries.
_CORE_FIELDS = ("position", "velocity", "mass")


class ParticleSet:
    """N particles stored as a structure of arrays.

    Parameters
    ----------
    position:
        (N, 3) float64 positions.
    velocity:
        optional (N, 3) velocities (zeros if omitted).
    mass:
        optional (N,) masses (ones if omitted).
    **extra:
        additional per-particle arrays, e.g. ``radius`` for collision
        detection or ``density`` for SPH.  Leading dimension must be N.
    """

    def __init__(
        self,
        position: np.ndarray,
        velocity: np.ndarray | None = None,
        mass: np.ndarray | None = None,
        **extra: np.ndarray,
    ) -> None:
        position = np.ascontiguousarray(position, dtype=np.float64)
        if position.ndim != 2 or position.shape[1] != 3:
            raise ValueError(f"position must be (N, 3), got {position.shape}")
        n = len(position)
        if velocity is None:
            velocity = np.zeros((n, 3))
        if mass is None:
            mass = np.ones(n)
        self._fields: dict[str, np.ndarray] = {}
        self._set("position", position)
        self._set("velocity", np.ascontiguousarray(velocity, dtype=np.float64))
        self._set("mass", np.ascontiguousarray(mass, dtype=np.float64))
        self._set("orig_index", np.arange(n, dtype=np.int64))
        for name, arr in extra.items():
            self._set(name, np.ascontiguousarray(arr))

    @classmethod
    def from_arrays(cls, fields: dict[str, np.ndarray]) -> "ParticleSet":
        """Reconstruct a set from a field dict *exactly* — no dtype coercion,
        no synthesized fields.  This is the checkpoint-restore path: the
        constructor normalizes (float64 core fields, fresh ``orig_index``),
        which would break the dtype-for-dtype round-trip guarantee.
        """
        if "position" not in fields:
            raise ValueError("from_arrays requires a 'position' field")
        n = len(fields["position"])
        out = object.__new__(cls)
        out._fields = {}
        for name, arr in fields.items():
            arr = np.ascontiguousarray(arr)
            if arr.shape[:1] != (n,):
                raise ValueError(
                    f"field {name!r} has leading dimension {arr.shape[:1]}, expected ({n},)"
                )
            out._fields[name] = arr
        if "orig_index" not in out._fields:
            out._fields["orig_index"] = np.arange(n, dtype=np.int64)
        return out

    # -- field registry ----------------------------------------------------
    def _set(self, name: str, arr: np.ndarray) -> None:
        arr = np.asarray(arr)
        if arr.shape[:1] != (len(self._fields.get("position", arr)),):
            raise ValueError(
                f"field {name!r} has leading dimension {arr.shape[:1]}, expected ({len(self)},)"
            )
        self._fields[name] = arr

    def add_field(self, name: str, arr: np.ndarray) -> None:
        """Register an extra per-particle attribute (e.g. ``density``)."""
        if name in ("orig_index",):
            raise ValueError(f"field name {name!r} is reserved")
        self._set(name, np.ascontiguousarray(arr))

    def has_field(self, name: str) -> bool:
        return name in self._fields

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(self._fields)

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.__dict__["_fields"][name]
        except KeyError:
            raise AttributeError(f"ParticleSet has no field {name!r}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self._fields[name]

    # -- basic protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fields["position"])

    # -- geometry ------------------------------------------------------------
    def bounding_box(self, pad_rel: float = 1e-6) -> Box3:
        """Universe box: tight bounds padded by a relative margin so every
        particle is strictly interior (avoids edge cases on the top face)."""
        box = bounding_box(self.position)
        if box.is_empty:
            return box
        pad = pad_rel * max(float(np.max(box.size)), 1.0)
        return box.expanded(pad)

    @property
    def total_mass(self) -> float:
        return float(self._fields["mass"].sum())

    # -- reordering / selection ----------------------------------------------
    def permuted(self, order: np.ndarray) -> "ParticleSet":
        """A new set with every field permuted by ``order`` (tree sorting)."""
        order = np.asarray(order)
        out = object.__new__(ParticleSet)
        out._fields = {k: np.ascontiguousarray(v[order]) for k, v in self._fields.items()}
        return out

    def select(self, mask_or_index: np.ndarray) -> "ParticleSet":
        """Subset of particles (mask or fancy index); fields are copied."""
        return self.permuted(
            np.flatnonzero(mask_or_index)
            if np.asarray(mask_or_index).dtype == bool
            else np.asarray(mask_or_index)
        )

    def copy(self) -> "ParticleSet":
        out = object.__new__(ParticleSet)
        out._fields = {k: v.copy() for k, v in self._fields.items()}
        return out

    def scatter_to_input_order(self, values: np.ndarray) -> np.ndarray:
        """Rearrange per-particle ``values`` (aligned with this set's current
        order) back to ascending ``orig_index`` order — i.e. the order the
        particles had before any permutations.  Works for subsets too (a
        ``select``-ed set keeps its parent's labels, so the result follows
        the particles' relative order in the original input)."""
        return np.asarray(values)[np.argsort(self._fields["orig_index"], kind="stable")]

    @staticmethod
    def concatenate(sets: list["ParticleSet"]) -> "ParticleSet":
        """Concatenate particle sets sharing the same field names."""
        if not sets:
            raise ValueError("need at least one ParticleSet")
        names = sets[0].field_names
        for s in sets[1:]:
            if s.field_names != names:
                raise ValueError("field name mismatch in concatenate")
        out = object.__new__(ParticleSet)
        out._fields = {k: np.concatenate([s._fields[k] for s in sets]) for k in names}
        return out
