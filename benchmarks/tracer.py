"""Outside-in span tracing of parkbetti's layer boundaries.

The tracer wraps public functions of the package's modules from outside:
nothing in ``src/`` knows it is traced. A module that did ``from .x import y``
holds its own binding of ``y``, so installing rebinds every ``parkbetti.*``
module attribute that *is* the wrapped function; methods are patched on the
class itself. A boundary the program no longer defines is recorded as absent.

Each call becomes a span (name, start, end, parent span, op id) kept in
memory. Self time is a span's duration minus the durations of its direct
children. Counters marked "computed" are derived from argument and result
sizes at the boundary, never measured inside the program.

Very hot calls (``Monomial.lcm``, ``Monomial.divides``,
``ConnectedPartition.refines``) are deliberately left unwrapped.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable

# (boundary name, module, attribute path)
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("graphs.connected_partitions", "graphs", "connected_partitions"),
    ("graphs.contract", "graphs", "contract"),
    ("graphs.enumerate_connected_cuts", "graphs", "enumerate_connected_cuts"),
    ("graphs.spanning_tree_count", "graphs", "spanning_tree_count"),
    ("chips.enumerate_parking_functions", "chips", "enumerate_parking_functions"),
    ("chips.maximal_parking_functions", "chips", "maximal_parking_functions"),
    ("chips.mpf_count", "chips", "mpf_count"),
    ("ideals.parking_ideal", "ideals", "parking_ideal"),
    ("ideals.cutset_ideal", "ideals", "cutset_ideal"),
    ("ideals.oriented_cutset_ideal", "ideals", "oriented_cutset_ideal"),
    ("ideals.apply_substitution", "ideals", "apply_substitution"),
    ("ideals.lcm_lattice", "ideals", "lcm_lattice"),
    ("posets.FiniteLattice.init", "posets", "FiniteLattice.__init__"),
    ("posets.FiniteLattice.mobius", "posets", "FiniteLattice.mobius"),
    ("posets.FiniteLattice.count_interval_faces", "posets", "FiniteLattice.count_interval_faces"),
    ("posets.FiniteLattice.interval_chain_faces", "posets", "FiniteLattice.interval_chain_faces"),
    ("posets.dual_connected_partition_lattice", "posets", "dual_connected_partition_lattice"),
    ("posets.lattice_isomorphism_failure", "posets", "lattice_isomorphism_failure"),
    ("homology.betti_gpw", "homology", "betti_gpw"),
    ("homology.betti_koszul", "homology", "betti_koszul"),
    ("homology.betti_wilmes", "homology", "betti_wilmes"),
    ("homology.betti_mobius", "homology", "betti_mobius"),
    ("homology.interval_homology_audit", "homology", "interval_homology_audit"),
    ("homology.interval_homology", "homology", "interval_homology"),
    ("homology.crosscut_faces", "homology", "crosscut_faces"),
    ("homology.koszul_complex", "homology", "koszul_complex"),
    ("simplicial.homology_from_faces_multi", "simplicial", "homology_from_faces_multi"),
    ("simplicial.collapse_faces", "simplicial", "collapse_faces"),
    ("simplicial.rank_over", "simplicial", "rank_over"),
    ("simplicial.reduced_homology_dims", "simplicial", "reduced_homology_dims"),
)

RANK_CHARS = (32003, 2, 0)


def _face_count(faces) -> int:
    return sum(len(fs) for fs in faces.values())


class Tracer:
    """Records spans and per-boundary counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op_id = -1
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._last_pf = 0

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> list:
        frame = [len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.op_id, name, start, end))

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def op(self, op_id: int, name: str, fn: Callable, *args):
        """Run one top-level op inside its own span."""
        self.op_id = op_id
        frame = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # --------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        if name == "simplicial.rank_over":
            @functools.wraps(fn)
            def rank_wrapper(matrix, char, *args, **kwargs):
                label = f"{name}.p{char}"
                frame = self._enter(label)
                try:
                    result = fn(matrix, char, *args, **kwargs)
                finally:
                    self._exit(frame)
                cells = int(matrix.size)
                self.counts[f"{label}.cells"] += cells
                self.maxima[f"{label}.max_cells"] = max(self.maxima[f"{label}.max_cells"], cells)
                return result

            return rank_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.parent_name()
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary the package defines; record the rest as absent."""
        import parkbetti

        self.absent = []
        modules = [m for n, m in sys.modules.items() if n == "parkbetti" or n.startswith("parkbetti.")]
        for name, module_name, attr_path in BOUNDARIES:
            module = getattr(parkbetti, module_name, None)
            owner, attr = module, attr_path
            if "." in attr_path:
                cls_name, attr = attr_path.split(".")
                owner = getattr(module, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, HOOKS.get(name))
            if owner is not module:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----------------------------------------------------------- output

    def boundary_names(self) -> list[str]:
        names = []
        for name, _, _ in BOUNDARIES:
            if name == "simplicial.rank_over":
                names += [f"{name}.p{c}" for c in RANK_CHARS]
            else:
                names.append(name)
        return names

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: ``B.calls`` and ``B.s`` for every boundary, the
        counters beside their boundary, and the derived ratios."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.boundary_names():
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.s"] = (self.self_s.get(name, 0.0), "s")
        for key in COUNTERS:
            out[key] = (self.maxima.get(key, 0) if ".max_" in key else self.counts.get(key, 0), "count")
        c = self.counts
        out["chips.pf_yield"] = (_ratio(c["chips.enumerate_parking_functions.found"],
                                        c["chips.enumerate_parking_functions.box"]), "1")
        out["chips.mpf_yield"] = (_ratio(c["chips.maximal_parking_functions.mpf"],
                                         c["chips.maximal_parking_functions.pf"]), "1")
        out["simplicial.collapse_yield"] = (_ratio(
            c["simplicial.collapse_faces.faces_in"] - c["simplicial.collapse_faces.faces_out"],
            c["simplicial.collapse_faces.faces_in"]), "1")
        out["homology.orbit_share"] = (_ratio(c["homology.orbit.intervals"],
                                              c["homology.orbit.proper_elements"]), "1")
        return out

    def top_level_seconds(self) -> float:
        """Summed duration of the spans without a parent: the ops."""
        return sum(end - start for _, parent, _, _, start, end in self.spans if parent is None)

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent id, op id, name, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------- counters

def _pf_hook(t: Tracer, parent, args, result):
    G = args[0]
    box = math.prod(G.degrees[v] for v in G.nonsink_vertices)
    t.counts["chips.enumerate_parking_functions.box"] += box
    t.counts["chips.enumerate_parking_functions.found"] += len(result)
    t._last_pf = len(result)


def _mpf_hook(t: Tracer, parent, args, result):
    # maximal_parking_functions enumerates the parking functions once, just
    # before it filters them by dominance: that child set sizes the pairs.
    pf = t._last_pf
    t.counts["chips.maximal_parking_functions.dominance_pairs"] += pf * pf
    t.counts["chips.maximal_parking_functions.pf"] += pf
    t.counts["chips.maximal_parking_functions.mpf"] += len(result)


def _lcm_hook(t: Tracer, parent, args, result):
    n = len(result)
    t.counts["ideals.lcm_lattice.elements"] += n
    t.maxima["ideals.lcm_lattice.max_elements"] = max(t.maxima["ideals.lcm_lattice.max_elements"], n)
    if parent == "homology.betti_gpw":
        t.counts["homology.orbit.proper_elements"] += n - 1


def _lattice_init_hook(t: Tracer, parent, args, result):
    n = len(args[1])
    t.counts["posets.FiniteLattice.init.order_cells"] += n * n
    t.maxima["posets.FiniteLattice.init.max_n"] = max(t.maxima["posets.FiniteLattice.init.max_n"], n)


def _chain_faces_hook(t: Tracer, parent, args, result):
    t.counts["posets.FiniteLattice.interval_chain_faces.faces"] += _face_count(result)
    if parent == "homology.interval_homology":
        t.counts["homology.interval_homology.model_chain"] += 1


def _crosscut_hook(t: Tracer, parent, args, result):
    t.counts["homology.crosscut_faces.faces"] += _face_count(result)
    if parent == "homology.interval_homology":
        t.counts["homology.interval_homology.model_crosscut"] += 1


def _interval_hook(t: Tracer, parent, args, result):
    if parent == "homology.betti_gpw":
        t.counts["homology.orbit.intervals"] += 1


def _multi_hook(t: Tracer, parent, args, result):
    t.counts["simplicial.homology_from_faces_multi.faces_in"] += _face_count(args[0])


def _collapse_hook(t: Tracer, parent, args, result):
    t.counts["simplicial.collapse_faces.faces_in"] += _face_count(args[0])
    t.counts["simplicial.collapse_faces.faces_out"] += _face_count(result)


HOOKS = {
    "chips.enumerate_parking_functions": _pf_hook,
    "chips.maximal_parking_functions": _mpf_hook,
    "ideals.lcm_lattice": _lcm_hook,
    "posets.FiniteLattice.init": _lattice_init_hook,
    "posets.FiniteLattice.interval_chain_faces": _chain_faces_hook,
    "homology.crosscut_faces": _crosscut_hook,
    "homology.interval_homology": _interval_hook,
    "simplicial.homology_from_faces_multi": _multi_hook,
    "simplicial.collapse_faces": _collapse_hook,
}

COUNTERS = (
    "chips.enumerate_parking_functions.box",
    "chips.enumerate_parking_functions.found",
    "chips.maximal_parking_functions.dominance_pairs",
    "ideals.lcm_lattice.elements",
    "ideals.lcm_lattice.max_elements",
    "posets.FiniteLattice.init.order_cells",
    "posets.FiniteLattice.init.max_n",
    "posets.FiniteLattice.interval_chain_faces.faces",
    "homology.interval_homology.model_chain",
    "homology.interval_homology.model_crosscut",
    "homology.crosscut_faces.faces",
    "simplicial.homology_from_faces_multi.faces_in",
    "simplicial.collapse_faces.faces_in",
    "simplicial.collapse_faces.faces_out",
) + tuple(f"simplicial.rank_over.p{c}.{k}" for c in RANK_CHARS for k in ("cells", "max_cells"))
