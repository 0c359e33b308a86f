"""Layer tracing by wrapping the package's public names from outside.

`Tracer.install()` replaces each target with a wrapper in every
`smfgeo` module that bound it by name, and on the class for methods and
constructors (including aliases such as `Q3.__rmul__ = __mul__`);
`uninstall()` puts the originals back.  Nothing inside the package
changes.

Two kinds of target:

* span layers record one span per call, (layer, parent span, start,
  end), kept in memory; inclusive and self times are derived from the
  span tree after the pass;
* kernel layers are called up to about a million times per pass, so
  they keep only a call count and an aggregate inclusive time.  They are
  not spans, so their time stays inside the self time of the span that
  called them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

PKG = "smfgeo"

# (module, attribute path): name of the layer is "<module>.<path>".
SPAN_LAYERS = [
    ("surface", "grow_frontier"),
    ("surface", "Triangulation.content_hash"),
    ("engine", "trace"),
    ("engine", "step"),
    ("engine", "transfer_edge"),
    ("engine", "cross_vertex"),
    ("engine", "fan_frames"),
    ("engine", "link_iso"),
    ("engine", "ray_canonical"),
    ("farfield", "audit_ring_convexity"),
    ("farfield", "BandFrame"),
    ("farfield", "FlatComplement"),
    ("classify", "classify_labeled"),
    ("classify", "ModelAnalysis"),
    ("classify", "build_line_context"),
    ("classify", "ensure_rings"),
    ("classify", "classify_point"),
    ("smf", "parse_manifold"),
    ("smf", "to_triangulation"),
    ("smf", "classification_report"),
    ("smf", "dumps_report"),
    ("cli", "main"),
    ("builders", "resolve_point"),
    ("builders", "resolve_ray"),
]

KERNEL_LAYERS = [
    ("numbers", "Q3.__mul__"),
    ("numbers", "Q3.sign"),
    ("numbers", "Q3.__float__"),
    ("numbers", "Scalars.cos_sin_deg"),
    ("chart", "rotate"),
    ("chart", "Isometry.apply"),
    ("chart", "segment_intersection"),
    ("surface", "Triangulation.transfer"),
    ("surface", "Triangulation.fan_ccw"),
    ("surface", "canonicalize_point"),
    ("farfield", "tails_meet"),
    ("farfield", "split_tail_at_cut"),
]


def _resolve(module, path):
    """Return (owner, attribute, original function, layer name)."""
    owner = importlib.import_module(f"{PKG}.{module}")
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    attr = parts[-1]
    obj = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(obj, type):
        # A class layer times its constructor.
        owner, attr, obj = obj, "__init__", obj.__dict__["__init__"]
    if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
        raise TypeError(f"cannot trace {module}.{path}: {obj!r}")
    return owner, attr, obj, f"{module}.{path}"


class Tracer:
    def __init__(self):
        self.names = []            # layer id -> layer name
        self.spans = []            # (layer id, parent span index, t0, t1)
        self.kernels = {}          # layer name -> [calls, seconds, depth]
        self.max_triangles = 0     # largest surface grow_frontier returned
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        lid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_growth = name == "surface.grow_frontier"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (lid, parent, t0, clock())
                stack.pop()
            if is_growth:
                self.max_triangles = max(self.max_triangles, len(out.tris))
            return out

        return wrapper

    def _kernel_wrapper(self, fn, name):
        cell = self.kernels.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if cell[2]:
                return fn(*args, **kwargs)
            cell[2] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[2] = 0

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self):
        targets = [(m, p, self._span_wrapper) for m, p in SPAN_LAYERS] + \
                  [(m, p, self._kernel_wrapper) for m, p in KERNEL_LAYERS]
        resolved = [(_resolve(module, path), make)
                    for module, path, make in targets]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PKG or n.startswith(PKG + "."))]
        for (owner, attr, orig, name), make in resolved:
            wrapped = make(orig, name)
            if isinstance(owner, type):
                # Methods and constructors: patch the class, aliases too.
                for key, val in list(owner.__dict__.items()):
                    if val is orig:
                        self._patch(owner, key, orig, wrapped)
            else:
                # Functions: patch every module that bound the name.
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived figures --------------------------------------------------

    def layer_stats(self):
        """Per layer: calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice), self seconds and the list of
        outermost durations."""
        n = len(self.spans)
        child = [0.0] * n
        for lid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
                 for name in self.names}
        for i, (lid, parent, t0, t1) in enumerate(self.spans):
            st = stats[self.names[lid]]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child[i]
            if not self._has_ancestor(i, lid):
                st["s"] += t1 - t0
                st["durations"].append(t1 - t0)
        for name, (calls, secs, _) in self.kernels.items():
            stats[name] = {"calls": calls, "s": secs, "self_s": None,
                           "durations": []}
        return stats

    def _has_ancestor(self, i, lid):
        parent = self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == lid:
                return True
            parent = self.spans[parent][1]
        return False

    def count_under(self, layer, ancestor):
        """Spans of `layer` that ran inside a span of `ancestor`."""
        lid = self.names.index(layer)
        aid = self.names.index(ancestor)
        return sum(1 for i, sp in enumerate(self.spans)
                   if sp[0] == lid and self._has_ancestor(i, aid))
