"""Call tracing from outside the program.

`Tracer.install` replaces each listed public function on its module object
with `setattr`, so calls made inside the module through its globals are
caught too.  Each call becomes a span (name, start, end, parent, item, pass)
kept in memory and written out with `dump` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# The layers are the package's modules; these are their public functions
# that the workloads reach.
LAYERS = {
    "problemfile": ("load_problem", "dump_document"),
    "sampling": ("random_triangle",),
    "core": ("triangle_from_sides", "triangle_from_vertices"),
    "ccp_closed": ("solutions_for", "incircle_solutions", "excircle_solutions",
                   "twenty_three_from_one"),
    "ccp_general": ("solve_ccp_mobius", "solve_ccp_perspectrix"),
    "brocard": ("brocard_frame", "brocard_inellipse", "verify_shared_objects",
                "de_longchamps_concurrence"),
    "centers": ("verify_correspondences", "correspondence_pairs", "center"),
    "inconic": ("inconic_from_perspector", "solve_ccp_inconic"),
    "figures": ("render_brocard", "render_excircles", "render_inconic"),
    "cli": ("main", "cmd_solve", "cmd_verify", "cmd_render"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = -1
        self.pass_no = 0
        self._stack: list[int] = []
        self._originals: dict[str, tuple[object, object]] = {}
        self.bypass_list: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, self.pass_no)

        shim.__wrapped__ = fn
        shim.__name__ = fn.__name__
        shim.__qualname__ = fn.__qualname__
        shim.__doc__ = fn.__doc__
        return shim

    def install(self) -> None:
        for mod_name, fns in LAYERS.items():
            module = importlib.import_module(f"castillon.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                self._originals[name] = (module, original)
                setattr(module, fn_name, self._wrap(name, original))
        self.bypass_list = self._bypasses()

    def uninstall(self) -> None:
        for name, (module, original) in self._originals.items():
            setattr(module, name.split(".", 1)[1], original)
        self._originals.clear()

    def _bypasses(self) -> list[str]:
        """Names bound with `from x import f` to an unwrapped original:
        calls through them are not traced."""
        originals = {id(orig): name for name, (_, orig) in self._originals.items()}
        found = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "castillon" and not mod_name.startswith("castillon."):
                continue
            for attr, value in sorted(vars(module).items()):
                target = originals.get(id(value))
                if target is not None:
                    found.append(f"{mod_name}.{attr} -> castillon.{target}")
        return found

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "bypasses": self.bypass_list}, fh)
