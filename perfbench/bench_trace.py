"""Per-layer tracing from outside the program.

A `Tracer` wraps public functions of the reasonforge modules: it replaces
every module attribute that is the original function object (so names
imported with `from x import f` are wrapped too) and restores them on
`uninstall`.  Each wrapper counts calls, inclusive seconds, calls that
raised and calls that returned None.  A hook whose module or function no
longer exists is reported as not found instead of failing the run, so a
refactor that renames a layer only blanks that layer's figures.

Nothing here changes what the wrapped functions compute: arguments and
results pass through untouched and no random state is read.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer name, module, function).  The names are the benchmark's per-layer
# metric prefixes; "walk" is the kinship entailed-walk search.
HOOKS = (
    ("relgraph.grow_graph", "reasonforge.relgraph", "grow_graph"),
    ("walk", "reasonforge.taskgen", "_sample_entailed_chain"),
    ("sampler.sample_chain", "reasonforge.sampler", "sample_chain"),
    ("taskgen.generate_candidate", "reasonforge.taskgen", "generate_candidate"),
    ("taskgen.corrupt", "reasonforge.taskgen", "corrupt"),
    ("taskgen.entailed_relation", "reasonforge.taskgen", "entailed_relation"),
    ("augment.permute", "reasonforge.augment", "permute"),
    ("augment.add_edge_noise", "reasonforge.augment", "add_edge_noise"),
    ("augment.flip_edges", "reasonforge.augment", "flip_edges"),
    ("verbalizer.assign_names", "reasonforge.verbalizer", "assign_names"),
    ("verbalizer.load_name_pools", "reasonforge.verbalizer", "load_name_pools"),
    ("verbalizer.verbalize_story", "reasonforge.verbalizer", "verbalize_story"),
    ("taskgen.write_jsonl", "reasonforge.taskgen", "write_jsonl"),
    ("taskgen.read_jsonl", "reasonforge.taskgen", "read_jsonl"),
    ("oracle.kinship_world_from_triples", "reasonforge.oracle",
     "kinship_world_from_triples"),
    ("oracle.genealogy_relation", "reasonforge.oracle", "genealogy_relation"),
    ("oracle.spatial_world_from_triples", "reasonforge.oracle",
     "spatial_world_from_triples"),
    ("oracle.coordinate_relation", "reasonforge.oracle", "coordinate_relation"),
    ("promptkit.draw_shots", "reasonforge.promptkit", "draw_shots"),
    ("promptkit.render_prompt", "reasonforge.promptkit", "render_prompt"),
    ("promptkit.render_target", "reasonforge.promptkit", "render_target"),
    ("promptkit.load_prompt_asset", "reasonforge.promptkit", "load_prompt_asset"),
    ("promptkit.parse_response", "reasonforge.promptkit", "parse_response"),
    ("evalkit.score", "reasonforge.evalkit", "score"),
)


_COUNTS = ("relgraph.grow_graph.calls", "walk.calls", "walk.exhausted",
           "sampler.sample_chain.calls", "taskgen.candidates", "taskgen.accepted",
           "taskgen.fold_disagrees", "taskgen.corrupt_none", "taskgen.settled_repeats",
           "augment.noise_unavailable", "verbalizer.load_name_pools.calls",
           "promptkit.load_prompt_asset.calls", "trace.hooks_missing")
_RATIOS = ("walk.hit_ratio", "taskgen.accept_ratio")
_SECONDS = (
    "relgraph.grow_graph.s", "walk.s", "sampler.sample_chain.s",
    *(f"taskgen.bucket_s.h{hop}" for hop in range(2, 11)),
    "augment.permute.s", "augment.add_edge_noise.s", "augment.flip_edges.s",
    "verbalizer.assign_names.s", "verbalizer.verbalize_story.s",
    "taskgen.write_jsonl.s", "taskgen.read_jsonl.s",
    "oracle.kinship_world_from_triples.s", "oracle.genealogy_relation.s",
    "oracle.spatial_world_from_triples.s", "oracle.coordinate_relation.s",
    "promptkit.draw_shots.s", "promptkit.render_prompt.s", "promptkit.render_target.s",
    "promptkit.parse_response.s", "evalkit.score.s", "trace.overhead_s")
# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {**{n: "count" for n in _COUNTS}, **{n: "ratio" for n in _RATIOS},
             **{n: "s" for n in _SECONDS}}


class Layer:
    __slots__ = ("calls", "seconds", "raised", "returned_none")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.raised = 0
        self.returned_none = 0


class Tracer:
    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.layers = {name: Layer() for name, _, _ in hooks}
        self.missing: list[str] = []
        # candidates whose composition fold disagrees with the ground truth:
        # entailed_relation() differs from the corrupt() result just before it
        self.fold_disagrees = 0
        self._last_corrupt = None
        self._patches: list[tuple[object, str, object]] = []

    def _observe(self, name: str, result) -> None:
        if name == "taskgen.corrupt":
            self._last_corrupt = result
        elif name == "taskgen.entailed_relation" and result != self._last_corrupt:
            self.fold_disagrees += 1

    def _wrap(self, name: str, fn):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = tracer.layers[name]
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                layer.raised += 1
                raise
            finally:
                layer.seconds += perf() - start
                layer.calls += 1
            if result is None:
                layer.returned_none += 1
            tracer._observe(name, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, module_name, attr in self.hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("reasonforge"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self, accepted: int) -> dict[str, float]:
        """Per-layer figures; a layer that was not found reads 0."""
        L = self.layers
        walk = L["walk"]
        candidates = L["taskgen.generate_candidate"].calls
        out = {
            "relgraph.grow_graph.s": L["relgraph.grow_graph"].seconds,
            "relgraph.grow_graph.calls": L["relgraph.grow_graph"].calls,
            "walk.s": walk.seconds,
            "walk.calls": walk.calls,
            "walk.exhausted": walk.raised,
            "walk.hit_ratio": ((walk.calls - walk.raised) / walk.calls
                               if walk.calls else 0.0),
            "sampler.sample_chain.s": L["sampler.sample_chain"].seconds,
            "sampler.sample_chain.calls": L["sampler.sample_chain"].calls,
            "taskgen.candidates": candidates,
            "taskgen.accepted": accepted,
            "taskgen.accept_ratio": accepted / candidates if candidates else 0.0,
            "taskgen.fold_disagrees": self.fold_disagrees,
            "taskgen.corrupt_none": L["taskgen.corrupt"].returned_none,
            "augment.permute.s": L["augment.permute"].seconds,
            "augment.add_edge_noise.s": L["augment.add_edge_noise"].seconds,
            "augment.flip_edges.s": L["augment.flip_edges"].seconds,
            "augment.noise_unavailable": L["augment.add_edge_noise"].raised,
            "verbalizer.assign_names.s": L["verbalizer.assign_names"].seconds,
            "verbalizer.load_name_pools.calls": L["verbalizer.load_name_pools"].calls,
            "verbalizer.verbalize_story.s": L["verbalizer.verbalize_story"].seconds,
            "taskgen.write_jsonl.s": L["taskgen.write_jsonl"].seconds,
            "taskgen.read_jsonl.s": L["taskgen.read_jsonl"].seconds,
            "promptkit.draw_shots.s": L["promptkit.draw_shots"].seconds,
            "promptkit.render_prompt.s": L["promptkit.render_prompt"].seconds,
            "promptkit.render_target.s": L["promptkit.render_target"].seconds,
            "promptkit.load_prompt_asset.calls": L["promptkit.load_prompt_asset"].calls,
            "promptkit.parse_response.s": L["promptkit.parse_response"].seconds,
            "evalkit.score.s": L["evalkit.score"].seconds,
        }
        for name in ("oracle.kinship_world_from_triples", "oracle.genealogy_relation",
                     "oracle.spatial_world_from_triples", "oracle.coordinate_relation"):
            out[f"{name}.s"] = L[name].seconds
        return out
