"""An outside-only tracer for latticelab.

It wraps public functions from outside the package: each traced name is
replaced in every `latticelab` module namespace that binds the same
object (so `nikulin.complement_quotient` and `fqf.complement_quotient`
are both covered), and the methods `FiniteQuadraticForm.q`, `.b` and
`.subquotient` are wrapped on the class.  It reads no `_`-private name.
A traced name that no longer exists is reported as absent.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out by `write_spans`.  Self time is a span's duration minus the
time covered by its child spans.  The waste ratios are computed from the
arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, name) of every traced function; "FiniteQuadraticForm.x" is a method.
TRACED = (
    ("fqf", "FiniteQuadraticForm.q"),
    ("fqf", "FiniteQuadraticForm.b"),
    ("fqf", "FiniteQuadraticForm.subquotient"),
    ("fqf", "discriminant_form"),
    ("fqf", "isotropic_subgroups"),
    ("fqf", "complement_quotient"),
    ("fqf", "automorphisms"),
    ("fqf", "embedding_images"),
    ("fqf", "form_embeddings_mod_aut"),
    ("nikulin", "saturations_keeping_primitive"),
    ("nikulin", "even_lattice_exists"),
    ("symbol", "to_symbol"),
    ("symbol", "is_isomorphic"),
    ("symbol", "parse_symbol"),
    ("symbol", "form_from_symbol"),
    ("symbol", "signature_mod8"),
    ("casebook", "analyze_record"),
    ("casebook", "polarized_criterion"),
    ("casebook", "transcendental_candidates"),
    ("casebook", "embedding_class_count"),
    ("casebook", "nonsymplectic_order"),
    ("rank2", "rank2_enumerate"),
    ("rank2", "rank2_isometries"),
    ("shortvec", "short_vectors"),
    ("exactmat", "smith_normal_form"),
    ("exactmat", "integer_kernel"),
    ("lattice", "build_lattice"),
    ("lattice", "named_lattice"),
    ("normalforms", "family_dimension"),
)


def metric_name(module: str, name: str) -> str:
    """`fqf.q` for the method FiniteQuadraticForm.q, `fqf.automorphisms` else."""
    return f"{module}.{name.rsplit('.', 1)[-1]}"


LAYER_NAMES = tuple(metric_name(m, n) for m, n in TRACED)

# Counts taken from return values: (traced layer, count name).
RESULT_COUNTS = (
    ("fqf.isotropic_subgroups", "subgroups"),
    ("fqf.automorphisms", "maps"),
    ("fqf.embedding_images", "images"),
    ("rank2.rank2_enumerate", "forms"),
    ("shortvec.short_vectors", "vectors"),
)

RATIOS = ("fqf.perp_scan_ratio", "nikulin.sat_kept_ratio",
          "fqf.embedding_orbit_ratio", "casebook.tc_calls_per_class",
          "casebook.tc_match_ratio")


class Tracer:
    """Installs wrappers on demand; records only while `recording` is set."""

    def __init__(self):
        self.names = list(LAYER_NAMES)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.recording = False
        self.reset()

    # -- state ------------------------------------------------------------------

    def reset(self) -> None:
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.sums: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # frames: [span id, layer index, start, time covered by children]
        self.stack: list[list] = []

    def add(self, key: str, value: int) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def parent_name(self) -> str | None:
        return self.names[self.stack[-1][1]] if self.stack else None

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name wherever latticelab binds it."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "latticelab"
                                           or name.startswith("latticelab."))}
        self.absent = []
        for (module, name), layer in zip(TRACED, self.names):
            home = modules.get(f"latticelab.{module}")
            owner, attr = home, name
            if home is not None and "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(home, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self.wrap(layer, original)
            if owner is home:
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self.patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                self.patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def wrap(self, layer: str, fn):
        idx = self.index[layer]
        on_return = getattr(self, "on_" + layer.replace(".", "_"), None)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = len(tracer.span_name)
            tracer.span_name.append(idx)
            tracer.span_parent.append(parent[0] if parent else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [span, idx, 0.0, 0.0]
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.span_start[span] = start
                tracer.span_end[span] = end
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
            if on_return is not None:
                tracer.recording = False
                try:
                    on_return(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.add("extract_errors", 1)
                finally:
                    tracer.recording = True
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- counts from arguments and return values -----------------------------------

    def on_fqf_isotropic_subgroups(self, args, kwargs, result):
        self.add("fqf.isotropic_subgroups.subgroups", len(result))
        if self.parent_name() == "nikulin.saturations_keeping_primitive":
            self.add("sat.subgroups", len(result))

    def on_fqf_complement_quotient(self, args, kwargs, result):
        form, sub = args[0], args[1]
        self.add("perp.elements", result.order * sub.order)
        self.add("perp.scanned", form.order)

    def on_fqf_automorphisms(self, args, kwargs, result):
        self.add("fqf.automorphisms.maps", len(result))

    def on_fqf_embedding_images(self, args, kwargs, result):
        self.add("fqf.embedding_images.images", len(result))
        if self.parent_name() == "fqf.form_embeddings_mod_aut":
            self.add("orbit.images", len(result))

    def on_fqf_form_embeddings_mod_aut(self, args, kwargs, result):
        self.add("orbit.orbits", result[0])

    def on_nikulin_saturations_keeping_primitive(self, args, kwargs, result):
        self.add("sat.witnesses", len(result))

    def on_casebook_analyze_record(self, args, kwargs, result):
        self.add("tc.classes", len(result.classes))

    def on_casebook_transcendental_candidates(self, args, kwargs, result):
        self.add("tc.kept", len(result))

    def on_rank2_rank2_enumerate(self, args, kwargs, result):
        self.add("rank2.rank2_enumerate.forms", len(result))
        if self.parent_name() == "casebook.transcendental_candidates":
            self.add("tc.tried", len(result))

    def on_shortvec_short_vectors(self, args, kwargs, result):
        self.add("shortvec.short_vectors.vectors", len(result))

    # -- summaries --------------------------------------------------------------

    def counts(self) -> dict:
        """Call counts, result counts, ratios and their bases; all exact."""
        out = {}
        for name, calls in zip(self.names, self.calls):
            out[f"{name}.calls"] = calls
        for layer, what in RESULT_COUNTS:
            out[f"{layer}.{what}"] = self.sums.get(f"{layer}.{what}", 0)
        s = self.sums.get
        tc_calls = self.calls[self.index["casebook.transcendental_candidates"]]
        bases = {
            "fqf.perp_scan_ratio": (s("perp.elements", 0), s("perp.scanned", 0)),
            "nikulin.sat_kept_ratio": (s("sat.witnesses", 0), s("sat.subgroups", 0)),
            "fqf.embedding_orbit_ratio": (s("orbit.orbits", 0), s("orbit.images", 0)),
            "casebook.tc_calls_per_class": (tc_calls, s("tc.classes", 0)),
            "casebook.tc_match_ratio": (s("tc.kept", 0), s("tc.tried", 0)),
        }
        for ratio, (num, den) in bases.items():
            # an undefined ratio (nothing attempted) reads 0; its base says so
            out[ratio] = num / den if den else 0.0
            out[ratio + ".base"] = [num, den]
        out["extract_errors"] = s("extract_errors", 0)
        return out

    def self_times(self) -> dict:
        return {f"{name}.self_s": t for name, t in zip(self.names, self.self_s)}

    def write_spans(self, fh, unit: int) -> None:
        """Append spans as CSV rows: unit, span id, parent id, name, start, end."""
        for i, (n, p, a, b) in enumerate(zip(self.span_name, self.span_parent,
                                             self.span_start, self.span_end)):
            fh.write(f"{unit},{i},{p},{self.names[n]},{a:.9f},{b:.9f}\n")
