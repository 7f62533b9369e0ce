"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces every public module-level function of the
package's modules with a wrapper that records a span (name, start, end,
parent) and puts the original back on ``uninstall``.  Names that sibling
modules imported (``from .braids import normal_form``) are replaced too,
so a call is traced whichever module makes it.  Constructors of
``DecoratedTuple`` and ``Permutation`` are counted, not spanned.

Spans are folded into per-name call counts and self times as they close:
a span's self time is its duration minus the time its child spans cover.
The first ``keep`` spans are also kept in memory and written out by
``write``; later ones only feed the totals, so memory stays bounded on
workloads that make millions of calls.
"""
from __future__ import annotations

import inspect
import math
import time
from array import array

MODULES = ("groups", "braids", "hurwitz", "trees", "relations", "operad",
           "groupoid", "algebra", "cli")

COUNTED_CLASSES = (("hurwitz", "DecoratedTuple"), ("braids", "Permutation"))


class Tracer:
    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.distinct_words: set = set()
        self.opened = 0
        self.span_name = array("H")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.opened
            tracer.opened = index + 1
            frame = [0.0, index, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(tracer.span_start) < tracer.keep:
                    tracer.span_name.append(nid)
                    tracer.span_id.append(index)
                    tracer.span_parent.append(frame[2])
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observers(self) -> dict:
        def component_objects(args, result):
            colors, output = args[0], args[1]
            r = len(colors)
            self._add("hurwitz.component_objects.returned", len(result))
            self._add("hurwitz.component_objects.candidates",
                      math.factorial(r) * output.group.order ** r)

        def normal_form(args, result):
            w = args[0]
            self.distinct_words.add((w.strands, w.letters))

        def coherence_equations(args, result):
            self._add("algebra.equations", len(result))

        return {"hurwitz.component_objects": component_objects,
                "braids.normal_form": normal_form,
                "algebra.coherence_equations": coherence_equations}

    # -- installing ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions of the given {short name: module}."""
        observers = self._observers()
        replaced = {}
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(value)):
                    continue
                name = f"{short}.{attr}"
                replaced[value] = self._wrap(name, value, observers.get(name))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replaced[value])
        for short, cls_name in COUNTED_CLASSES:
            if short not in modules:
                continue
            cls = getattr(modules[short], cls_name)
            original = cls.__post_init__
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._count(
                f"{short}.{cls_name}.constructed", original)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self._stack.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> dict:
        """{name: (calls, self seconds)} summed over every wrapper of a name."""
        out = {}
        for nid, name in enumerate(self.names):
            calls, secs = out.get(name, (0, 0.0))
            out[name] = (calls + self.calls[nid], secs + self.self_s[nid])
        return out

    def write(self, path) -> None:
        """Kept spans as tab-separated id, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write(f"# spans opened {self.opened}, kept "
                     f"{len(self.span_start)}\n")
            fh.write("id\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_id[i]}\t{names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\n")
