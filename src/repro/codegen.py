"""Generated functions: the one helper behind every ``exec`` site.

A warm invocation runs a few functions whose bodies are generated for
one region, plan or geometry — the argument binder, the geometry key,
a plan's staleness check, a plan's straight-line body.  They are built
here, so each one:

* shows its own lines in tracebacks, ``cProfile`` and
  ``inspect.getsource``: the source is registered with :mod:`linecache`
  under a filename derived from the function's name and the source's
  digest (one entry per distinct source, however many functions share
  it);
* is not left in its own globals.  ``exec`` binds the new function in
  the scope it runs in, which is also the function's ``__globals__``;
  left there, function and scope form a cycle, and everything the scope
  captures (a plan's scratch, a region's layouts) would outlive its
  owner until the cyclic collector ran.
"""

from __future__ import annotations

import hashlib
import linecache

__all__ = ["generate"]


def generate(name: str, source: str, scope: dict):
    """Compile ``source``, which defines function ``name``, with
    ``scope`` as its globals; return the function."""
    if not source.endswith("\n"):
        source += "\n"
    digest = hashlib.blake2b(source.encode(), digest_size=8).hexdigest()
    filename = f"<repro.codegen {name} {digest}>"
    if filename not in linecache.cache:
        # mtime None: ``linecache.checkcache`` keeps the entry.
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), scope)
    return scope.pop(name)
