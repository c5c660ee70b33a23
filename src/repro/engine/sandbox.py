"""Sandboxed loading of user analysis source code.

The client ships analysis *source* to the grid ("only a small amount of
code needs to be re-distributed as the user customizes and rapidly develops
the analysis code", §5).  :func:`load_analysis` compiles a source string in
a controlled namespace, locates the :class:`~repro.engine.base.Analysis`
subclass, and instantiates it.  :class:`CodeBundle` is the versioned unit
the managing class loader stages and hot-reloads.

The namespace offers the analysis-facing API (numpy, the AIDA objects, the
kinematics helpers) and blocks general imports — a pragmatic stand-in for
the JVM class-loader isolation of the reference implementation; it is a
simulation substrate, not a security boundary.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Optional, Type

import numpy as np

from repro.aida.hist1d import Histogram1D
from repro.aida.hist2d import Histogram2D
from repro.aida.profile import Profile1D
from repro.dataset import physics
from repro.engine.base import Analysis


class SandboxError(Exception):
    """Raised when user code fails to load or is malformed."""


#: Module prefixes analysis code may import.  Sub-modules must be allowed
#: too because numpy lazily imports its own internals (e.g.
#: ``numpy._core._methods``) *from the caller's frame* when methods like
#: ``ndarray.sum`` first run inside sandboxed code.
_ALLOWED_PREFIXES = ("numpy", "math", "scipy")
_REAL_IMPORT = builtins.__import__


def _restricted_import(name, globals=None, locals=None, fromlist=(), level=0):
    root = name.split(".", 1)[0]
    if root in _ALLOWED_PREFIXES:
        return _REAL_IMPORT(name, globals, locals, fromlist, level)
    raise SandboxError(f"import of {name!r} not allowed in analysis code")


def _build_namespace() -> Dict[str, Any]:
    safe_builtins = dict(vars(builtins))
    safe_builtins["__import__"] = _restricted_import
    return {
        "__builtins__": safe_builtins,
        "np": np,
        "numpy": np,
        "Analysis": Analysis,
        "Histogram1D": Histogram1D,
        "Histogram2D": Histogram2D,
        "Profile1D": Profile1D,
        "physics": physics,
    }


@lru_cache(maxsize=64)
def _compile(source: str):
    """Code object of *source*; every engine of a session loads one text.

    Only the immutable code object is shared: each load still ``exec``s it
    into its own namespace, and a source that fails to compile raises on
    every call (``lru_cache`` does not keep exceptions).
    """
    return compile(source, "<analysis>", "exec")


def load_analysis(
    source: str,
    class_name: Optional[str] = None,
    parameters: Optional[dict] = None,
) -> Analysis:
    """Compile *source* and instantiate the analysis it defines.

    Parameters
    ----------
    source:
        Python source text defining exactly one :class:`Analysis` subclass
        (or more, with *class_name* picking one).
    class_name:
        Required when the source defines several subclasses.
    parameters:
        Keyword arguments passed to the analysis constructor — how the
        client tunes cuts without editing code.

    Raises
    ------
    SandboxError
        On syntax errors, missing/ambiguous classes, or construction
        failure.
    """
    namespace = _build_namespace()
    try:
        exec(_compile(source), namespace)
    except SandboxError:
        raise
    except SyntaxError as exc:
        raise SandboxError(f"syntax error in analysis code: {exc}") from exc
    except Exception as exc:
        raise SandboxError(f"analysis code failed at import: {exc}") from exc

    candidates: Dict[str, Type[Analysis]] = {
        name: obj
        for name, obj in namespace.items()
        if isinstance(obj, type)
        and issubclass(obj, Analysis)
        and obj is not Analysis
    }
    if not candidates:
        raise SandboxError("no Analysis subclass found in source")
    if class_name is not None:
        if class_name not in candidates:
            raise SandboxError(
                f"class {class_name!r} not found; defined: {sorted(candidates)}"
            )
        cls = candidates[class_name]
    elif len(candidates) > 1:
        raise SandboxError(
            f"multiple Analysis subclasses defined ({sorted(candidates)}); "
            "pass class_name"
        )
    else:
        cls = next(iter(candidates.values()))
    try:
        return cls(**(parameters or {}))
    except Exception as exc:
        raise SandboxError(f"analysis construction failed: {exc}") from exc


@dataclass
class CodeBundle:
    """A versioned unit of stageable analysis code.

    The managing class loader stores the latest bundle; engines compare
    :attr:`version` to decide whether to reload (§3.6 dynamic reload).
    """

    source: str
    class_name: Optional[str] = None
    parameters: dict = field(default_factory=dict)
    version: int = 1

    @property
    def size_kb(self) -> float:
        """Source size in kB (drives the tiny stage-code transfer)."""
        return len(self.source.encode()) / 1000.0

    def instantiate(self) -> Analysis:
        """Load and construct the analysis, stamping the bundle version."""
        analysis = load_analysis(self.source, self.class_name, self.parameters)
        analysis.version = self.version
        return analysis

    def updated(
        self,
        source: Optional[str] = None,
        parameters: Optional[dict] = None,
    ) -> "CodeBundle":
        """A new bundle with bumped version and replaced source/parameters."""
        return CodeBundle(
            source=source if source is not None else self.source,
            class_name=self.class_name,
            parameters=(
                dict(parameters) if parameters is not None else dict(self.parameters)
            ),
            version=self.version + 1,
        )
