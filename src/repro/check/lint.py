"""The determinism & invariant linter: ``ast``-based rules over ``src/repro``.

Rule catalog (see DESIGN.md "Static analysis" for the prose version):

``DET001``
    No RNG construction (``np.random.default_rng``, ``np.random.RandomState``,
    stdlib ``random.*``) outside the sanctioned modules.  All execution
    randomness must flow through the tape layer
    (:func:`repro.local.randomness.derive_generator` /
    :class:`~repro.local.randomness.RandomTape`), which is what makes runs
    replayable from ``(seed, salt, trial, identity)`` alone.
``DET002``
    No wall-clock reads (``time.time()``, ``datetime.now/utcnow/today``)
    outside the operational layers.  Wall-clock in compute code is hidden
    input: two runs of the same seed would diverge.
``DET003``
    No iteration over bare ``set`` displays / ``set()``-``frozenset()`` calls
    where the iteration order escapes (comprehensions, ``list``/``tuple``
    conversions, ``str.join``).  Set order depends on ``PYTHONHASHSEED`` for
    strings, so such iteration silently breaks cross-process determinism.
    Membership tests and ``sorted(set(...))`` are fine and not flagged.
``OBS001``
    Every literal signal name passed to ``span(...)``/``counter(...)``/
    ``histogram(...)`` (or constructed directly as ``Span("...")``) must be
    registered in :mod:`repro.obs.taxonomy` — the registry DESIGN.md's
    taxonomy table renders from.  Dynamic names are skipped (nothing to
    check statically).
``ERR001``
    Every :class:`repro.errors.ReproError` subclass reachable by
    :func:`repro.errors.iter_error_classes` declares a **unique** wire code
    (a duplicate would make :func:`~repro.errors.error_class_for_code`
    ambiguous).  This one inspects the live classes, not source text.

The allowlist (:mod:`repro.check.config`) mutes DET001/DET002 for the
modules whose *job* is the flagged construct; every entry carries its
rationale in that file.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.check.config import DEFAULT_ALLOWLIST, is_allowlisted
from repro.check.findings import Finding

__all__ = ["LINT_RULES", "lint_source", "lint_tree", "check_error_codes"]

#: The source-level rules this module implements (ERR001 is runtime-level).
LINT_RULES = ("DET001", "DET002", "DET003", "OBS001")

#: RNG-constructor attribute names flagged by DET001.
_RNG_CONSTRUCTORS = {"default_rng", "RandomState"}

#: Signal-emitting method names checked by OBS001.
_SIGNAL_METHODS = ("span", "counter", "histogram")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain over plain names, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_expression(node: ast.AST) -> bool:
    """A bare set display, set comprehension, or ``set()``/``frozenset()``
    call — the shapes whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _LintVisitor(ast.NodeVisitor):
    """One pass over one module, collecting findings for the selected
    source-level rules."""

    def __init__(self, relpath: str, rules: Set[str]) -> None:
        self.relpath = relpath
        self.rules = rules
        self.findings: List[Finding] = []

    # ------------------------------------------------------------------ #
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.rules:
            self.findings.append(
                Finding(
                    path=self.relpath,
                    line=getattr(node, "lineno", 1),
                    rule=rule,
                    message=message,
                )
            )

    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            self._check_det001(node, dotted)
            self._check_det002(node, dotted)
            self._check_obs001(node, dotted)
        self._check_det003_call(node)
        self.generic_visit(node)

    # -- DET001 --------------------------------------------------------- #
    def _check_det001(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if parts[-1] in _RNG_CONSTRUCTORS:
            self._report(
                "DET001",
                node,
                f"constructs an RNG via {dotted}(); execution randomness "
                "must flow through repro.local.randomness "
                "(derive_generator / RandomTape)",
            )
        elif parts[0] == "random" and len(parts) > 1:
            self._report(
                "DET001",
                node,
                f"uses the stdlib global RNG ({dotted}()); execution "
                "randomness must flow through repro.local.randomness",
            )

    # -- DET002 --------------------------------------------------------- #
    def _check_det002(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if dotted == "time.time":
            self._report(
                "DET002",
                node,
                "reads the wall clock (time.time()); compute code must not "
                "depend on real time",
            )
        elif (
            len(parts) >= 2
            and parts[-1] in ("now", "utcnow", "today")
            and parts[-2] in ("datetime", "date")
        ):
            self._report(
                "DET002",
                node,
                f"reads the wall clock ({dotted}()); compute code must not "
                "depend on real time",
            )

    # -- DET003 --------------------------------------------------------- #
    def _check_det003_call(self, node: ast.Call) -> None:
        # list(set(...)) / tuple({...}) — the set order escapes into an
        # ordered collection.
        if isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple"):
            if len(node.args) == 1 and _is_set_expression(node.args[0]):
                self._report(
                    "DET003",
                    node,
                    f"{node.func.id}() over a set fixes a hash-dependent "
                    "iteration order; sort the set (or use a list/dict) "
                    "instead",
                )
        # ", ".join({...}) — ditto, into a string.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and len(node.args) == 1
            and _is_set_expression(node.args[0])
        ):
            self._report(
                "DET003",
                node,
                "str.join over a set fixes a hash-dependent iteration "
                "order; sort the set first",
            )

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", ()):
            if _is_set_expression(generator.iter):
                self._report(
                    "DET003",
                    generator.iter,
                    "comprehension iterates a bare set; the produced "
                    "collection inherits a hash-dependent order — sort the "
                    "set (or iterate the original sequence)",
                )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- OBS001 --------------------------------------------------------- #
    def _check_obs001(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        kind: Optional[str] = None
        if parts[-1] in _SIGNAL_METHODS and len(parts) > 1:
            kind = parts[-1]
        elif dotted == "Span":
            kind = "span"
        if kind is None or not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return  # dynamic name: nothing to verify statically
        from repro.obs.taxonomy import signal_names

        if first.value not in signal_names(kind):
            self._report(
                "OBS001",
                node,
                f"{kind} name {first.value!r} is not registered in "
                "repro.obs.taxonomy; add a Signal entry (and re-render the "
                "DESIGN.md taxonomy block)",
            )


# --------------------------------------------------------------------------- #
# Drivers
# --------------------------------------------------------------------------- #
def lint_source(
    source: str,
    relpath: str,
    select: Optional[Iterable[str]] = None,
    allowlist: Dict[str, Dict[str, str]] = DEFAULT_ALLOWLIST,
) -> List[Finding]:
    """Lint one module's source text.  ``relpath`` is the package-relative
    path used both in findings and for allowlist matching."""
    requested = set(select) if select is not None else set(LINT_RULES)
    active = {
        rule
        for rule in requested.intersection(LINT_RULES)
        if not is_allowlisted(rule, relpath, allowlist)
    }
    if not active:
        return []
    tree = ast.parse(source, filename=relpath)
    visitor = _LintVisitor(relpath, active)
    visitor.visit(tree)
    return visitor.findings


def lint_tree(
    package_root: Path,
    select: Optional[Iterable[str]] = None,
    allowlist: Dict[str, Dict[str, str]] = DEFAULT_ALLOWLIST,
) -> List[Finding]:
    """Lint every ``*.py`` under ``package_root`` (the ``repro`` package
    directory)."""
    findings: List[Finding] = []
    for path in sorted(package_root.rglob("*.py")):
        relpath = path.relative_to(package_root).as_posix()
        findings.extend(
            lint_source(path.read_text(encoding="utf-8"), relpath, select, allowlist)
        )
    return findings


def check_error_codes(package_root: Optional[Path] = None) -> List[Finding]:
    """ERR001: unique wire codes across the live error taxonomy.

    Inspects the classes :func:`repro.errors.iter_error_classes` yields —
    a *runtime* rule, because the taxonomy is assembled by subclass walking,
    not by source text.  Findings anchor at the offending class definition.
    """
    from repro.errors import iter_error_classes

    findings: List[Finding] = []
    by_code: Dict[str, List[type]] = {}
    for cls in iter_error_classes():
        by_code.setdefault(cls.code, []).append(cls)
    for code, classes in sorted(by_code.items()):
        if len(classes) < 2:
            continue
        names = ", ".join(cls.__name__ for cls in classes)
        for cls in classes[1:]:
            path, line = _class_location(cls, package_root)
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    rule="ERR001",
                    message=(
                        f"wire code {code!r} is declared by multiple error "
                        f"classes ({names}); codes must be unique for "
                        "error_class_for_code to round-trip"
                    ),
                )
            )
    return findings


def _class_location(cls: type, package_root: Optional[Path]) -> Tuple[str, int]:
    """Best-effort ``(relpath, line)`` of a class definition."""
    try:
        source_file = inspect.getsourcefile(cls)
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return cls.__module__.replace(".", "/") + ".py", 1
    path = Path(source_file or "")
    if package_root is not None:
        try:
            return path.relative_to(package_root).as_posix(), line
        except ValueError:
            pass
    return path.name, line
