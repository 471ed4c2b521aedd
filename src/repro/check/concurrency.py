"""The concurrency checker: machine-verified ``# guarded-by`` /
``# loop-confined`` annotations.

The service's thread-safety argument is a *confinement* argument, not a
locking one: :class:`~repro.service.jobs.JobManager` mutates all job state
on one asyncio loop, worker threads communicate results back only through
``loop.call_soon_threadsafe``, and the one object the workers share, the
:class:`~repro.engine.cache.ResultCache`, keeps no in-memory state (an
entry is published by an atomic ``os.replace``); state a lock must guard is
declared with ``# guarded-by``.  That argument lives in docstrings — this
module makes it checkable.

Annotation convention (on the attribute's *declaration* line — the
``self.x = ...`` in ``__init__``/``__post_init__`` or the dataclass field
line; the comment may sit at the end of the line or on its own line
directly above):

``# guarded-by: <lock>``
    Every later write to the attribute — plain or augmented assignment,
    ``setattr(self.<attr>, ...)``, or assignment through it
    (``self.<attr>.field = ...``) — must sit lexically inside
    ``with self.<lock>:``.  Violations are **CON001**.
``# loop-confined``
    The attribute is only ever written by the owning event-loop thread.
    Statically: no function transitively reachable from a thread entry
    point (a ``threading.Thread(target=...)`` value) may write it —
    **CON002**.  Functions handed to ``call_soon_threadsafe`` run *on* the
    loop (that is the sanctioned thread→loop hand-off), so reachability
    stops there.

**CON003** flags broken annotations themselves: a ``guarded-by`` naming a
lock that is not an attribute of the class, or a ``guarded-by:`` with no
lock name.  ``__init__``/``__post_init__`` are exempt from CON001/CON002 —
construction happens before the object is shared.

The write detection is module-wide by attribute *name* (``job.state = ...``
counts as a write to the annotated ``Job.state`` even though the receiver
is not ``self``): static types are not available, and a name-collision
false positive is a much smaller cost than missing the one write that
corrupts loop state.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.check.findings import Finding

__all__ = ["CONCURRENCY_RULES", "check_concurrency_source", "check_concurrency_tree"]

CONCURRENCY_RULES = ("CON001", "CON002", "CON003")

_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)?")
_LOOP_RE = re.compile(r"#\s*loop-confined\b")

#: Methods exempt from write checks: they run during construction, before
#: the object can be shared across threads.
_CONSTRUCTORS = ("__init__", "__post_init__")


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# --------------------------------------------------------------------------- #
# Annotation harvest (comments are invisible to ast — tokenize sees them)
# --------------------------------------------------------------------------- #
def _comment_annotations(source: str) -> Dict[int, Tuple[str, Optional[str]]]:
    """``{line: ("guard", lock) | ("guard", None) | ("loop", None)}`` for
    every annotation comment (``("guard", None)`` is a malformed
    ``guarded-by`` with no lock name)."""
    annotations: Dict[int, Tuple[str, Optional[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            guarded = _GUARDED_RE.search(token.string)
            if guarded:
                annotations[token.start[0]] = ("guard", guarded.group(1))
            elif _LOOP_RE.search(token.string):
                annotations[token.start[0]] = ("loop", None)
    except tokenize.TokenError:  # pragma: no cover - tolerated, ast will raise
        pass
    return annotations


def _annotation_for(
    node: ast.stmt,
    annotations: Dict[int, Tuple[str, Optional[str]]],
    lines: List[str],
) -> Optional[Tuple[str, Optional[str], int]]:
    """The annotation attached to a statement: on any of its own lines, or
    on pure-comment lines directly above it.  Returns (kind, lock, line)."""
    for line in range(node.lineno, (node.end_lineno or node.lineno) + 1):
        if line in annotations:
            kind, lock = annotations[line]
            return kind, lock, line
    line = node.lineno - 1
    while line >= 1 and line <= len(lines) and lines[line - 1].lstrip().startswith("#"):
        if line in annotations:
            kind, lock = annotations[line]
            return kind, lock, line
        line -= 1
    return None


# --------------------------------------------------------------------------- #
# Module graph
# --------------------------------------------------------------------------- #
class _FuncInfo:
    """One function's slice of the module graph."""

    __slots__ = (
        "node",
        "cls",
        "parent",
        "children",
        "self_calls",
        "name_calls",
        "writes",
        "thread_targets",
    )

    def __init__(self, node: ast.AST, cls: Optional[str], parent: Optional["_FuncInfo"]):
        self.node = node
        self.cls = cls
        self.parent = parent
        self.children: Dict[str, _FuncInfo] = {}
        self.self_calls: Set[str] = set()
        self.name_calls: Set[str] = set()
        #: (attr written, guard-relevant self attr or None, line, locks held)
        self.writes: List[Tuple[str, Optional[str], int, frozenset]] = []
        #: resolved ``threading.Thread(target=...)`` values found in the body
        self.thread_targets: List[Tuple[str, Optional[str], str]] = []


class _ClassInfo:
    __slots__ = ("name", "node", "attrs", "annotated", "methods")

    def __init__(self, name: str, node: ast.ClassDef):
        self.name = name
        self.node = node
        self.attrs: Set[str] = set()  # every self.<attr> assigned anywhere
        #: attr -> (kind, lock, declaration line)
        self.annotated: Dict[str, Tuple[str, Optional[str], int]] = {}
        self.methods: Dict[str, _FuncInfo] = {}


class _GraphBuilder(ast.NodeVisitor):
    """One pass building classes, functions, writes, and entry points."""

    def __init__(
        self,
        annotations: Dict[int, Tuple[str, Optional[str]]],
        lines: List[str],
    ) -> None:
        self.annotations = annotations
        self.lines = lines
        self.classes: Dict[str, _ClassInfo] = {}
        self.module_functions: Dict[str, _FuncInfo] = {}
        self.all_functions: List[_FuncInfo] = []
        self._class_stack: List[_ClassInfo] = []
        self._func_stack: List[_FuncInfo] = []
        self._with_stack: List[List[str]] = [[]]  # per-function lock scopes

    # -- helpers --------------------------------------------------------- #
    @property
    def _cls(self) -> Optional[_ClassInfo]:
        return self._class_stack[-1] if self._class_stack else None

    @property
    def _func(self) -> Optional[_FuncInfo]:
        return self._func_stack[-1] if self._func_stack else None

    def _locks_held(self) -> frozenset:
        return frozenset(self._with_stack[-1])

    # -- scopes ---------------------------------------------------------- #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = _ClassInfo(node.name, node)
        self.classes[node.name] = info
        self._class_stack.append(info)
        for statement in node.body:
            self._harvest_class_field(info, statement)
        self.generic_visit(node)
        self._class_stack.pop()

    def _harvest_class_field(self, info: _ClassInfo, statement: ast.stmt) -> None:
        """Dataclass-style fields: ``name: T = ...`` at class level."""
        target = None
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            target = statement.target.id
        elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            if isinstance(statement.targets[0], ast.Name):
                target = statement.targets[0].id
        if target is None:
            return
        info.attrs.add(target)
        found = _annotation_for(statement, self.annotations, self.lines)
        if found is not None:
            info.annotated[target] = found

    def _visit_function(self, node) -> None:
        cls = self._cls
        parent = self._func
        directly_in_class = cls is not None and node in cls.node.body
        info = _FuncInfo(node, cls.name if cls else None, parent)
        self.all_functions.append(info)
        if parent is not None:
            parent.children[node.name] = info
        elif directly_in_class:
            cls.methods[node.name] = info
        elif cls is None:
            self.module_functions[node.name] = info
        self._func_stack.append(info)
        self._with_stack.append([])  # locks do not cross a def boundary
        self.generic_visit(node)
        self._with_stack.pop()
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_with(self, node) -> None:
        scope = self._with_stack[-1]
        added = []
        for item in node.items:
            dotted = _dotted(item.context_expr)
            if dotted is not None:
                scope.append(dotted)
                added.append(dotted)
        self.generic_visit(node)
        for dotted in added:
            scope.remove(dotted)

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- writes ---------------------------------------------------------- #
    def _record_write(self, target: ast.AST, lineno: int) -> None:
        func = self._func
        if func is None:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write(element, lineno)
            return
        if not isinstance(target, ast.Attribute):
            return
        # ``self.<x>`` / ``obj.<x>`` → write to attribute <x>; additionally
        # ``self.<x>.<y> = ...`` mutates the object behind the guarded
        # attribute <x>.
        guard_attr = None
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            guard_attr = target.attr
        elif (
            isinstance(target.value, ast.Attribute)
            and isinstance(target.value.value, ast.Name)
            and target.value.value.id == "self"
        ):
            guard_attr = target.value.attr
        func.writes.append((target.attr, guard_attr, lineno, self._locks_held()))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write(target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target, node.lineno)
        self.generic_visit(node)

    # -- calls ------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        func = self._func
        dotted = _dotted(node.func)
        if func is not None:
            if isinstance(node.func, ast.Name):
                func.name_calls.add(node.func.id)
                if node.func.id == "setattr" and node.args:
                    self._record_setattr(node)
            elif (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                func.self_calls.add(node.func.attr)
            if dotted is not None and dotted.split(".")[-1] == "Thread":
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        self._record_thread_target(keyword.value)
        self.generic_visit(node)

    def _record_setattr(self, node: ast.Call) -> None:
        """``setattr(self.<x>, "field", v)`` mutates the object behind
        ``self.<x>``; ``setattr(obj, "field", v)`` writes ``field``."""
        func = self._func
        obj = node.args[0]
        guard_attr = None
        if (
            isinstance(obj, ast.Attribute)
            and isinstance(obj.value, ast.Name)
            and obj.value.id == "self"
        ):
            guard_attr = obj.attr
        written = None
        if len(node.args) >= 2:
            field = node.args[1]
            if isinstance(field, ast.Constant) and isinstance(field.value, str):
                written = field.value
        if written is not None or guard_attr is not None:
            func.writes.append(
                (written or guard_attr, guard_attr, node.lineno, self._locks_held())
            )

    def _record_thread_target(self, value: ast.AST) -> None:
        func = self._func
        cls = self._cls
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and cls is not None
        ):
            func.thread_targets.append(("method", cls.name, value.attr))
        elif isinstance(value, ast.Name):
            func.thread_targets.append(("local", None, value.id))


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #
def _is_constructor(info: _FuncInfo) -> bool:
    node = info.node
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
        node.name in _CONSTRUCTORS
    )


def _harvest_init_annotations(builder: _GraphBuilder) -> None:
    """Attributes declared in ``__init__``/``__post_init__`` bodies."""
    for cls in builder.classes.values():
        for name, method in cls.methods.items():
            for statement in ast.walk(method.node):
                targets: List[ast.AST] = []
                if isinstance(statement, ast.Assign):
                    targets = list(statement.targets)
                elif isinstance(statement, ast.AnnAssign):
                    targets = [statement.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attrs.add(target.attr)
                        if name in _CONSTRUCTORS and target.attr not in cls.annotated:
                            found = _annotation_for(
                                statement, builder.annotations, builder.lines
                            )
                            if found is not None:
                                cls.annotated[target.attr] = found


def _resolve_local(info: _FuncInfo, name: str, builder: _GraphBuilder) -> Optional[_FuncInfo]:
    scope: Optional[_FuncInfo] = info
    while scope is not None:
        if name in scope.children:
            return scope.children[name]
        scope = scope.parent
    return builder.module_functions.get(name)


def _thread_reachable(builder: _GraphBuilder) -> Set[int]:
    """ids of every :class:`_FuncInfo` reachable from a thread entry point
    via same-class ``self.<m>()`` calls and lexically-resolved bare-name
    calls.  ``call_soon_threadsafe`` arguments are never *called* by the
    thread, only scheduled onto the loop, so plain name-reference does not
    make a function reachable — only an actual call does."""
    seeds: List[_FuncInfo] = []
    for info in builder.all_functions:
        for kind, cls_name, name in info.thread_targets:
            target: Optional[_FuncInfo] = None
            if kind == "method" and cls_name in builder.classes:
                target = builder.classes[cls_name].methods.get(name)
            else:
                target = _resolve_local(info, name, builder)
            if target is not None:
                seeds.append(target)
    reachable: Set[int] = set()
    stack = list(seeds)
    while stack:
        info = stack.pop()
        if id(info) in reachable:
            continue
        reachable.add(id(info))
        for name in info.self_calls:
            if info.cls and info.cls in builder.classes:
                callee = builder.classes[info.cls].methods.get(name)
                if callee is not None:
                    stack.append(callee)
        for name in info.name_calls:
            callee = _resolve_local(info, name, builder)
            if callee is not None:
                stack.append(callee)
    return reachable


def check_concurrency_source(
    source: str, relpath: str, select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run CON001–CON003 over one module's source text."""
    rules = set(select) if select is not None else set(CONCURRENCY_RULES)
    rules &= set(CONCURRENCY_RULES)
    if not rules:
        return []
    annotations = _comment_annotations(source)
    builder = _GraphBuilder(annotations, source.splitlines())
    builder.visit(ast.parse(source, filename=relpath))
    _harvest_init_annotations(builder)
    findings: List[Finding] = []

    # CON003: broken annotations.
    for cls in builder.classes.values():
        for attr, (kind, lock, line) in sorted(cls.annotated.items()):
            if kind != "guard":
                continue
            if lock is None:
                if "CON003" in rules:
                    findings.append(
                        Finding(
                            path=relpath,
                            line=line,
                            rule="CON003",
                            message=f"guarded-by annotation on {cls.name}.{attr} "
                            "names no lock",
                        )
                    )
            elif lock not in cls.attrs and "CON003" in rules:
                findings.append(
                    Finding(
                        path=relpath,
                        line=line,
                        rule="CON003",
                        message=f"guarded-by annotation on {cls.name}.{attr} names "
                        f"{lock!r}, which is not an attribute of {cls.name}",
                    )
                )

    # CON001: guarded writes must hold the lock.
    if "CON001" in rules:
        for info in builder.all_functions:
            if info.cls is None or _is_constructor(info):
                continue
            cls = builder.classes.get(info.cls)
            if cls is None:
                continue
            for _written, guard_attr, line, locks in info.writes:
                if guard_attr is None:
                    continue
                annotation = cls.annotated.get(guard_attr)
                if annotation is None or annotation[0] != "guard" or annotation[1] is None:
                    continue
                if f"self.{annotation[1]}" not in locks:
                    findings.append(
                        Finding(
                            path=relpath,
                            line=line,
                            rule="CON001",
                            message=f"write to {cls.name}.{guard_attr} (guarded by "
                            f"{annotation[1]}) outside `with self.{annotation[1]}:`",
                        )
                    )

    # CON002: loop-confined attrs are never written on a worker thread.
    if "CON002" in rules:
        loop_confined: Dict[str, str] = {}
        for cls in builder.classes.values():
            for attr, (kind, _lock, _line) in cls.annotated.items():
                if kind == "loop":
                    loop_confined.setdefault(attr, cls.name)
        if loop_confined:
            reachable = _thread_reachable(builder)
            for info in builder.all_functions:
                if id(info) not in reachable or _is_constructor(info):
                    continue
                for written, _guard_attr, line, _locks in info.writes:
                    if written in loop_confined:
                        findings.append(
                            Finding(
                                path=relpath,
                                line=line,
                                rule="CON002",
                                message=f"write to loop-confined attribute "
                                f"{loop_confined[written]}.{written} from "
                                "thread-reachable function "
                                f"{getattr(info.node, 'name', '?')!r}",
                            )
                        )
    return findings


def check_concurrency_tree(
    package_root: Path, select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run the concurrency rules over every ``*.py`` under the package."""
    findings: List[Finding] = []
    for path in sorted(package_root.rglob("*.py")):
        relpath = path.relative_to(package_root).as_posix()
        findings.extend(
            check_concurrency_source(path.read_text(encoding="utf-8"), relpath, select)
        )
    return findings
