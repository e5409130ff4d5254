"""AST checker behind repro-lint.

Parses each file once, walks the tree with a visitor that tracks import
aliases (so ``import random as rnd`` is still caught), and reports
:class:`Violation` records. A violation on a line carrying
``# repro-lint: disable=CODE`` (comma-separated codes or rule names) is
suppressed; unknown tokens in a suppression are themselves reported so
typos cannot silently disable a rule.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import RULES_BY_CODE, Rule, resolve_rule

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")

# Wall-clock callables, by originating module (RPL004).
_TIME_FUNCS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}

# Constructors whose result is mutable (RPL005).
_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "OrderedDict",
    "defaultdict",
    "Counter",
    "deque",
}

# Method names whose first argument acts as a lookup key (RPL003).
_KEYED_METHODS = {"get", "setdefault", "pop"}

# Serializer method names whose dict comprehensions RPL006 audits.
_SERIALIZER_NAMES = {"to_dict", "as_dict"}

# Enum attribute accesses accepted as stable dict keys (RPL006).
_STABLE_KEY_ATTRS = {"value", "name"}


@dataclass(frozen=True)
class Violation:
    """One rule hit at a source location."""

    path: str
    line: int
    col: int
    rule: Rule
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule.code} [{self.rule.name}] {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.rule.code,
            "rule": self.rule.name,
            "message": self.message,
        }


def _suppressions(source: str, path: str) -> Tuple[Dict[int, Set[str]], List[Violation]]:
    """Map line number -> set of suppressed rule codes.

    Unknown rule tokens are themselves reported (RPL000) so a typo in a
    disable= comment cannot silently suppress nothing.
    """
    table: Dict[int, Set[str]] = {}
    bad: List[Violation] = []
    # Tokenize so only real comments count — a docstring or string literal
    # that merely *mentions* the suppression syntax is not a suppression.
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return table, bad
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if not match:
            continue
        lineno = tok.start[0]
        codes: Set[str] = set()
        for token in match.group(1).split(","):
            token = token.strip()
            if not token:
                continue
            try:
                codes.add(resolve_rule(token).code)
            except KeyError:
                bad.append(
                    Violation(
                        path=path,
                        line=lineno,
                        col=tok.start[1],
                        rule=RULES_BY_CODE["RPL000"],
                        message=(
                            f"unknown rule {token!r} in repro-lint "
                            f"suppression (typo would silently disable "
                            f"nothing)"
                        ),
                    )
                )
        if codes:
            table.setdefault(lineno, set()).update(codes)
    return table, bad


class _Checker(ast.NodeVisitor):
    """Single-file visitor implementing every catalogue rule."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[Violation] = []
        # Module aliases: local name -> canonical module ("random", "time",
        # "datetime"). `import random as rnd` maps rnd -> random.
        self.module_aliases: Dict[str, str] = {}
        # From-imported callables: local name -> (module, original name).
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        # Nesting stack of function names, for RPL006's serializer scope.
        self._func_stack: List[str] = []

    # -- helpers -------------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        rule = RULES_BY_CODE[code]
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    def _module_of(self, node: ast.expr) -> Optional[str]:
        """Canonical module behind a Name node, if it aliases one."""
        if isinstance(node, ast.Name):
            return self.module_aliases.get(node.id)
        return None

    def _is_unordered(self, node: ast.expr) -> bool:
        """Does this expression evaluate to a set (unordered)?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        # x | y on set literals etc. is out of scope: only flag the
        # syntactically obvious cases to keep the rule low-noise.
        return False

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("random", "time", "datetime"):
                self.module_aliases[alias.asname or root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            root = node.module.split(".")[0]
            if root in ("random", "time", "datetime"):
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        root,
                        alias.name,
                    )
        self.generic_visit(node)

    # -- RPL001: unordered iteration ----------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered(node.iter):
            self._report(
                node.iter,
                "RPL001",
                "iterating an unordered set; sort or use an ordered container",
            )
        self.generic_visit(node)

    def _check_generators(
        self,
        node: "ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp",
    ) -> None:
        for gen in node.generators:
            if self._is_unordered(gen.iter):
                self._report(
                    gen.iter,
                    "RPL001",
                    "comprehension over an unordered set; sort or use an "
                    "ordered container",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_generators(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_generators(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_generators(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_generators(node)
        self._check_serializer_keys(node)
        self.generic_visit(node)

    # -- RPL002/RPL003/RPL004: calls ----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_module_call(node)
        self._check_keyed_method(node)
        self.generic_visit(node)

    def _check_module_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            module = self._module_of(func.value)
            attr = func.attr
            if module == "random":
                # Constructing a dedicated generator is the fix, not the bug.
                if attr not in ("Random", "SystemRandom"):
                    self._report(
                        node,
                        "RPL002",
                        f"random.{attr}() uses the shared global RNG; use a "
                        f"seeded random.Random instance",
                    )
            elif module == "time" and attr in _TIME_FUNCS:
                self._report(
                    node,
                    "RPL004",
                    f"time.{attr}() reads the wall clock inside simulation "
                    f"code; use the simulated clock",
                )
            elif module == "datetime" and attr in _DATETIME_FUNCS:
                self._report(
                    node,
                    "RPL004",
                    f"datetime {attr}() reads the wall clock; use the "
                    f"simulated clock",
                )
            elif (
                isinstance(func.value, ast.Attribute)
                and self._module_of(func.value.value) == "datetime"
                and attr in _DATETIME_FUNCS
            ):
                # datetime.datetime.now() / datetime.date.today()
                self._report(
                    node,
                    "RPL004",
                    f"datetime {attr}() reads the wall clock; use the "
                    f"simulated clock",
                )
        elif isinstance(func, ast.Name) and func.id in self.from_imports:
            module, original = self.from_imports[func.id]
            if module == "random" and original not in ("Random", "SystemRandom"):
                self._report(
                    node,
                    "RPL002",
                    f"random.{original}() (imported as {func.id}) uses the "
                    f"shared global RNG; use a seeded random.Random instance",
                )
            elif module == "time" and original in _TIME_FUNCS:
                self._report(
                    node,
                    "RPL004",
                    f"time.{original}() (imported as {func.id}) reads the "
                    f"wall clock; use the simulated clock",
                )
            elif module == "datetime" and original in _DATETIME_FUNCS:
                self._report(
                    node,
                    "RPL004",
                    f"datetime {original}() reads the wall clock; use the "
                    f"simulated clock",
                )

    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def _check_keyed_method(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _KEYED_METHODS
            and node.args
            and self._is_id_call(node.args[0])
        ):
            self._report(
                node.args[0],
                "RPL003",
                f".{node.func.attr}(id(...)) keys a lookup on an object "
                f"address; addresses vary across runs and can be recycled",
            )

    # -- RPL003: id() as subscript or dict-literal key -----------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_id_call(node.slice):
            self._report(
                node.slice,
                "RPL003",
                "id(...) used as a subscript key; addresses vary across "
                "runs and can be recycled",
            )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and self._is_id_call(key):
                self._report(
                    key,
                    "RPL003",
                    "id(...) used as a dict key; addresses vary across "
                    "runs and can be recycled",
                )
        self.generic_visit(node)

    # -- RPL005: mutable defaults -------------------------------------

    def _check_defaults(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda"
    ) -> None:
        args = node.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ):
                self._report(
                    default,
                    "RPL005",
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside",
                )
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            ):
                self._report(
                    default,
                    "RPL005",
                    f"{default.func.id}() default argument is evaluated "
                    f"once and shared across calls; default to None and "
                    f"construct inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- RPL006: serializer dict keys ---------------------------------

    def _check_serializer_keys(self, node: ast.DictComp) -> None:
        if not any(name in _SERIALIZER_NAMES for name in self._func_stack):
            return
        key = node.key
        if isinstance(key, ast.Constant):
            return
        if isinstance(key, ast.Attribute) and key.attr in _STABLE_KEY_ATTRS:
            return
        self._report(
            key,
            "RPL006",
            "dict comprehension key in a to_dict/as_dict serializer must "
            "be a constant or an enum's .value/.name so the JSON artifact "
            "is stable",
        )


def lint_source(source: str, path: str = "<string>") -> List[Violation]:
    """Lint one already-read source string."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ValueError(f"{path}: cannot parse: {exc}") from exc
    checker = _Checker(path)
    checker.visit(tree)
    suppressed, bad_suppressions = _suppressions(source, path)
    kept = [
        v
        for v in checker.violations
        if v.rule.code not in suppressed.get(v.line, set())
    ]
    kept.extend(bad_suppressions)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule.code))
    return kept


def lint_file(path: str) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into a sorted, deterministic file list."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__" and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        out.append(os.path.join(dirpath, filename))
        else:
            out.append(path)
    return out


def lint_paths(paths: Sequence[str]) -> List[Violation]:
    """Lint every .py file under ``paths``; returns all violations."""
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path))
    return violations
