"""Cross-module rule: registry/signature sync.

A project-scope rule: it anchors on ``repro.api.registry`` and
cross-references the ASTs of the solver modules it registers.  When
the corpus does not contain the registry (e.g. an ad-hoc single-file
lint), it reports nothing.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.corpus import Corpus, SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    Rule,
    dotted_name,
    has_kwargs,
    register_rule,
)

_REGISTRY_MODULE = "repro.api.registry"


# ---------------------------------------------------------------------------
# registry-signature-sync
# ---------------------------------------------------------------------------

#: Parameters the SolverSpec machinery consumes before the wrapped
#: function is called.  ``seed`` is popped by SolverSpec.solve and
#: re-injected as a derived ``rng`` Generator, so declaring it is valid
#: exactly when the solver accepts ``rng``.
_MACHINERY_PARAMS = frozenset({"seed"})


@register_rule
class RegistrySignatureSyncRule(Rule):
    id = "registry-signature-sync"
    summary = (
        "every SolverSpec's declared params are accepted by the "
        "wrapped solver function's actual signature"
    )
    invariant = (
        "The registry's unified parameter schema never drifts from the "
        "concrete solver signatures: a declared ParamSpec the function "
        "cannot accept would turn valid requests into TypeErrors deep "
        "in a worker batch."
    )
    scope = "project"

    def check_project(self, corpus: Corpus) -> Iterable[Finding]:
        registry = corpus.by_module(_REGISTRY_MODULE)
        if registry is None or registry.tree is None:
            return
        tree = registry.tree
        imports = _import_map(tree)
        local_defs = _collect_defs(tree)
        constants = _tuple_constants(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            if dotted_name(call.func) != "register_solver":
                continue
            spec_call = call.args[0] if call.args else None
            if not isinstance(spec_call, ast.Call):
                continue
            if dotted_name(spec_call.func) != "SolverSpec":
                continue
            yield from self._check_spec(
                registry, corpus, spec_call, imports, local_defs, constants
            )

    def _check_spec(
        self,
        registry: SourceFile,
        corpus: Corpus,
        spec_call: ast.Call,
        imports: dict[str, str],
        local_defs: dict[str, ast.FunctionDef],
        constants: dict[str, tuple[str, ...]],
    ) -> Iterable[Finding]:
        keywords = {kw.arg: kw.value for kw in spec_call.keywords if kw.arg}
        name_node = keywords.get("name")
        method = (
            name_node.value
            if isinstance(name_node, ast.Constant)
            else "<unknown>"
        )
        declared = _resolve_params(keywords.get("params"), constants)
        fn_node = keywords.get("fn")
        if declared is None or fn_node is None:
            return
        resolved = self._resolve_fn(
            fn_node, corpus, imports, local_defs
        )
        if resolved is None:
            return
        accepted, accepts_anything, target_name = resolved
        if accepts_anything:
            return
        for param in declared:
            if param in _MACHINERY_PARAMS:
                if "rng" in accepted:
                    continue
                yield self.finding(
                    registry,
                    spec_call,
                    f"solver {method!r} declares 'seed' but "
                    f"{target_name}() accepts no 'rng' parameter to "
                    f"receive the derived generator",
                )
                continue
            if param not in accepted:
                yield self.finding(
                    registry,
                    spec_call,
                    f"solver {method!r} declares parameter {param!r} "
                    f"that {target_name}() does not accept; sync the "
                    f"SolverSpec params with the function signature",
                )

    def _resolve_fn(
        self,
        fn_node: ast.expr,
        corpus: Corpus,
        imports: dict[str, str],
        local_defs: dict[str, ast.FunctionDef],
    ) -> tuple[set[str], bool, str] | None:
        """(accepted params, accepts-anything, display name) for ``fn``."""
        if isinstance(fn_node, ast.Name):
            fn = self._lookup(fn_node.id, corpus, imports, local_defs)
            if fn is None:
                return None
            accepted, anything = _accepted_params(fn)
            return accepted, anything, fn_node.id
        if isinstance(fn_node, ast.Call) and fn_node.args:
            # Wrapper pattern: fn=_wrap(underlying, ...).  The wrapper's
            # returned adapter contributes its own named params and
            # forwards **kwargs to the underlying solver.
            inner = fn_node.args[0]
            if not isinstance(inner, ast.Name):
                return None
            underlying = self._lookup(
                inner.id, corpus, imports, local_defs
            )
            if underlying is None:
                return None
            accepted, anything = _accepted_params(underlying)
            wrapper_name = (
                fn_node.func.id
                if isinstance(fn_node.func, ast.Name)
                else None
            )
            if wrapper_name and wrapper_name in local_defs:
                accepted |= _adapter_extra_params(local_defs[wrapper_name])
            return accepted, anything, inner.id
        return None

    @staticmethod
    def _lookup(
        name: str,
        corpus: Corpus,
        imports: dict[str, str],
        local_defs: dict[str, ast.FunctionDef],
    ) -> ast.FunctionDef | None:
        if name in local_defs:
            return local_defs[name]
        module_name = imports.get(name)
        if module_name is None:
            return None
        module = corpus.by_module(module_name)
        if module is None or module.tree is None:
            return None
        return _collect_defs(module.tree).get(name)


def _import_map(tree: ast.Module) -> dict[str, str]:
    """local name -> source module, for ``from X import a, b as c``."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imports[alias.asname or alias.name] = node.module
    return imports


def _collect_defs(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _tuple_constants(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Module-level ``NAME = ("a", "b")`` string-tuple assignments."""
    constants: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if not isinstance(value, ast.Tuple):
            continue
        elements: list[str] = []
        resolvable = True
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                elements.append(elt.value)
            elif isinstance(elt, ast.Starred) and isinstance(
                elt.value, ast.Name
            ):
                expansion = constants.get(elt.value.id)
                if expansion is None:
                    resolvable = False
                    break
                elements.extend(expansion)
            else:
                resolvable = False
                break
        if resolvable:
            constants[target.id] = tuple(elements)
    return constants


def _resolve_params(
    node: ast.expr | None, constants: dict[str, tuple[str, ...]]
) -> tuple[str, ...] | None:
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if not isinstance(node, ast.Tuple):
        return None
    elements: list[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            elements.append(elt.value)
        elif isinstance(elt, ast.Starred) and isinstance(elt.value, ast.Name):
            expansion = constants.get(elt.value.id)
            if expansion is None:
                return None
            elements.extend(expansion)
        else:
            return None
    return tuple(elements)


def _accepted_params(fn: ast.FunctionDef) -> tuple[set[str], bool]:
    """Named params after (graph, source), plus an accepts-** flag."""
    args = fn.args
    positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
    accepted = set(positional[2:]) | {arg.arg for arg in args.kwonlyargs}
    return accepted, has_kwargs(fn)


def _adapter_extra_params(wrapper: ast.FunctionDef) -> set[str]:
    """Named params the wrapper's nested adapter def(s) add."""
    extra: set[str] = set()
    for node in ast.walk(wrapper):
        if node is wrapper or not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
        extra |= set(positional[2:])
        extra |= {arg.arg for arg in args.kwonlyargs}
    return extra
