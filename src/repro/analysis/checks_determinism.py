"""Determinism rules: RNG discipline, bitwise-safe gathers, scratch use.

These rules guard the reproducibility contracts the solver stack is
built on: answers are a pure function of ``(seed, source)``, block rows
are bitwise-identical to independent solves, and hot-path kernels do
not churn the allocator.  See CONTRIBUTING.md for the invariant table.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.corpus import SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    Rule,
    dotted_name,
    register_rule,
    walk_functions,
)

#: The module that owns seed -> stream derivation (`per_source_rng`);
#: its intentionally-unseeded fallback for unseeded stochastic queries
#: is the one sanctioned ambient-entropy site.
SANCTIONED_RNG_MODULE = "repro.api.registry"

#: Legacy global-state numpy RNG entry points.  Any of these makes the
#: answer depend on process-wide hidden state, breaking the
#: (seed, source) purity the serving layer's coalescing relies on.
_LEGACY_NP_RANDOM = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "choice",
        "dirichlet",
        "exponential",
        "gamma",
        "get_state",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_normal",
        "uniform",
        "RandomState",
    }
)

#: stdlib ``random`` module functions (all draw from one global state).
_STDLIB_RANDOM = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@register_rule
class RngDisciplineRule(Rule):
    id = "rng-discipline"
    summary = (
        "no ambient RNG: legacy np.random.* / stdlib random.* / unseeded "
        "default_rng() outside the sanctioned derivation module"
    )
    invariant = (
        "Every answer is a pure function of (seed, source): stochastic "
        "solvers draw from an explicit numpy Generator derived via "
        "per_source_rng, never from process-global or unseeded entropy."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if file.module == SANCTIONED_RNG_MODULE:
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            finding = self._classify(file, node, name)
            if finding is not None:
                yield finding

    def _classify(
        self, file: SourceFile, node: ast.Call, name: str
    ) -> Finding | None:
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            fn = parts[2]
            if fn in _LEGACY_NP_RANDOM:
                return self.finding(
                    file,
                    node,
                    f"legacy global-state RNG call {name}(); derive an "
                    f"explicit Generator via per_source_rng / "
                    f"default_rng(seed) instead",
                )
            if fn == "default_rng" and not node.args and not node.keywords:
                return self.finding(
                    file,
                    node,
                    "unseeded np.random.default_rng(): ambient entropy "
                    "breaks (seed, source) reproducibility; pass an "
                    "explicit seed or accept an rng parameter",
                )
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _STDLIB_RANDOM
        ):
            return self.finding(
                file,
                node,
                f"stdlib global-state RNG call {name}(); use an explicit "
                f"numpy Generator instead",
            )
        return None


@register_rule
class ColumnFancyGatherRule(Rule):
    id = "no-column-fancy-gather"
    summary = (
        "no arr[:, idx] column fancy-gathers in kernel code; use "
        "np.take(arr, idx, axis=1)"
    )
    invariant = (
        "Block rows are bitwise-identical to independent solves only "
        "when row-wise reductions run over C-contiguous gathers: a "
        "[:, idx] fancy index yields a transposed buffer whose strided "
        "rows reduce sequentially instead of pairwise."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not file.in_package("repro.core"):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Subscript):
                continue
            index = node.slice
            if not isinstance(index, ast.Tuple) or len(index.elts) != 2:
                continue
            first, second = index.elts
            if not isinstance(first, ast.Slice):
                continue
            if first.lower is not None or first.upper is not None:
                continue
            if isinstance(second, (ast.Slice, ast.Constant)):
                # arr[:, 3] picks one column and arr[:, a:b] is a view;
                # neither materialises a strided fancy-gather result.
                continue
            yield self.finding(
                file,
                node,
                "[:, idx] column fancy-gather returns a transposed "
                "(F-ordered) buffer whose row reductions are not "
                "pairwise; use np.take(arr, idx, axis=1) to keep block "
                "rows bitwise-identical to independent solves",
            )


@register_rule
class MutableDefaultRule(Rule):
    id = "no-mutable-default"
    summary = (
        "no mutable or call-at-definition-time (ambient time/entropy) "
        "default argument values"
    )
    invariant = (
        "Solver signatures are pure: a mutable default is shared state "
        "across calls, and a time/RNG call in a default is evaluated "
        "once at import, silently freezing an 'ambient' value."
    )

    _AMBIENT_CALLS = frozenset(
        {
            "time.time",
            "time.monotonic",
            "time.perf_counter",
            "time.process_time",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.date.today",
            "date.today",
        }
    )

    _MUTABLE_FACTORIES = frozenset(
        {
            "list",
            "dict",
            "set",
            "bytearray",
            "np.array",
            "np.empty",
            "np.zeros",
            "np.ones",
            "numpy.array",
            "numpy.empty",
            "numpy.zeros",
            "numpy.ones",
        }
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        assert file.tree is not None
        for fn in walk_functions(file.tree):
            defaults = [*fn.args.defaults, *fn.args.kw_defaults]
            for default in defaults:
                if default is None:
                    continue
                yield from self._check_default(file, fn, default)

    def _check_default(
        self,
        file: SourceFile,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        default: ast.expr,
    ) -> Iterator[Finding]:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            yield self.finding(
                file,
                default,
                f"mutable default in {fn.name}(): the object is shared "
                f"across every call; default to None and construct "
                f"inside the body",
            )
            return
        if isinstance(default, ast.Call):
            name = dotted_name(default.func) or "<call>"
            if name in self._AMBIENT_CALLS:
                yield self.finding(
                    file,
                    default,
                    f"ambient-time default {name}() in {fn.name}(): "
                    f"evaluated once at definition time, not per call; "
                    f"default to None and read the clock in the body",
                )
            elif name in self._MUTABLE_FACTORIES:
                yield self.finding(
                    file,
                    default,
                    f"mutable default {name}(...) in {fn.name}(): the "
                    f"object is shared across every call; default to "
                    f"None and construct inside the body",
                )


@register_rule
class WorkspaceDisciplineRule(Rule):
    id = "workspace-discipline"
    summary = (
        "kernel hot paths allocate scratch via Workspace, not raw "
        "np.empty/np.zeros"
    )
    invariant = (
        "Kernels that accept a workspace= parameter serve every "
        "temporary from it, so allocation counts stay flat across a "
        "solve; raw allocations are confined to the sanctioned "
        "workspace-is-None fallback branch or a _scratch helper."
    )

    _ALLOCATORS = frozenset(
        {
            "np.empty",
            "np.zeros",
            "np.ones",
            "np.full",
            "numpy.empty",
            "numpy.zeros",
            "numpy.ones",
            "numpy.full",
        }
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if file.module != "repro.core.kernels":
            return
        assert file.tree is not None
        for fn in walk_functions(file.tree):
            if fn.name.startswith("_scratch"):
                # The sanctioned pooled-or-fresh helper is exactly the
                # place the raw fallback allocation lives.
                continue
            arg_names = {
                arg.arg
                for arg in (
                    *fn.args.posonlyargs,
                    *fn.args.args,
                    *fn.args.kwonlyargs,
                )
            }
            if "workspace" not in arg_names:
                continue
            exempt = self._fallback_nodes(fn)
            for node in ast.walk(fn):
                if id(node) in exempt or not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name in self._ALLOCATORS:
                    yield self.finding(
                        file,
                        node,
                        f"raw {name}(...) in kernel {fn.name}() that "
                        f"accepts workspace=; request a pooled buffer "
                        f"(workspace.buffer / _scratch) so hot-loop "
                        f"allocation counts stay flat",
                    )

    @staticmethod
    def _fallback_nodes(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[int]:
        """ids of nodes inside sanctioned ``workspace is None`` branches."""
        exempt: set[int] = set()

        def test_is(node: ast.expr, negated: bool) -> bool:
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                return False
            left, (op,), (right,) = node.left, node.ops, node.comparators
            names = {
                n.id for n in (left, right) if isinstance(n, ast.Name)
            }
            if "workspace" not in names:
                return False
            is_none = any(
                isinstance(n, ast.Constant) and n.value is None
                for n in (left, right)
            )
            if not is_none:
                return False
            if negated:
                return isinstance(op, ast.IsNot)
            return isinstance(op, ast.Is)

        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            if test_is(node.test, negated=False):  # if workspace is None
                branch: list[ast.stmt] = node.body
            elif test_is(node.test, negated=True):  # if workspace is not None
                branch = node.orelse
            else:
                continue
            for stmt in branch:
                for sub in ast.walk(stmt):
                    exempt.add(id(sub))
        return exempt
