"""Solver registry: every SSPPR algorithm behind one ``solve`` protocol.

The paper's thesis is that one framework unifies the global and local
approaches to PPR — this module is that thesis as an API.  Every
algorithm in the library registers a :class:`SolverSpec` carrying

* a canonical **name** plus **aliases** (``repro-ppr query --method
  fwdpush`` and ``--method fifo-fwdpush`` hit the same solver), all
  resolved case- and separator-insensitively;
* its **kind** (``"exact"`` high-precision vs ``"approx"``) and
  capability flags (``needs_rng``, ``needs_walk_index``,
  ``needs_precomputation``) that the :class:`~repro.api.engine.PPREngine`
  uses to decide which cached artefacts to inject;
* a unified **parameter schema** drawn from one shared namespace
  (``alpha``, ``l1_threshold``, ``epsilon``, ``seed`` …), so callers
  never need to know per-function signatures.

Dispatch is uniform::

    >>> from repro.api import get_solver
    >>> spec = get_solver("powitr")          # or "power-iteration", "PI"
    >>> result = spec.solve(graph, 0, params={"l1_threshold": 1e-8})

Adding an algorithm is a one-call registration —
:func:`register_solver` — after which it is automatically available to
``PPREngine.query``, the CLI, and the experiment harness.

**Variant aliases** may imply parameters: ``"fora+"`` resolves to the
``fora`` spec with ``use_index=True`` pre-set, mirroring how the paper
treats FORA+ as FORA with a pre-computed walk index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.baselines.fora import fora
from repro.baselines.resacc import resacc
from repro.bepi.blockelim import build_bepi_index
from repro.bepi.solver import bepi_query
from repro.core.fifo_fwdpush import fifo_forward_push, r_max_for_l1_threshold
from repro.core.fwdpush import forward_push
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import power_push, power_push_block
from repro.core.sim_fwdpush import simultaneous_forward_push
from repro.core.speedppr import speed_ppr
from repro.core.result import PPRResult
from repro.errors import ParameterError, UnknownMethodError
from repro.graph.digraph import DiGraph
from repro.montecarlo.chernoff import (
    chernoff_walk_count,
    default_failure_probability,
    default_mu,
)
from repro.montecarlo.mc import monte_carlo_ppr
from repro.walks.index import (
    WalkIndex,
    build_walk_index,
    fora_plus_walk_counts,
    speedppr_walk_counts,
)

__all__ = [
    "ParamSpec",
    "SolverSpec",
    "per_source_rng",
    "register_solver",
    "get_solver",
    "resolve_method",
    "canonical_method_name",
    "solver_names",
    "solver_specs",
    "solve",
    "solve_block",
    "build_speedppr_index",
    "build_fora_index",
]


def per_source_rng(seed: int, source: int) -> np.random.Generator:
    """The RNG stream an explicit ``seed`` yields for ``source``.

    One independent stream per *source id* —
    ``default_rng(SeedSequence([seed, source]))`` — never per batch
    position, so the answer a source gets under a fixed seed does not
    depend on where it sits in a batch or on which other sources ride
    along (the property the serving layer's coalescing relies on).
    Every seeded path resolves through this one derivation —
    ``solve(g, s, m, seed=S)``, ``PPREngine.query(s, m, seed=S)``, any
    seeded batch member, and a served answer under seed ``S`` are
    byte-identical.
    """
    if seed < 0 or source < 0:
        raise ParameterError(
            f"per-source streams need non-negative seed/source, got "
            f"seed={seed}, source={source}"
        )
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(source)])
    )


# ---------------------------------------------------------------------------
# Parameter schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One named parameter of the unified query-parameter namespace."""

    name: str
    description: str


#: The shared parameter namespace.  Every solver's schema is a subset.
PARAMS: dict[str, ParamSpec] = {
    spec.name: spec
    for spec in (
        ParamSpec("alpha", "teleport probability (paper default 0.2)"),
        ParamSpec("l1_threshold", "l1-error bound lambda (exact methods)"),
        ParamSpec("r_max", "per-degree push threshold (push methods)"),
        ParamSpec("epsilon", "relative-error bound (approx methods)"),
        ParamSpec("mu", "relative-error floor; defaults to 1/n"),
        ParamSpec("p_fail", "failure probability; defaults to 1/n"),
        ParamSpec("num_walks", "explicit Monte-Carlo walk count W"),
        ParamSpec("seed", "integer seed for the stochastic phase"),
        ParamSpec("rng", "numpy Generator (overrides seed)"),
        ParamSpec("walk_index", "pre-computed WalkIndex (FORA+/SpeedPPR-Index)"),
        ParamSpec("use_index", "build/use a walk index when none is supplied"),
        ParamSpec("bepi_index", "pre-computed BePIIndex"),
        ParamSpec("delta", "BePI's Schur-iteration convergence parameter"),
        ParamSpec("scheduler", "push order: fifo | lifo | max-residue"),
        ParamSpec("mode", "execution mode: faithful | frontier/vectorized | auto"),
        ParamSpec("config", "PowerPushConfig tuning knobs"),
        ParamSpec("dead_end_policy", "dead-end handling rule"),
        ParamSpec("trace", "ConvergenceTrace to record into"),
        ParamSpec("max_iterations", "safety cap on iterations"),
        ParamSpec("max_sweeps", "safety cap on vectorised sweeps"),
        ParamSpec("max_pushes", "safety cap on scalar pushes"),
        ParamSpec("max_inner_iterations", "cap on BePI's Schur iterations"),
        ParamSpec("push_mode", "FwdPush phase mode inside FORA"),
        ParamSpec("allow_monte_carlo_shortcut", "paper's m >= W fallback"),
    )
}


# ---------------------------------------------------------------------------
# Solver specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverSpec:
    """One registered SSPPR algorithm behind the common protocol.

    Attributes
    ----------
    name:
        Canonical method name (also the normalisation target of every
        alias).
    aliases:
        Alternative spellings accepted anywhere a method name is.
    kind:
        ``"exact"`` (high-precision, deterministic contract) or
        ``"approx"`` (relative-error contract).
    summary:
        One-line human description for ``repro-ppr list``.
    params:
        Names from :data:`PARAMS` this solver accepts.
    fn:
        Adapter ``fn(graph, source, **params) -> PPRResult``.
    needs_rng:
        The solver consumes randomness; ``seed`` is translated to a
        ``numpy`` Generator when no ``rng`` is passed.
    needs_walk_index:
        The solver can exploit a pre-computed :class:`WalkIndex`.
    needs_precomputation:
        The solver requires per-graph preprocessing (BePI's block
        elimination) before it can answer queries.
    index_by_default:
        The :class:`~repro.api.engine.PPREngine` should serve this
        method from its cached walk index unless told otherwise
        (SpeedPPR's eps-independent index makes this free).
    block_fn:
        Optional multi-source adapter
        ``block_fn(graph, sources, **params) -> list[PPRResult]`` that
        answers a whole batch in one block solve (one adjacency scan
        amortised over all sources).  Solvers that register one promise
        the block answers are element-wise identical to per-source
        ``fn`` calls; :meth:`solve_block` falls back to a per-source
        loop when absent.
    """

    name: str
    aliases: tuple[str, ...]
    kind: str
    summary: str
    params: tuple[str, ...]
    fn: Callable[..., PPRResult] = field(repr=False, compare=False, default=None)
    needs_rng: bool = False
    needs_walk_index: bool = False
    needs_precomputation: bool = False
    index_by_default: bool = False
    block_fn: Callable[..., list] | None = field(
        repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "approx"):
            raise ParameterError(
                f"solver kind must be 'exact' or 'approx', got {self.kind!r}"
            )
        unknown = [p for p in self.params if p not in PARAMS]
        if unknown:
            raise ParameterError(
                f"solver {self.name!r} declares parameters outside the "
                f"unified schema: {unknown}"
            )
        if not callable(self.fn):
            raise ParameterError(
                f"solver {self.name!r} needs a callable fn adapter"
            )

    def accepts(self, param: str) -> bool:
        """Whether ``param`` belongs to this solver's schema."""
        return param in self.params

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`ParameterError` on names outside the schema."""
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ParameterError(
                f"method {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: {', '.join(self.params)}"
            )

    def solve(
        self,
        graph: DiGraph,
        source: int,
        *,
        params: Mapping[str, Any] | None = None,
        **kwargs: Any,
    ) -> PPRResult:
        """Answer one SSPPR query through the unified protocol.

        Parameters may be passed as a mapping, as keywords, or both
        (keywords win).  Unknown parameters raise
        :class:`~repro.errors.ParameterError`; a ``seed`` is converted
        to a fresh ``numpy`` Generator for stochastic solvers.
        """
        merged: dict[str, Any] = dict(params or {})
        merged.update(kwargs)
        self.validate_params(merged)
        seed = merged.pop("seed", None)
        if self.needs_rng and merged.get("rng") is None:
            # With a pre-computed walk index the solver has no live
            # stochastic phase to seed (the index adapter drops the
            # generator before the solver sees it); skip the implicit
            # injection so a seeded ad-hoc index build stays the only
            # consumer.
            if merged.get("walk_index") is None:
                # Explicit seeds resolve through the per-source
                # derivation so registry-direct answers match the
                # engine's and the serving layer's byte-for-byte.
                merged["rng"] = (
                    per_source_rng(seed, source)
                    if seed is not None
                    else np.random.default_rng()
                )
        return self.fn(graph, source, **merged)

    @property
    def supports_block(self) -> bool:
        """Whether a genuinely multi-source ``block_fn`` is registered."""
        return self.block_fn is not None

    def solve_block(
        self,
        graph: DiGraph,
        sources,
        *,
        params: Mapping[str, Any] | None = None,
        **kwargs: Any,
    ) -> list[PPRResult]:
        """Answer one query per source, through the block path if any.

        Results align with ``sources``.  With a registered ``block_fn``
        the whole batch is one block solve; otherwise each source is
        answered by an independent :meth:`solve` — either way the
        answers are element-wise what per-source calls produce, so
        callers can batch opportunistically.
        """
        merged: dict[str, Any] = dict(params or {})
        merged.update(kwargs)
        self.validate_params(merged)
        sources = [int(s) for s in sources]
        if self.block_fn is None:
            return [self.solve(graph, s, params=merged) for s in sources]
        return self.block_fn(graph, sources, **merged)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, SolverSpec] = {}
#: normalised alias -> (canonical name, implied parameter overrides)
_ALIASES: dict[str, tuple[str, dict[str, Any]]] = {}
#: alias spellings as registered, for error messages and listings
_DISPLAY_NAMES: set[str] = set()


def _normalize(name: str) -> str:
    """Case- and separator-insensitive canonical form of a method name."""
    return name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")


def register_solver(
    spec: SolverSpec,
    *,
    variants: Mapping[str, Mapping[str, Any]] | None = None,
) -> SolverSpec:
    """Register ``spec`` under its name, aliases, and variant aliases.

    ``variants`` maps extra aliases to implied parameter overrides,
    e.g. ``{"fora+": {"use_index": True}}``.  Re-registering a taken
    name or alias raises :class:`~repro.errors.ParameterError`.
    """
    if spec.name in _REGISTRY:
        raise ParameterError(f"solver {spec.name!r} is already registered")
    keys = [spec.name, *spec.aliases]
    for alias, overrides in (variants or {}).items():
        keys.append(alias)
    seen: set[str] = set()
    for key in keys:
        norm = _normalize(key)
        if norm in seen:
            raise ParameterError(
                f"solver {spec.name!r} registers the spelling {key!r} twice"
            )
        seen.add(norm)
        if norm in _ALIASES:
            raise ParameterError(
                f"method name {key!r} already registered for "
                f"{_ALIASES[norm][0]!r}"
            )
    _REGISTRY[spec.name] = spec
    _ALIASES[_normalize(spec.name)] = (spec.name, {})
    for alias in spec.aliases:
        _ALIASES[_normalize(alias)] = (spec.name, {})
    for alias, overrides in (variants or {}).items():
        _ALIASES[_normalize(alias)] = (spec.name, dict(overrides))
    _DISPLAY_NAMES.update(key.lower() for key in keys)
    return spec


def resolve_method(name: str) -> tuple[SolverSpec, dict[str, Any]]:
    """Resolve a method name/alias to ``(spec, implied parameters)``.

    Raises :class:`~repro.errors.UnknownMethodError` (listing every
    valid spelling) when nothing matches.
    """
    entry = _ALIASES.get(_normalize(name))
    if entry is None:
        raise UnknownMethodError(name, solver_names(include_aliases=True))
    canonical, implied = entry
    return _REGISTRY[canonical], dict(implied)


def get_solver(name: str) -> SolverSpec:
    """The :class:`SolverSpec` registered under ``name`` (or an alias)."""
    spec, _ = resolve_method(name)
    return spec


def canonical_method_name(name: str) -> str:
    """Normalise any accepted spelling to the canonical method name."""
    spec, _ = resolve_method(name)
    return spec.name


def solver_names(include_aliases: bool = False) -> list[str]:
    """Registered canonical names (plus aliases when asked), sorted.

    Aliases are reported as registered (lower-cased), not in their
    normalised lookup form.
    """
    if not include_aliases:
        return sorted(_REGISTRY)
    return sorted(_DISPLAY_NAMES)


def solver_specs() -> list[SolverSpec]:
    """Every registered spec, sorted by canonical name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def solve(
    graph: DiGraph, source: int, method: str = "powerpush", **params: Any
) -> PPRResult:
    """One-shot dispatch: resolve ``method`` and answer the query.

    Stateless convenience for scripts; query-serving code should hold a
    :class:`~repro.api.engine.PPREngine` so indexes are reused.
    """
    spec, implied = resolve_method(method)
    implied.update(params)
    return spec.solve(graph, source, params=implied)


def solve_block(
    graph: DiGraph,
    sources,
    method: str = "powerpush",
    **params: Any,
) -> list[PPRResult]:
    """One-shot multi-source dispatch (see :meth:`SolverSpec.solve_block`).

    Methods with a registered block kernel (PowerPush) answer the whole
    batch in one block solve; the rest loop — results are element-wise
    identical either way.  Engine users get this automatically through
    :meth:`~repro.api.engine.PPREngine.batch_query`.
    """
    spec, implied = resolve_method(method)
    implied.update(params)
    return spec.solve_block(graph, sources, params=implied)


# ---------------------------------------------------------------------------
# Index builders shared by the registry adapters and the engine
# ---------------------------------------------------------------------------

def build_speedppr_index(
    graph: DiGraph,
    *,
    alpha: float = 0.2,
    rng: np.random.Generator,
) -> WalkIndex:
    """SpeedPPR's eps-independent walk index (``K_v = d_v``)."""
    return build_walk_index(
        graph,
        speedppr_walk_counts(graph),
        alpha=alpha,
        policy="speedppr",
        rng=rng,
    )


def build_fora_index(
    graph: DiGraph,
    epsilon: float,
    *,
    alpha: float = 0.2,
    mu: float | None = None,
    p_fail: float | None = None,
    rng: np.random.Generator,
) -> WalkIndex:
    """FORA+'s eps-dependent walk index, sized for ``epsilon``."""
    if mu is None:
        mu = default_mu(graph.num_nodes)
    if p_fail is None:
        p_fail = default_failure_probability(graph.num_nodes)
    num_walks_w = chernoff_walk_count(epsilon, mu, p_fail=p_fail)
    return build_walk_index(
        graph,
        fora_plus_walk_counts(graph, num_walks_w),
        alpha=alpha,
        policy="fora+",
        rng=rng,
    )


# ---------------------------------------------------------------------------
# Adapters: unified schema -> concrete signatures
# ---------------------------------------------------------------------------

_EXACT_COMMON = ("alpha", "l1_threshold", "dead_end_policy", "trace")


def _solve_forward_push(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    r_max: float | None = None,
    l1_threshold: float | None = None,
    scheduler: str = "fifo",
    dead_end_policy: str = "redirect-to-source",
    max_pushes: int | None = None,
    trace=None,
) -> PPRResult:
    """Scalar Algorithm 1; ``l1_threshold`` maps to ``r_max = lambda/m``."""
    if r_max is None:
        if l1_threshold is None:
            raise ParameterError("fwdpush-scheduled needs r_max or l1_threshold")
        r_max = r_max_for_l1_threshold(graph, l1_threshold)
    elif l1_threshold is not None:
        raise ParameterError("pass exactly one of r_max / l1_threshold")
    return forward_push(
        graph,
        source,
        alpha=alpha,
        r_max=r_max,
        scheduler=scheduler,
        dead_end_policy=dead_end_policy,
        max_pushes=max_pushes,
        trace=trace,
    )


def _solve_sim_fwdpush(graph: DiGraph, source: int, **params) -> PPRResult:
    result = simultaneous_forward_push(graph, source, **params)
    assert isinstance(result, PPRResult)  # record_iterates not in schema
    return result


def _with_optional_index(
    solver: Callable[..., PPRResult],
    index_builder: Callable[..., WalkIndex],
) -> Callable[..., PPRResult]:
    """Wrap an approx solver so ``use_index=True`` builds a missing index.

    Registry-direct calls pay the build every time — the
    :class:`~repro.api.engine.PPREngine` injects its cached index
    instead, which is the whole point of holding an engine.
    """

    def adapter(
        graph: DiGraph,
        source: int,
        *,
        use_index: bool = False,
        walk_index: WalkIndex | None = None,
        **params,
    ) -> PPRResult:
        if use_index and walk_index is None:
            walk_index = index_builder(graph, params)
        if walk_index is not None:
            # The index replaces the live walk phase.  A generator left
            # in the call would arm the solvers' m >= W Monte-Carlo
            # shortcut (gated on ``rng is not None``) and silently
            # bypass the index the caller asked for.
            params.pop("rng", None)
        return solver(graph, source, walk_index=walk_index, **params)

    return adapter


def _speedppr_index_for(graph: DiGraph, params: dict) -> WalkIndex:
    rng = params.get("rng") or np.random.default_rng(0)
    return build_speedppr_index(graph, alpha=params.get("alpha", 0.2), rng=rng)


def _fora_index_for(graph: DiGraph, params: dict) -> WalkIndex:
    rng = params.get("rng") or np.random.default_rng(0)
    return build_fora_index(
        graph,
        params.get("epsilon", 0.5),
        alpha=params.get("alpha", 0.2),
        mu=params.get("mu"),
        p_fail=params.get("p_fail"),
        rng=rng,
    )


def _solve_powerpush_block(
    graph: DiGraph,
    sources,
    *,
    mode: str = "auto",
    trace=None,
    **params,
) -> list[PPRResult]:
    """Block adapter for PowerPush: unified schema -> block signature.

    The block kernels are the vectorised implementation, so the
    faithful scalar mode cannot be batched; traces are per-solve state
    and are likewise unsupported — callers wanting either fall back to
    per-source solves (the engine's ``batch_query`` does this
    automatically).
    """
    if mode not in ("auto", "vectorized"):
        raise ParameterError(
            f"power_push_block is vectorised-only; mode {mode!r} is not "
            f"batchable (run per-source solves instead)"
        )
    if trace is not None:
        raise ParameterError(
            "power_push_block does not support convergence traces; run "
            "per-source solves to trace"
        )
    return power_push_block(graph, sources, **params)


def _solve_bepi(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    bepi_index=None,
    delta: float = 1e-8,
    l1_threshold: float | None = None,
    max_inner_iterations: int = 10_000,
) -> PPRResult:
    """BePI; builds the block-elimination index ad hoc when not given.

    ``l1_threshold`` is accepted as a synonym for ``delta`` so exact
    methods can be swapped freely (the paper notes BePI's Delta is
    *not* a true l1 bound — the harness measures that separately).
    """
    if l1_threshold is not None:
        delta = l1_threshold
    if bepi_index is None:
        bepi_index = build_bepi_index(graph, alpha=alpha)
    return bepi_query(
        graph,
        bepi_index,
        source,
        delta=delta,
        max_inner_iterations=max_inner_iterations,
    )


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------

_APPROX_COMMON = (
    "alpha",
    "epsilon",
    "mu",
    "p_fail",
    "seed",
    "rng",
    "dead_end_policy",
)


def _register_builtin_solvers() -> None:
    register_solver(
        SolverSpec(
            name="powerpush",
            aliases=("pp", "algo3"),
            kind="exact",
            summary="PowerPush (Algorithm 3): power iteration with forward push",
            params=(*_EXACT_COMMON, "config", "mode"),
            fn=power_push,
            block_fn=_solve_powerpush_block,
        )
    )
    register_solver(
        SolverSpec(
            name="powitr",
            aliases=("power-iteration", "powiter", "pi"),
            kind="exact",
            summary="Power Iteration: the global O(m log(1/lambda)) baseline",
            params=(*_EXACT_COMMON, "max_iterations"),
            fn=power_iteration,
        )
    )
    register_solver(
        SolverSpec(
            name="fifo-fwdpush",
            aliases=("fwdpush", "forward-push", "fifo", "algo2"),
            kind="exact",
            summary="FIFO Forward Push (Algorithm 2): the analysed local method",
            params=(*_EXACT_COMMON, "r_max", "mode", "max_sweeps"),
            fn=fifo_forward_push,
        )
    )
    register_solver(
        SolverSpec(
            name="fwdpush-scheduled",
            aliases=("scalar-fwdpush", "algo1"),
            kind="exact",
            summary="Scalar Forward Push (Algorithm 1) with pluggable scheduling",
            params=(*_EXACT_COMMON, "r_max", "scheduler", "max_pushes"),
            fn=_solve_forward_push,
        )
    )
    register_solver(
        SolverSpec(
            name="simfwdpush",
            aliases=("simultaneous-fwdpush", "sim"),
            kind="exact",
            summary="Simultaneous Forward Push: the PowItr-equivalent variant",
            params=(*_EXACT_COMMON, "max_iterations"),
            fn=_solve_sim_fwdpush,
        )
    )
    register_solver(
        SolverSpec(
            name="bepi",
            aliases=("block-elimination", "blockelim"),
            kind="exact",
            summary="BePI: hub-and-spoke block elimination with a prebuilt index",
            params=(
                "alpha",
                "bepi_index",
                "delta",
                "l1_threshold",
                "max_inner_iterations",
            ),
            fn=_solve_bepi,
            needs_precomputation=True,
        )
    )
    register_solver(
        SolverSpec(
            name="speedppr",
            aliases=("algo4",),
            kind="approx",
            summary="SpeedPPR (Algorithm 4): PowerPush phase + eps-independent index",
            params=(
                *_APPROX_COMMON,
                "walk_index",
                "use_index",
                "config",
                "allow_monte_carlo_shortcut",
            ),
            fn=_with_optional_index(speed_ppr, _speedppr_index_for),
            needs_rng=True,
            needs_walk_index=True,
            index_by_default=True,
        ),
        variants={"speedppr-index": {"use_index": True}},
    )
    register_solver(
        SolverSpec(
            name="fora",
            aliases=(),
            kind="approx",
            summary="FORA: forward push + Monte-Carlo refinement (FORA+ with index)",
            params=(
                *_APPROX_COMMON,
                "walk_index",
                "use_index",
                "push_mode",
                "allow_monte_carlo_shortcut",
            ),
            fn=_with_optional_index(fora, _fora_index_for),
            needs_rng=True,
            needs_walk_index=True,
        ),
        variants={
            "fora+": {"use_index": True},
            "fora-index": {"use_index": True},
        },
    )
    register_solver(
        SolverSpec(
            name="resacc",
            aliases=(),
            kind="approx",
            summary="ResAcc: FORA with source-residue accumulation",
            params=(*_APPROX_COMMON, "walk_index", "use_index", "max_sweeps"),
            fn=_with_optional_index(resacc, _fora_index_for),
            needs_rng=True,
            needs_walk_index=True,
        ),
    )
    register_solver(
        SolverSpec(
            name="montecarlo",
            aliases=("mc",),
            kind="approx",
            summary="Plain Monte-Carlo: W alpha-walks from the source",
            params=("alpha", "epsilon", "mu", "p_fail", "num_walks", "seed", "rng"),
            fn=monte_carlo_ppr,
            needs_rng=True,
        )
    )


_register_builtin_solvers()
