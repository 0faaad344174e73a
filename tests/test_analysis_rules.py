"""Per-rule fixtures: each rule has a flagged, a clean, and (for the
file-scope rules) a suppressed case.

Fixture trees reproduce the package layout under ``tmp_path`` (module
names are inferred from the last ``repro`` directory component), so
module-scoped rules match exactly as they do on the real tree.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.corpus import load_corpus
from repro.analysis.runner import Analyzer, resolve_rules


def lint_tree(tmp_path: Path, files: dict[str, str], select=None):
    """Write ``files`` (relpath -> source) and lint the tree."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    corpus = load_corpus([tmp_path])
    result = Analyzer(resolve_rules(select)).run(corpus)
    return result.findings


def rules_of(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------

class TestRngDiscipline:
    def test_flags_legacy_and_unseeded_and_stdlib(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/sampler.py": """\
                import random
                import numpy as np

                def draw(n):
                    a = np.random.rand(n)
                    rng = np.random.default_rng()
                    b = random.random()
                    return a, rng, b
                """
            },
            select=["rng-discipline"],
        )
        assert len(findings) == 3
        assert {f.line for f in findings} == {5, 6, 7}

    def test_clean_explicit_seeding(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/sampler.py": """\
                import numpy as np

                def draw(n, seed):
                    rng = np.random.default_rng(seed)
                    return rng.random(n)
                """
            },
            select=["rng-discipline"],
        )
        assert findings == []

    def test_sanctioned_module_is_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/api/registry.py": """\
                import numpy as np

                def ambient_rng():
                    return np.random.default_rng()
                """
            },
            select=["rng-discipline"],
        )
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/sampler.py": """\
                import numpy as np

                def draw():
                    return np.random.default_rng()  # repro: allow[rng-discipline] -- demo shim, result unused
                """
            },
            select=["rng-discipline"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# no-column-fancy-gather
# ---------------------------------------------------------------------------

class TestColumnFancyGather:
    def test_flags_column_index_array(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/block.py": """\
                def gather(arr, idx):
                    return arr[:, idx]
                """
            },
            select=["no-column-fancy-gather"],
        )
        assert rules_of(findings) == ["no-column-fancy-gather"]
        assert findings[0].line == 2

    def test_clean_constant_and_slice_and_take(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/block.py": """\
                import numpy as np

                def ok(arr, idx, lo, hi):
                    a = arr[:, 0]
                    b = arr[:, None]
                    c = arr[:, 1:5]
                    d = np.take(arr, idx, axis=1)
                    return a, b, c, d
                """
            },
            select=["no-column-fancy-gather"],
        )
        assert findings == []

    def test_out_of_scope_package_not_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/experiments/tables.py": """\
                def gather(arr, idx):
                    return arr[:, idx]
                """
            },
            select=["no-column-fancy-gather"],
        )
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/block.py": """\
                def gather(arr, idx):
                    return arr[:, idx]  # repro: allow[no-column-fancy-gather] -- cold path, result is reduced columnwise
                """
            },
            select=["no-column-fancy-gather"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# registry-signature-sync
# ---------------------------------------------------------------------------

_REGISTRY_PRELUDE = """\
_COMMON = ("alpha", "l1_threshold")

def register_solver(spec):
    pass

class SolverSpec:
    def __init__(self, **kw):
        pass

"""


def _registry(body: str) -> str:
    return _REGISTRY_PRELUDE + textwrap.dedent(body)


class TestRegistrySignatureSync:
    def test_clean_when_params_match(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/api/registry.py": _registry("""\
                def _solve(graph, source, *, alpha=0.2, l1_threshold=1e-8, beta=1.0):
                    pass

                register_solver(
                    SolverSpec(name="x", params=(*_COMMON, "beta"), fn=_solve)
                )
                """),
            },
            select=["registry-signature-sync"],
        )
        assert findings == []

    def test_flags_undeclared_parameter(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/api/registry.py": _registry("""\
                def _solve(graph, source, *, alpha=0.2):
                    pass

                register_solver(
                    SolverSpec(name="x", params=(*_COMMON, "gamma"), fn=_solve)
                )
                """),
            },
            select=["registry-signature-sync"],
        )
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 2  # l1_threshold and gamma both missing
        assert "'l1_threshold'" in messages
        assert "'gamma'" in messages

    def test_seed_requires_rng_parameter(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/api/registry.py": _registry("""\
                def _stochastic(graph, source, *, alpha=0.2):
                    pass

                register_solver(
                    SolverSpec(name="mc", params=("alpha", "seed"), fn=_stochastic)
                )
                """),
            },
            select=["registry-signature-sync"],
        )
        assert len(findings) == 1
        assert "'rng'" in findings[0].message

    def test_kwargs_solver_accepts_everything(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/api/registry.py": _registry("""\
                def _variadic(graph, source, **params):
                    pass

                register_solver(
                    SolverSpec(name="x", params=(*_COMMON, "whatever"), fn=_variadic)
                )
                """),
            },
            select=["registry-signature-sync"],
        )
        assert findings == []

    def test_wrapper_call_contributes_adapter_params(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/api/registry.py": _registry("""\
                def _solve(graph, source, *, alpha=0.2, l1_threshold=1e-8):
                    pass

                def _with_optional_index(solver, builder):
                    def adapter(graph, source, *, use_index=False, walk_index=None, **params):
                        return solver(graph, source, **params)
                    return adapter

                def _builder(graph):
                    pass

                register_solver(
                    SolverSpec(
                        name="x",
                        params=(*_COMMON, "use_index", "walk_index"),
                        fn=_with_optional_index(_solve, _builder),
                    )
                )
                """),
            },
            select=["registry-signature-sync"],
        )
        assert findings == []

    def test_solver_imported_from_corpus_module(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/powerpush.py": """\
                def power_push(graph, source, *, alpha=0.2):
                    pass
                """,
                "repro/api/registry.py": _registry("""\
                from repro.core.powerpush import power_push

                register_solver(
                    SolverSpec(name="x", params=("alpha", "nope"), fn=power_push)
                )
                """),
            },
            select=["registry-signature-sync"],
        )
        assert len(findings) == 1
        assert "'nope'" in findings[0].message


# ---------------------------------------------------------------------------
# version-stamp
# ---------------------------------------------------------------------------

class TestVersionStamp:
    def test_flags_version_blind_cache(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/memo.py": """\
                class ResultCache:
                    def __init__(self):
                        self._entries = {}

                    def get(self, key):
                        return self._entries.get(key)

                    def put(self, key, value):
                        self._entries[key] = value
                """
            },
            select=["version-stamp"],
        )
        assert rules_of(findings) == ["version-stamp"]

    def test_clean_version_stamped_cache(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/memo.py": """\
                class ResultCache:
                    def __init__(self):
                        self._entries = {}

                    def get(self, key, version):
                        entry = self._entries.get(key)
                        if entry is None or entry[0] != version:
                            return None
                        return entry[1]

                    def put(self, key, version, value):
                        self._entries[key] = (version, value)
                """
            },
            select=["version-stamp"],
        )
        assert findings == []

    def test_stats_holder_not_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/memo.py": """\
                class CacheStats:
                    def __init__(self):
                        self.hits = 0
                        self.misses = 0
                """
            },
            select=["version-stamp"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

class TestLockDiscipline:
    def test_flags_blocking_calls_under_writer_lock(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/srv.py": """\
                import time

                class Server:
                    def bad(self, fut):
                        with self._rwlock.write():
                            time.sleep(0.1)
                            fut.result()
                """
            },
            select=["lock-discipline"],
        )
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "sleep" in messages
        assert ".result()" in messages

    def test_flags_engine_solve_under_writer_lock(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/srv.py": """\
                class Server:
                    def bad(self, sources):
                        with self._rwlock.write():
                            return self._engine.batch_query(sources, "powerpush")
                """
            },
            select=["lock-discipline"],
        )
        assert len(findings) == 1
        assert "batch_query" in findings[0].message

    def test_clean_timed_wait_and_read_lock(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/srv.py": """\
                import time

                class Server:
                    def ok(self, fut, sources):
                        with self._rwlock.write():
                            fut.result(timeout=1.0)
                        with self._rwlock.read():
                            self._engine.batch_query(sources, "powerpush")
                        time.sleep(0.1)
                """
            },
            select=["lock-discipline"],
        )
        assert findings == []

    def test_flags_bare_and_swallowed_excepts(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/srv.py": """\
                def deliver(future, exc):
                    try:
                        future.set_exception(exc)
                    except Exception:
                        pass
                    try:
                        future.cancel()
                    except:
                        raise
                """
            },
            select=["lock-discipline"],
        )
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "swallows" in messages
        assert "bare except" in messages

    def test_clean_handled_exception(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/srv.py": """\
                def deliver(future, exc):
                    try:
                        future.set_exception(exc)
                    except Exception as failure:
                        log(failure)
                """
            },
            select=["lock-discipline"],
        )
        assert findings == []

    def test_outside_serving_package_not_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/x.py": """\
                def f():
                    try:
                        pass
                    except Exception:
                        pass
                """
            },
            select=["lock-discipline"],
        )
        assert findings == []

    def test_flags_process_construction_under_writer_lock(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/srv.py": """\
                import os
                from multiprocessing import get_context

                class Dispatcher:
                    def bad(self, target):
                        ctx = get_context("fork")
                        with self._rwlock.write():
                            worker = ctx.Process(target=target)
                            pool = ctx.Pool(4)
                            pid = os.fork()
                        return worker, pool, pid
                """
            },
            select=["lock-discipline"],
        )
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 3
        assert "process/pool construction" in messages

    def test_clean_process_construction_outside_lock(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/srv.py": """\
                from multiprocessing import get_context

                class Dispatcher:
                    def ok(self, target):
                        ctx = get_context("fork")
                        worker = ctx.Process(target=target)
                        with self._rwlock.write():
                            self._workers.append(worker)
                        return worker
                """
            },
            select=["lock-discipline"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# shm-discipline
# ---------------------------------------------------------------------------

class TestShmDiscipline:
    def test_flags_create_with_no_unlink_path(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/leaky.py": """\
                from multiprocessing import shared_memory

                class Image:
                    def export(self, size):
                        self._segment = shared_memory.SharedMemory(
                            name="seg", create=True, size=size
                        )
                        return self._segment

                def scratch(size):
                    return shared_memory.SharedMemory(create=True, size=size)
                """
            },
            select=["shm-discipline"],
        )
        assert len(findings) == 2
        assert all(
            "no reachable unlink()" in f.message for f in findings
        )

    def test_clean_guarded_creation(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/guarded.py": """\
                from multiprocessing import shared_memory

                def export(size):
                    segment = shared_memory.SharedMemory(
                        create=True, size=size
                    )
                    try:
                        fill(segment)
                    except BaseException:
                        segment.close()
                        segment.unlink()
                        raise
                    return segment
                """
            },
            select=["shm-discipline"],
        )
        assert findings == []

    def test_clean_class_teardown_method(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/owned.py": """\
                from multiprocessing import shared_memory

                class Image:
                    def export(self, size):
                        self._segment = shared_memory.SharedMemory(
                            create=True, size=size
                        )

                    def cleanup(self):
                        self._segment.close()
                        self._segment.unlink()
                """
            },
            select=["shm-discipline"],
        )
        assert findings == []

    def test_attach_without_create_is_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/attach.py": """\
                from multiprocessing import shared_memory

                def attach(name):
                    return shared_memory.SharedMemory(name=name)
                """
            },
            select=["shm-discipline"],
        )
        assert findings == []

    def test_suppressed_with_allow_comment(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/transient.py": """\
                from multiprocessing import shared_memory

                def scratch(size):
                    return shared_memory.SharedMemory(  # repro: allow[shm-discipline] -- test scaffolding, unlinked by the fixture
                        create=True, size=size
                    )
                """
            },
            select=["shm-discipline"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# workspace-discipline
# ---------------------------------------------------------------------------

class TestWorkspaceDiscipline:
    def test_flags_raw_allocation_with_workspace_param(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/kernels.py": """\
                import numpy as np

                def frontier_push(state, nodes, *, workspace=None):
                    shares = np.zeros(nodes.shape[0], dtype=np.float64)
                    return shares
                """
            },
            select=["workspace-discipline"],
        )
        assert rules_of(findings) == ["workspace-discipline"]
        assert findings[0].line == 4

    def test_clean_fallback_branch_and_scratch_helper(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/kernels.py": """\
                import numpy as np

                def _scratch(workspace, key, size, dtype):
                    if workspace is not None:
                        return workspace.buffer(key, size, dtype)
                    return np.empty(size, dtype=dtype)

                def frontier_push(state, nodes, *, workspace=None):
                    if workspace is not None:
                        positions = workspace.buffer("p", 4, np.int64)
                    else:
                        positions = np.empty(4, dtype=np.int64)
                    shares = _scratch(workspace, "s", 4, np.float64)
                    return positions, shares
                """
            },
            select=["workspace-discipline"],
        )
        assert findings == []

    def test_function_without_workspace_param_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/kernels.py": """\
                import numpy as np

                def global_sweep(state):
                    out = np.empty(4, dtype=np.float64)
                    return out
                """
            },
            select=["workspace-discipline"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# no-mutable-default
# ---------------------------------------------------------------------------

class TestMutableDefault:
    def test_flags_literal_factory_and_ambient_time(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/opts.py": """\
                import time

                def f(items=[], mapping=dict(), stamp=time.monotonic()):
                    return items, mapping, stamp
                """
            },
            select=["no-mutable-default"],
        )
        assert len(findings) == 3

    def test_clean_none_and_immutable_defaults(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/opts.py": """\
                def f(items=None, key=(1, 2), name="x", *, flag=False):
                    return items, key, name, flag
                """
            },
            select=["no-mutable-default"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# async-discipline
# ---------------------------------------------------------------------------

class TestAsyncDiscipline:
    def test_flags_blocking_sleep_and_untimed_waits(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/door.py": """\
                import time

                async def submit(future, cond):
                    time.sleep(0.1)
                    future.result()
                    cond.wait()
                    return None
                """
            },
            select=["async-discipline"],
        )
        assert rules_of(findings) == ["async-discipline"] * 3
        assert [f.line for f in findings] == [4, 5, 6]

    def test_clean_asyncio_idioms_and_timed_calls(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/door.py": """\
                import asyncio

                async def submit(loop, future, cond):
                    await asyncio.sleep(0.1)
                    await asyncio.wrap_future(future)
                    cond.wait(0.5)
                    future.result(timeout=1.0)
                    return await loop.run_in_executor(None, cond.wait)
                """
            },
            select=["async-discipline"],
        )
        assert findings == []

    def test_nested_sync_def_is_its_own_context(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/door.py": """\
                import time

                async def submit(loop):
                    def blocking_probe():
                        time.sleep(0.1)
                        return 1

                    return await loop.run_in_executor(None, blocking_probe)
                """
            },
            select=["async-discipline"],
        )
        assert findings == []

    def test_sync_def_and_other_packages_out_of_scope(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/door.py": """\
                import time

                def drain(future):
                    time.sleep(0.1)
                    return future.result()
                """,
                "repro/core/pacing.py": """\
                import time

                async def tick():
                    time.sleep(0.1)
                """,
            },
            select=["async-discipline"],
        )
        assert findings == []

    def test_suppression_with_reason(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/door.py": """\
                import time

                async def submit():
                    time.sleep(0.1)  # repro: allow[async-discipline] -- test fixture pacing
                """
            },
            select=["async-discipline"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# suppression hygiene
# ---------------------------------------------------------------------------

class TestRetryDiscipline:
    def test_flags_unbounded_send_loop_and_blind_retry(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/pump.py": """\
                def pump(queue, item):
                    while True:
                        queue.put(item)

                def retry_request(queue, item):
                    queue.put(item)
                """
            },
            select=["retry-discipline"],
        )
        assert rules_of(findings) == [
            "retry-discipline",
            "retry-discipline",
        ]
        assert "while True" in findings[0].message
        assert "retry_request" in findings[1].message

    def test_clean_bounded_deadline_aware_retry(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/pump.py": """\
                import time

                def pump(queue, items):
                    while True:
                        if not items:
                            return
                        queue.put(items.pop())

                def retry_request(queue, item, attempt, deadline):
                    if attempt >= 3 or time.monotonic() >= deadline:
                        raise TimeoutError(item)
                    queue.put(item)

                def resubmit(queue, item):
                    # Delegates bounding to the retry helper.
                    retry_request(queue, item, 0, item.deadline)
                """
            },
            select=["retry-discipline"],
        )
        assert findings == []

    def test_nested_def_exit_does_not_unflag_the_loop(self, tmp_path):
        # A return inside a nested function cannot terminate the
        # enclosing while True; the loop is still unbounded.
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/pump.py": """\
                def pump(queue, item):
                    while True:
                        def once():
                            return queue.put(item)
                        once()
                """
            },
            select=["retry-discipline"],
        )
        assert rules_of(findings) == ["retry-discipline"]

    def test_outside_serving_package_is_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/pump.py": """\
                def retry_request(queue, item):
                    while True:
                        queue.put(item)
                """
            },
            select=["retry-discipline"],
        )
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/pump.py": """\
                def retry_once(pairs):  # repro: allow[retry-discipline] -- one-shot fallback, no loop
                    for queue, item in pairs:
                        queue.put(item)
                """
            },
            select=["retry-discipline"],
        )
        assert findings == []


class TestDurabilityDiscipline:
    def test_flags_raw_writes_and_json_dump(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/report.py": """\
                import json
                from pathlib import Path

                def persist(path: Path, payload: dict) -> None:
                    path.write_text(json.dumps(payload))
                    path.with_suffix(".bin").write_bytes(b"x")
                    with open(path) as handle:
                        json.dump(payload, handle)
                """
            },
            select=["durability-discipline"],
        )
        assert len(findings) == 3
        assert {f.line for f in findings} == {5, 6, 8}
        assert all(f.rule == "durability-discipline" for f in findings)

    def test_flags_fsyncless_wal_append(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/durability/fastwal.py": """\
                class TurboLog:
                    def append(self, version, updates):
                        self._file.write(b"frame")
                        self._file.flush()
                """
            },
            select=["durability-discipline"],
        )
        assert len(findings) == 1
        assert "os.fsync" in findings[0].message

    def test_clean_atomic_writes_and_fsynced_append(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/report.py": """\
                from repro.durability.atomic import atomic_write_json

                def persist(path, payload):
                    atomic_write_json(path, payload)
                """,
                "repro/durability/fastwal.py": """\
                import os

                class TurboLog:
                    def append(self, version, updates):
                        self._file.write(b"frame")
                        self._file.flush()
                        os.fsync(self._file.fileno())
                """,
            },
            select=["durability-discipline"],
        )
        assert findings == []

    def test_sanctioned_module_and_out_of_scope_are_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                # The implementation of the sanctioned path itself.
                "repro/durability/atomic.py": """\
                def atomic_write_text(path, text):
                    path.write_text(text)
                """,
                # Outside the persistence-bearing packages.
                "repro/experiments/notes.py": """\
                def jot(path, text):
                    path.write_text(text)
                """,
            },
            select=["durability-discipline"],
        )
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/serving/report.py": """\
                def persist(path, text):
                    path.write_text(text)  # repro: allow[durability-discipline] -- throwaway debug dump, never reread
                """
            },
            select=["durability-discipline"],
        )
        assert findings == []


class TestSuppressionHygiene:
    def test_reasonless_allow_is_flagged_and_does_not_suppress(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/sampler.py": """\
                import numpy as np

                def draw():
                    return np.random.default_rng()  # repro: allow[rng-discipline]
                """
            },
        )
        assert sorted(rules_of(findings)) == [
            "rng-discipline",
            "suppression-hygiene",
        ]

    def test_unknown_rule_id_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/sampler.py": """\
                x = 1  # repro: allow[no-such-rule] -- reason given
                """
            },
        )
        assert rules_of(findings) == ["suppression-hygiene"]
        assert "no-such-rule" in findings[0].message

    def test_file_wide_allow_with_reason(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/sampler.py": """\
                # repro: allow-file[rng-discipline] -- fixture exercising ambient draws
                import numpy as np

                def draw():
                    return np.random.default_rng()
                """
            },
            select=["rng-discipline"],
        )
        assert findings == []


def test_parse_error_is_reported(tmp_path):
    findings = lint_tree(
        tmp_path,
        {"repro/core/broken.py": "def f(:\n    pass\n"},
    )
    assert rules_of(findings) == ["parse-error"]
