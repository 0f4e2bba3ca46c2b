"""The incremental evaluation core: change feed, materializer, identity.

Three layers under test:

- the storage **change feed** (``last_seq`` / ``changes_since`` / auxiliary
  state) across every backend, including out-of-band appends folded in via
  :meth:`ProvenanceStore.sync`,
- the :class:`~repro.controls.materializer.VerdictMaterializer` — dirty
  tracking, targeted refresh, transitions, snapshots,
- the headline guarantee: **interleaved incremental evaluation is
  byte-identical to a cold full sweep**, checked over hundreds of
  randomized append/evaluate interleavings (including across a SQLite
  close → out-of-band append → reopen → catch-up cycle).
"""

import dataclasses
import json

import pytest

from repro.controls.authoring import ControlAuthoringTool
from repro.controls.control import ControlSeverity
from repro.controls.dashboard import ComplianceDashboard
from repro.controls.deployment import ControlDeployment
from repro.controls.evaluator import ComplianceEvaluator
from repro.controls.status import ComplianceStatus
from repro.service import ComplianceRuntime
from repro.store.backends import SQLiteBackend
from repro.store.cursor import VectorCursor
from repro.store.store import ProvenanceStore

from tests.conftest import derive_rng

from tests.conftest import build_hiring_trace
from tests.test_controls_evaluation import GM_CONTROL, populate_store
from tests.test_store_backends import BACKEND_PARAMS, make_backend
from tests.test_store_store import sample_records

SUBMITTER_CONTROL = (
    "definitions set 'req' to a Job Requisition ; "
    "if the submitter of 'req' is not null "
    "then the internal control is satisfied"
)


@pytest.fixture
def tool(hiring_vocabulary):
    tool = ControlAuthoringTool(hiring_vocabulary)
    tool.author("gm-approval", GM_CONTROL, severity=ControlSeverity.HIGH)
    tool.deploy("gm-approval")
    tool.author("has-submitter", SUBMITTER_CONTROL)
    tool.deploy("has-submitter")
    return tool


def trace_stream(graph):
    """A trace's records in populate order (nodes, then edges)."""
    nodes = sorted(graph.nodes(), key=lambda r: r.record_id)
    edges = sorted(graph.edges(), key=lambda r: r.record_id)
    return nodes + edges


def norm(results):
    """Every observable field of a result, for identity comparison."""
    return [
        (
            r.control_name,
            r.trace_id,
            r.status,
            r.checked_at,
            tuple(r.alerts),
            tuple(sorted(r.bound_nodes.items())),
            tuple(r.touched_nodes),
        )
        for r in results
    ]


# ---------------------------------------------------------------------------
# Change feed conformance (every backend)
# ---------------------------------------------------------------------------


class TestChangeFeed:
    @pytest.fixture(params=BACKEND_PARAMS)
    def store(self, request, tmp_path):
        store = ProvenanceStore(
            indexed=True, backend=make_backend(request.param, tmp_path)
        )
        yield store
        store.close()

    def test_last_seq_counts_appends(self, store):
        # Every store's cursor is a per-shard vector; its total counts
        # the rows behind it.
        assert store.last_seq().total() == 0
        store.extend(sample_records("App01"))
        assert store.last_seq().total() == 3
        store.extend(sample_records("App02"))
        assert store.last_seq().total() == 6

    def test_changes_since_yields_contiguous_suffix(self, store):
        store.extend(sample_records("App01"))
        store.extend(sample_records("App02"))
        start = VectorCursor([0] * store.shard_count())
        everything = list(store.changes_since(start))
        # Each yielded cursor is the position *after* its row, so totals
        # climb one row at a time whatever the shard count.
        assert [seq.total() for seq, __ in everything] == [
            1, 2, 3, 4, 5, 6
        ]
        assert [r.record_id for __, r in everything] == [
            r.record_id for r in store.records()
        ]
        # Resuming from any mid-stream cursor replays exactly the suffix.
        resume_at, __ = everything[3]
        suffix = list(store.changes_since(resume_at))
        assert [(seq, r.record_id) for seq, r in suffix] == [
            (seq, r.record_id) for seq, r in everything[4:]
        ]
        assert everything[-1][0] == store.last_seq()
        assert list(store.changes_since(store.last_seq())) == []

    def test_aux_state_roundtrip(self, store):
        assert store.load_state("missing") is None
        store.save_state("snapshot", '{"cursor": 3}')
        assert store.load_state("snapshot") == '{"cursor": 3}'
        store.save_state("snapshot", '{"cursor": 9}')
        assert store.load_state("snapshot") == '{"cursor": 9}'

    def test_feed_survives_sqlite_reopen(self, tmp_path):
        path = str(tmp_path / "feed.db")
        store = ProvenanceStore(backend=SQLiteBackend(path))
        store.extend(sample_records("App01"))
        store.save_state("k", "v")
        store.close()
        reopened = ProvenanceStore(backend=SQLiteBackend(path))
        assert reopened.last_seq() == VectorCursor([3])
        assert [
            seq for seq, __ in reopened.changes_since(VectorCursor([1]))
        ] == [VectorCursor([2]), VectorCursor([3])]
        assert reopened.load_state("k") == "v"
        reopened.close()


class TestStoreSync:
    def test_sync_folds_out_of_band_appends(self, tmp_path):
        path = str(tmp_path / "sync.db")
        store = ProvenanceStore(indexed=True, backend=SQLiteBackend(path))
        store.extend(sample_records("App01"))
        seen = []
        store.subscribe(lambda r: seen.append(r.record_id))

        other = ProvenanceStore(backend=SQLiteBackend(path))
        other.extend(sample_records("App02"))
        other.close()

        assert store.sync() == 3
        assert seen == ["R1-App02", "D1-App02", "E1-App02"]
        assert store.app_ids() == ["App01", "App02"]
        assert "D1-App02" in store  # index caught up, not just the feed
        assert store.last_seq() == VectorCursor([6])
        assert store.sync() == 0
        store.close()

    def test_sync_noop_on_memory_backend(self):
        store = ProvenanceStore()
        store.extend(sample_records("App01"))
        assert store.sync() == 0


# ---------------------------------------------------------------------------
# Materializer behaviour
# ---------------------------------------------------------------------------


class TestMaterializer:
    @pytest.fixture
    def store(self, hiring_model):
        return populate_store(
            hiring_model,
            [
                build_hiring_trace("App01"),
                build_hiring_trace("App02", with_approval=False),
                build_hiring_trace("App03", position_type="existing"),
            ],
        )

    @pytest.fixture
    def evaluator(self, store, hiring_xom, hiring_vocabulary):
        return ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)

    def test_check_memoizes_until_trace_changes(self, evaluator, tool):
        control = tool.control("gm-approval")
        materializer = evaluator.materializer
        first = evaluator.check_trace(control, "App02")
        assert first.status is ComplianceStatus.VIOLATED
        assert materializer.refreshes == 1
        assert evaluator.check_trace(control, "App02") is first
        assert materializer.refreshes == 1  # clean pair: table read

        graph = build_hiring_trace("App02")  # approval arrives late
        evaluator.store.append(graph.node("App02-D2"))
        assert "App02" in materializer.dirty_traces()
        rechecked = evaluator.check_trace(control, "App02")
        assert materializer.refreshes == 2  # dirty pair re-evaluated
        # Unlinked approval record: still violated, fresh verdict object.
        assert rechecked.status is ComplianceStatus.VIOLATED
        assert rechecked is not first

    def test_append_dirties_only_touched_trace(self, evaluator, tool):
        controls = tool.deployed_controls()
        evaluator.run(controls)
        materializer = evaluator.materializer
        assert materializer.dirty_count == 0
        template = evaluator.store.get("App03-D3")
        evaluator.store.append(
            dataclasses.replace(
                template, record_id=f"{template.record_id}-clone"
            )
        )
        assert sorted(materializer.dirty_traces()) == ["App03"]
        assert materializer.dirty_count == len(controls)
        before = materializer.refreshes
        evaluator.run(controls)
        assert materializer.refreshes == before + len(controls)

    def test_transitions_report_status_flips(self, evaluator, tool):
        control = tool.control("gm-approval")
        transitions = []
        evaluator.materializer.subscribe(transitions.append)
        evaluator.check_trace(control, "App02")
        assert [t.changed for t in transitions] == [True]
        assert transitions[0].previous is None
        assert "(new) -> violated" in transitions[0].describe()

        graph = build_hiring_trace("App02")
        evaluator.store.append(graph.node("App02-D2"))
        evaluator.store.append(
            next(e for e in graph.edges() if e.record_id == "App02-E4")
        )
        healed = evaluator.check_trace(control, "App02")
        assert healed.status is ComplianceStatus.SATISFIED
        assert transitions[-1].previous is ComplianceStatus.VIOLATED
        assert transitions[-1].changed
        assert (
            transitions[-1].describe()
            == "gm-approval @ App02: violated -> satisfied"
        )

    def test_unregister_keeps_verdicts_skips_refresh(self, evaluator, tool):
        controls = tool.deployed_controls()
        materializer = evaluator.materializer
        results = evaluator.run(controls)
        materializer.unregister("gm-approval")
        assert materializer.latest("gm-approval", "App01") is not None
        template = evaluator.store.get("App01-D1")
        evaluator.store.append(
            dataclasses.replace(template, record_id="App01-D1-clone")
        )
        refreshed = materializer.refresh()
        # Only the still-registered control re-evaluated.
        assert [r.control_name for r in refreshed] == ["has-submitter"]
        assert len(results) == 6

    def test_sweep_matches_plain_evaluator_order(
        self, store, hiring_xom, hiring_vocabulary, tool
    ):
        controls = tool.deployed_controls()
        incremental = ComplianceEvaluator(store, hiring_xom,
                                          hiring_vocabulary)
        cold = ComplianceEvaluator(
            store, hiring_xom, hiring_vocabulary, share_contexts=False
        )
        assert norm(incremental.run(controls)) == norm(cold.run(controls))
        # Second sweep: zero evaluations, same table.
        before = incremental.materializer.refreshes
        assert norm(incremental.run(controls)) == norm(cold.run(controls))
        assert incremental.materializer.refreshes == before

    def test_interrupted_sweep_leaves_its_pairs_dirty(
        self, store, hiring_xom, hiring_vocabulary, tool
    ):
        controls = tool.deployed_controls()
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        evaluator.run(controls)
        graph = build_hiring_trace("App02")  # the approval heals App02
        store.append(graph.node("App02-D2"))
        store.append(
            next(e for e in graph.edges() if e.record_id == "App02-E4")
        )
        real_evaluate = evaluator.evaluate_pair

        def fail(control, trace_id, *args, **kwargs):
            raise RuntimeError("injected")

        evaluator.evaluate_pair = fail
        with pytest.raises(RuntimeError):
            evaluator.run(controls)
        evaluator.evaluate_pair = real_evaluate
        assert evaluator.materializer.dirty_count == len(controls)
        cold = ComplianceEvaluator(
            store, hiring_xom, hiring_vocabulary, share_contexts=False
        )
        assert norm(evaluator.run(controls)) == norm(cold.run(controls))
        healed = evaluator.materializer.latest("gm-approval", "App02")
        assert healed.status is ComplianceStatus.SATISFIED

    def test_snapshot_restores_within_process(
        self, store, hiring_xom, hiring_vocabulary, tool
    ):
        controls = tool.deployed_controls()
        first = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        expected = norm(first.run(controls))
        first.materializer.save()

        second = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        for control in controls:
            second.materializer.register(control)
        assert second.materializer.restore() is True
        assert second.materializer.dirty_count == 0
        got = second.run(controls)
        assert norm(got) == expected
        assert second.materializer.refreshes == 0

    def test_restore_missing_snapshot_is_false(
        self, evaluator, tool
    ):
        materializer = evaluator.materializer
        materializer.register(tool.control("gm-approval"))
        assert materializer.restore() is False

    def test_fingerprint_depends_on_control_set(self, evaluator, tool):
        materializer = evaluator.materializer
        materializer.register(tool.control("gm-approval"))
        one = materializer.fingerprint()
        materializer.register(tool.control("has-submitter"))
        assert materializer.fingerprint() != one


# ---------------------------------------------------------------------------
# Deployed path rides the same table
# ---------------------------------------------------------------------------


class TestDeployedPath:
    def test_deployment_and_sweep_share_verdicts(
        self, hiring_model, hiring_xom, hiring_vocabulary, tool
    ):
        store = populate_store(
            hiring_model,
            [build_hiring_trace("App01"),
             build_hiring_trace("App02", with_approval=False)],
        )
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary,
                                       bind_results=False)
        deployment.deploy(tool.control("gm-approval"))
        after_deploy = deployment.rechecks
        assert after_deploy == 2  # one per existing trace
        # A batch sweep through the deployment's evaluator reads the same
        # table: nothing re-evaluates.
        results = deployment.evaluator.run([tool.control("gm-approval")])
        assert deployment.rechecks == after_deploy
        statuses = {r.trace_id: r.status for r in results}
        assert statuses == {
            "App01": ComplianceStatus.SATISFIED,
            "App02": ComplianceStatus.VIOLATED,
        }

    def test_dashboard_consumes_transitions(
        self, hiring_model, hiring_xom, hiring_vocabulary, tool
    ):
        store = populate_store(
            hiring_model,
            [build_hiring_trace("App02", with_approval=False)],
        )
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary,
                                       bind_results=False)
        dashboard = ComplianceDashboard()
        dashboard.register_control(tool.control("gm-approval"))
        deployment.materializer.subscribe(dashboard.on_transition)
        deployment.deploy(tool.control("gm-approval"))
        assert dashboard.kpi("gm-approval").violated == 1

        graph = build_hiring_trace("App02")  # approval + list arrive late
        store.append(graph.node("App02-D2"))
        store.append(
            next(e for e in graph.edges() if e.record_id == "App02-E4")
        )
        assert dashboard.kpi("gm-approval").violated == 0
        assert dashboard.kpi("gm-approval").satisfied == 1
        flips = dashboard.transitions()
        assert [t.describe() for t in flips] == [
            "gm-approval @ App02: (new) -> violated",
            "gm-approval @ App02: violated -> satisfied",
        ]
        assert "STATUS TRANSITIONS (2)" in dashboard.render()


# ---------------------------------------------------------------------------
# Differential identity over randomized interleavings
# ---------------------------------------------------------------------------


def _variant(rng, app_id):
    kind = rng.randrange(5)
    if kind == 0:
        return build_hiring_trace(app_id)
    if kind == 1:
        return build_hiring_trace(app_id, with_approval=False)
    if kind == 2:
        return build_hiring_trace(app_id, position_type="existing")
    if kind == 3:
        return build_hiring_trace(app_id, with_candidates=False)
    return build_hiring_trace(app_id, approval_status="denied")


def _interleave(rng, streams):
    """Merge per-trace record streams in a random (order-preserving) way."""
    pending = [list(s) for s in streams]
    while True:
        candidates = [i for i, s in enumerate(pending) if s]
        if not candidates:
            return
        yield pending[rng.choice(candidates)].pop(0)


def _old_sweep_order(materializer, controls, trace_ids):
    """The pairs a sweep evaluates, in the order the pre-assembly sweep
    found them: every (trace, control) pair, canonical order, that is
    dirty or was never evaluated.  Call after registering *controls*."""
    return [
        (control.name, trace_id)
        for trace_id in trace_ids
        for control in controls
        if (control.name, trace_id) in materializer._dirty
        or (control.name, trace_id) not in materializer._verdicts
    ]


class TestDifferentialIdentity:
    def test_200_interleavings_match_cold_sweeps(
        self, hiring_model, hiring_xom, hiring_vocabulary, tool
    ):
        """Interleaved appends, sweeps, targeted checks, served reads and
        registry/snapshot steps always read like a cold sweep.  Each
        sweep evaluates the pairs the old every-pair scan found, in its
        order, and a served read's rows carry their own verdict's bytes."""
        controls = tool.deployed_controls()
        for iteration in range(200):
            rng = derive_rng(f"incremental-interleavings:{iteration}")
            store = ProvenanceStore(model=hiring_model, indexed=True)
            live = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
            cold = ComplianceEvaluator(
                store, hiring_xom, hiring_vocabulary, share_contexts=False
            )  # stateless: every call is a cold evaluation
            runtime = ComplianceRuntime(
                store, hiring_xom, hiring_vocabulary, controls
            )
            runtime.open()
            materializers = (live.materializer, runtime.materializer)
            transitions = []
            live.materializer.subscribe(
                lambda t: transitions.append((t.control_name, t.trace_id))
            )
            saved = False

            def swept(materializer):
                for control in controls:
                    materializer.register(control)
                return _old_sweep_order(
                    materializer, controls, store.app_ids()
                )

            def check_live(label):
                expected = swept(live.materializer)
                del transitions[:]
                assert norm(live.run(controls)) == \
                    norm(cold.run(controls)), label
                assert transitions == expected, label

            def check_served(label):
                expected = swept(runtime.materializer)
                newest = runtime.transitions_since(0)[0]
                rows = runtime.verdict_rows()
                fed = [
                    (t.control_name, t.trace_id)
                    for __, t in runtime.transitions_since(newest)[1]
                ]
                assert fed == expected, label
                assert norm([r for r, __ in rows]) == \
                    norm(cold.run(controls)), label
                for result, encoded in rows:
                    assert encoded == json.dumps(
                        result.to_payload()
                    ).encode(), label

            n_traces = rng.randrange(2, 5)
            streams = [
                trace_stream(_variant(rng, f"App{i:02d}"))
                for i in range(1, n_traces + 1)
            ]
            for record in _interleave(rng, streams):
                store.append(record)
                label = f"iteration {iteration}"
                roll = rng.random()
                if roll < 0.06:
                    check_live(label)
                elif roll < 0.12:
                    trace_id = rng.choice(store.app_ids())
                    control = rng.choice(controls)
                    assert norm([live.check_trace(control, trace_id)]) == \
                        norm([cold.check_trace(control, trace_id)]), label
                elif roll < 0.17:
                    check_served(label)
                elif roll < 0.19:
                    rng.choice(materializers).unregister(
                        rng.choice(controls).name
                    )
                elif roll < 0.21:
                    # An equal control under the same name is a different
                    # object: the column is re-materialized.
                    rng.choice(materializers).register(
                        dataclasses.replace(rng.choice(controls))
                    )
                elif roll < 0.23:
                    live.materializer.save()
                    saved = True
                elif roll < 0.25 and saved:
                    rng.choice(materializers).restore()
            check_live(f"iteration {iteration} (final)")
            check_served(f"iteration {iteration} (final)")
            runtime.shutdown()

    def test_sqlite_reopen_interleavings_match_cold_sweeps(
        self, tmp_path, hiring_model, hiring_xom, hiring_vocabulary, tool
    ):
        controls = tool.deployed_controls()
        for iteration in range(24):
            rng = derive_rng(f"sqlite-reopen-interleavings:{iteration}")
            path = str(tmp_path / f"diff{iteration}.db")

            # Phase 1: populate, sweep, snapshot, close.
            store = ProvenanceStore(
                model=hiring_model, indexed=True,
                backend=SQLiteBackend(path),
            )
            first = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
            streams = [
                trace_stream(_variant(rng, f"App{i:02d}"))
                for i in range(1, rng.randrange(3, 5))
            ]
            for record in _interleave(rng, streams):
                store.append(record)
                if rng.random() < 0.05:
                    first.run(controls)
            first.run(controls)
            first.materializer.save()
            store.close()

            # Out-of-band: a second handle appends while we're away.
            other = ProvenanceStore(backend=SQLiteBackend(path))
            extra = trace_stream(_variant(rng, "App99"))
            for record in extra[: rng.randrange(1, len(extra) + 1)]:
                other.append(record)
            other.close()

            # Phase 2: reopen, restore, catch up — identical to cold.
            reopened = ProvenanceStore(
                model=hiring_model, indexed=True,
                backend=SQLiteBackend(path),
            )
            second = ComplianceEvaluator(
                reopened, hiring_xom, hiring_vocabulary
            )
            for control in controls:
                second.materializer.register(control)
            assert second.materializer.restore() is True
            # Catch-up re-evaluates only the out-of-band trace.
            assert set(
                t for __, t in second.materializer._dirty
            ) == {"App99"}
            got = second.run(controls)
            cold = ComplianceEvaluator(
                reopened, hiring_xom, hiring_vocabulary,
                share_contexts=False,
            )
            assert norm(got) == norm(cold.run(controls)), \
                f"iteration {iteration}"
            assert second.materializer.refreshes == len(controls)
            reopened.close()
