//! Mutation coverage: every seeded protocol bug must be caught by the
//! bounded model checker, and the faithful protocols must pass — the
//! checker's own false-positive/false-negative regression suite.

use db_check::explore::{replay, Explorer, Outcome};
use db_check::level_model::{LevelModel, LevelMutation, LevelScenario};
use db_check::proto_model::{ProtoModel, ProtoMutation, ProtoScenario};
use db_check::ring_model::{RingModel, RingMutation, RingScenario};

fn explorer() -> Explorer {
    Explorer::default()
}

#[test]
fn faithful_ring_protocol_passes() {
    let outcome = explorer().run(&RingModel::new(RingScenario::small()));
    assert!(
        outcome.passed(),
        "faithful StampedRing transcription failed: {outcome:?}"
    );
    let stats = outcome.stats();
    assert!(stats.states > 100, "suspiciously small space: {stats:?}");
    assert!(stats.final_states > 0);
}

#[test]
fn every_ring_mutation_is_caught_and_replayable() {
    for m in RingMutation::ALL {
        let model = RingModel::new(RingScenario::small().with_mutation(m));
        match explorer().run(&model) {
            Outcome::Fail {
                violation,
                schedule,
                ..
            } => {
                // The counterexample schedule must reproduce the same
                // oracle failure from the initial state.
                let replayed =
                    replay(&model, &schedule).expect_err("replay of a counterexample must fail");
                assert_eq!(
                    replayed.oracle, violation.oracle,
                    "{m:?}: replay diverged from the reported violation"
                );
            }
            other => panic!("mutation {m:?} escaped the model checker: {other:?}"),
        }
    }
}

#[test]
fn faithful_handshake_passes_on_all_shapes() {
    for (name, sc) in [
        ("path4", ProtoScenario::path4(2)),
        ("star4", ProtoScenario::star4(2)),
        ("diamond4", ProtoScenario::diamond4(2)),
    ] {
        let outcome = explorer().run(&ProtoModel::new(sc));
        assert!(outcome.passed(), "faithful {name} failed: {outcome:?}");
    }
}

#[test]
fn every_proto_mutation_is_caught_and_replayable() {
    // Each mutation paired with the graph shape that exposes it:
    // the termination race needs depth (path), the double-steal needs
    // fan-out (star), the visited race needs two parents of one child
    // (diamond).
    let cases = [
        (ProtoMutation::PublishBeforeLive, ProtoScenario::path4(2)),
        (ProtoMutation::StealDuplicates, ProtoScenario::star4(2)),
        (ProtoMutation::SkipVisitedCas, ProtoScenario::diamond4(2)),
    ];
    assert_eq!(cases.len(), ProtoMutation::ALL.len());
    for (m, sc) in cases {
        let model = ProtoModel::new(sc.with_mutation(m));
        match explorer().run(&model) {
            Outcome::Fail {
                violation,
                schedule,
                ..
            } => {
                let replayed =
                    replay(&model, &schedule).expect_err("replay of a counterexample must fail");
                assert_eq!(
                    replayed.oracle, violation.oracle,
                    "{m:?}: replay diverged from the reported violation"
                );
            }
            other => panic!("mutation {m:?} escaped the model checker: {other:?}"),
        }
    }
}

#[test]
fn three_worker_handshake_still_passes() {
    // One size up from the mutation configs: the faithful handshake
    // with a third worker (more steal interleavings) stays green.
    let outcome = explorer().run(&ProtoModel::new(ProtoScenario::star4(3)));
    assert!(outcome.passed(), "{outcome:?}");
}

/// Every shipped level config: a dfs, a dfs with a request queued at
/// any point, a reach, and a cancelled dfs.
fn level_scenarios() -> [(&'static str, LevelScenario); 4] {
    [
        ("tree", LevelScenario::tree()),
        ("tree_request", LevelScenario::tree_request()),
        ("tree_reach", LevelScenario::tree_reach()),
        ("tree_cancel", LevelScenario::tree_cancel()),
    ]
}

#[test]
fn faithful_level_protocol_passes_every_config() {
    for (name, sc) in level_scenarios() {
        let outcome = explorer().run(&LevelModel::new(sc));
        assert!(
            outcome.passed(),
            "faithful level/{name} failed: {outcome:?}"
        );
        assert!(outcome.stats().final_states > 0, "level/{name}");
    }
}

#[test]
fn every_level_mutation_is_caught_and_replayable() {
    // Each mutation with the config that exposes it and the oracle it
    // trips: an owner that does not wait for a held chunk folds under
    // it; a helper that leaves holding a chunk leaves the owner waiting
    // for it forever; a claim that ignores the level takes a chunk of
    // the next one after the cursor comes back to the same index; a
    // late join holds the bitmaps the owner resets; without the close a
    // helper that read the spent cursor and the next sweep's longer span
    // claims a chunk of that span under the old level; and a fold that
    // reads only the owner's marks ends the search with a vertex only
    // the helper marked unexpanded.
    let cases = [
        (
            LevelMutation::FoldWhileHeld,
            LevelScenario::tree(),
            "fold-while-held",
        ),
        (
            LevelMutation::LeaveAbandonsChunk,
            LevelScenario::tree_request(),
            "deadlock",
        ),
        (
            LevelMutation::StaleClaim,
            LevelScenario::tree(),
            "stale-claim",
        ),
        (
            LevelMutation::JoinAfterEnd,
            LevelScenario::tree(),
            "cleared-while-held",
        ),
        (LevelMutation::NoClose, LevelScenario::tree(), "stale-claim"),
        (
            LevelMutation::FoldOwnMarks,
            LevelScenario::tree(),
            "lost-vertex",
        ),
    ];
    assert_eq!(cases.len(), LevelMutation::ALL.len());
    for (m, sc, oracle) in cases {
        let model = LevelModel::new(sc.with_mutation(m));
        match explorer().run(&model) {
            Outcome::Fail {
                violation,
                schedule,
                ..
            } => {
                assert_eq!(violation.oracle, oracle, "{m:?}: {violation}");
                let replayed =
                    replay(&model, &schedule).expect_err("replay of a counterexample must fail");
                assert_eq!(
                    replayed.oracle, violation.oracle,
                    "{m:?}: replay diverged from the reported violation"
                );
            }
            other => panic!("mutation {m:?} escaped the model checker: {other:?}"),
        }
    }
}
