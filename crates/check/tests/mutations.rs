//! Mutation coverage: every seeded protocol bug must be caught by the
//! bounded model checker, and the faithful protocols must pass — the
//! checker's own false-positive/false-negative regression suite.

use db_check::explore::{replay, Explorer, Outcome};
use db_check::proto_model::{ProtoModel, ProtoMutation, ProtoScenario};
use db_check::ring_model::{RingModel, RingMutation, RingScenario};
use db_check::team_model::{TeamModel, TeamMutation, TeamScenario};

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

/// Every shipped team config: a dfs, a dfs with a request queued at any
/// point, a reach, and a cancelled dfs.
fn team_scenarios() -> [(&'static str, TeamScenario); 4] {
    [
        ("star", TeamScenario::star()),
        ("star_request", TeamScenario::star_request()),
        ("star_reach", TeamScenario::star_reach()),
        ("diamond_cancel", TeamScenario::diamond_cancel()),
    ]
}

#[test]
fn faithful_team_protocol_passes_every_config() {
    for (name, sc) in team_scenarios() {
        let outcome = explorer().run(&TeamModel::new(sc));
        assert!(outcome.passed(), "faithful team/{name} failed: {outcome:?}");
        assert!(outcome.stats().final_states > 0, "team/{name}");
    }
}

#[test]
fn every_team_mutation_is_caught_and_replayable() {
    // Each mutation with the config that exposes it and the oracle it
    // trips first: with no sticky end a join cannot be refused, so a
    // helper that took the offer joins after the owner counted (the same
    // missing flag strands an idle owner, the prototype's livelock); a
    // late join or an impatient owner clears marks a helper holds; a
    // leave that keeps its entries loses them; and an end that ignores
    // the hand-off buffer ends early.
    let cases = [
        (
            TeamMutation::NonStickyEnd,
            TeamScenario::star(),
            "cleared-while-held",
        ),
        (
            TeamMutation::JoinAfterEnd,
            TeamScenario::star(),
            "cleared-while-held",
        ),
        (
            TeamMutation::LeaveKeepsEntries,
            TeamScenario::star_request(),
            "lost-entry",
        ),
        (
            TeamMutation::OwnerSkipsWait,
            TeamScenario::star(),
            "cleared-while-held",
        ),
        (
            TeamMutation::EndIgnoresHandoff,
            TeamScenario::star(),
            "early-end",
        ),
    ];
    assert_eq!(cases.len(), TeamMutation::ALL.len());
    for (m, sc, oracle) in cases {
        let model = TeamModel::new(sc.with_mutation(m));
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
