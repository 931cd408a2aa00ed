//! Property tests for the fault-plan codec and injector determinism.
//!
//! (a) of the ISSUE's property-test satellite: arbitrary plans
//! round-trip parse → Display → parse exactly, including float
//! probabilities/factors (Rust's shortest-round-trip float formatting
//! carries the weight there).

use db_fault::{Check, Domain, FaultKind, FaultPlan, FaultRule, Injector, Site, Target, Trigger};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = FaultKind> {
    (0u8..5, 0u64..1_000_000, 10u32..1000).prop_map(|(sel, cycles, x)| match sel {
        0 => FaultKind::Kill,
        1 => FaultKind::Stall { cycles },
        2 => FaultKind::SlowDown {
            factor: 1.0 + x as f64 / 10.0,
        },
        3 => FaultKind::CorruptResult,
        _ => FaultKind::DropSteal,
    })
}

fn arb_target() -> impl Strategy<Value = Target> {
    (any::<bool>(), 0u32..65).prop_map(|(sm, unit)| Target {
        domain: if sm { Domain::Sm } else { Domain::Worker },
        // 64 stands for the `*` wildcard.
        unit: (unit < 64).then_some(unit),
    })
}

fn arb_trigger() -> impl Strategy<Value = Trigger> {
    (0u8..5, 0u64..10_000_000, 0u32..1001).prop_map(|(sel, n, p)| match sel {
        0 => Trigger::AtCycle(n),
        1 => Trigger::OnRequest(n % 10_000),
        2 => Trigger::Prob(p as f64 / 1000.0),
        3 => Trigger::OnCompaction,
        _ => Trigger::Always,
    })
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        proptest::collection::vec(
            (arb_kind(), arb_target(), arb_trigger()).prop_map(|(kind, target, trigger)| {
                FaultRule {
                    kind,
                    target,
                    trigger,
                }
            }),
            0..6,
        ),
    )
        .prop_map(|(seed, rules)| FaultPlan { seed, rules })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// (a) Spec strings round-trip parse → Display → parse.
    #[test]
    fn plan_round_trips_through_display(plan in arb_plan()) {
        let shown = plan.to_string();
        let back = FaultPlan::parse(&shown)
            .unwrap_or_else(|e| panic!("re-parse of '{shown}' failed: {e}"));
        prop_assert_eq!(back, plan, "spec was '{}'", shown);
    }

    /// Injector decisions depend only on plan + deterministic keys:
    /// replaying the same check sequence reproduces the same log.
    #[test]
    fn injector_replays_identically(plan in arb_plan(), checks in proptest::collection::vec((0u32..8, 0u64..100_000), 0..64)) {
        let a = Injector::new(plan.clone());
        let b = Injector::new(plan);
        for &(unit, at) in &checks {
            let site = match at % 4 {
                0 => Site::Dispatch,
                1 => Site::RingPush,
                2 => Site::RingPop,
                _ => Site::StealCopy,
            };
            let attempt = (at % 3) as u32;
            for check in [
                Check::Sim { site, sm: unit, cycle: at },
                Check::Request { worker: unit, id: at, attempt },
                Check::Compaction { key: "delta:path:10", count: at },
            ] {
                prop_assert_eq!(a.strike(check), b.strike(check));
            }
        }
        prop_assert_eq!(a.log_lines(), b.log_lines());
    }
}
