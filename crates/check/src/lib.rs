//! # db-check — the concurrency-correctness subsystem
//!
//! The engines in this workspace stand on two hand-rolled lock-free
//! protocols: the [`StampedRing`](../db_core) push/pop/steal state
//! machine and the live-counter termination handshake. Both are small
//! enough to get *almost* right, which is the dangerous size. This
//! crate is the standing adversary — cooperating analyses, all
//! runnable offline via `diggerbees check` and enforced in CI:
//!
//! * [`explore`] + [`ring_model`] / [`proto_model`] — a loom-style
//!   bounded schedule explorer (explicit-state DFS over interleavings,
//!   full-state dedup, persistent-set-style collapse of invisible
//!   steps) driving faithful transcriptions of the two protocols on
//!   tiny configs. Oracles: no lost or duplicated block, head/tail
//!   monotonicity, steal-vs-pop mutual exclusion, exactly-once
//!   visitation, termination only at quiescence. Seeded mutations
//!   ([`ring_model::RingMutation`], [`proto_model::ProtoMutation`])
//!   prove the oracles can actually fail.
//! * [`epoch_model`] — the same explorer over `db-delta`'s epoch
//!   lifecycle (pin/publish/compact/reclaim): one writer, pinned
//!   readers, and racing compactors. Oracles: no early reclaim past an
//!   active pin, at most one merge in flight, layer contiguity, no
//!   lost publish. [`epoch_model::EpochMutation`] seeds the bug
//!   classes the protocol exists to prevent.
//! * [`wal_model`] — the same explorer over `db-wal`'s commit /
//!   checkpoint / recovery protocol: append → fsync → ack commits, the
//!   pack → manifest-rename → truncate checkpoint, a crash at every
//!   interleaving point, and recovery from the durable artifacts.
//!   Oracles: no lost acknowledged write, no double apply.
//!   [`wal_model::WalMutation`] seeds the bug classes the ordering
//!   exists to prevent.
//! * [`level_model`] — the same explorer over the served kernel's team
//!   search (`db_core::kernel::team_search`), which runs in id-order
//!   sweeps: one owner, at most one helper, a chunk cursor tagged with
//!   its level (one per sweep) and closed before the owner folds, a
//!   `done` bitmap and per-member mark bitmaps read one access at a
//!   time, joins, leaves for a queued request, and the owner's wait
//!   before it reuses its bitmaps. Oracles: no fold while a chunk is
//!   held, no claim on a view other than the published level's, no lost
//!   vertex, both members exit, and bitmaps never cleared while a helper
//!   holds them. [`level_model::LevelMutation`] seeds the bugs the
//!   protocol guards against.
//! * [`race`] — a vector-clock happens-before detector over `db-trace`
//!   event streams (steal/recover events are the sync edges), runnable
//!   post-hoc on any `--trace` output.
//!
//! The model checker checks the *transcription*, not the shipped code;
//! the `differential` integration test pins the transcription to the
//! real `StampedRing` operation by operation, and the race detector
//! watches the shipped code's actual executions. The shipped source
//! itself is gated statically by `db-analyze` (atomic orderings,
//! panics on the serve and durability paths, determinism, guarded
//! `catch_unwind`), which `diggerbees check` runs first. The analyses
//! overlap deliberately: a protocol bug must dodge all of them.

pub mod epoch_model;
pub mod explore;
pub mod level_model;
pub mod proto_model;
pub mod race;
pub mod ring_model;
pub mod wal_model;

pub use epoch_model::{EpochModel, EpochMutation, EpochScenario};
pub use explore::{Explorer, Model, Outcome, Stats, Violation};
pub use level_model::{ClientEvent, LevelModel, LevelMutation, LevelScenario};
pub use proto_model::{ProtoModel, ProtoMutation, ProtoScenario};
pub use race::{detect, RaceConfig, RaceError, RaceFinding, RaceReport};
pub use ring_model::{RingModel, RingMutation, RingScenario};
pub use wal_model::{WalModel, WalMutation, WalScenario};
