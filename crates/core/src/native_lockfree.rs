//! Former home of the lock-free engine, now [`crate::native`].

/// The native engine under its former name. The benchmark ledger
/// (`ledger/`, built against this workspace) still names this type;
/// the alias goes when the ledger stops naming it.
pub use crate::native::NativeEngine as LockFreeEngine;
