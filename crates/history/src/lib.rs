//! Transaction histories for black-box isolation checking.
//!
//! This crate defines the client-observable model of the PolySI paper
//! (Section 2.2): keys, values, read/write operations, transactions,
//! sessions, and *histories* `H = (T, SO)`. It also implements the
//! non-cyclic axioms a checker must establish before graph-based analysis:
//!
//! * the internal-consistency axiom `Int` (a read within a transaction
//!   returns the most recent value read from or written to that key inside
//!   the transaction),
//! * *aborted reads* (no committed transaction reads a value written by an
//!   aborted transaction), and
//! * *intermediate reads* (no transaction reads a value that was overwritten
//!   by the transaction that wrote it),
//!
//! plus the **UniqueValue** assumption check and the extraction of the
//! write-read (`WR`) relation that it makes possible.
//!
//! [`Facts`] (effects, `WR`, axioms) has one builder, [`StreamFacts`]:
//! a stream pushes its transactions as they arrive, and
//! [`Facts::analyze`] pushes a whole history in id order and finishes. A
//! push resolves each read against the writes seen so far, or leaves it
//! waiting for its writer, and probes hash maps on the seeded
//! fold-multiply hasher of [`fasthash`] only; reads still unresolved are
//! classified when a list is asked for. [`ShardPlan`] (key-connectivity
//! components) interns the history's keys first: a dense first-touch id
//! per key and the id of every operation. Every list
//! either analysis returns has a documented order that no hash seed can
//! change (violations by transaction, a transaction's final writes and
//! duplicate-write reports by key, per-key lists by transaction, component
//! keys ascending).
//!
//! Histories can be built programmatically with [`HistoryBuilder`], loaded
//! from and saved to a line-oriented text format ([`codec`]) or a compact
//! columnar binary format ([`binfmt`], `.pbh`), and summarized with
//! [`stats::HistoryStats`].

pub mod binfmt;
pub mod codec;
mod facts;
pub mod fasthash;
mod fence;
mod history;
mod ids;
mod index;
pub mod live;
mod op;
pub mod shard;
pub mod stats;
pub mod stream;

pub use facts::{AxiomViolation, Facts, WrSource};
pub use fasthash::{FastMap, FastSet};
pub use fence::{Fences, KeyFence};
pub use history::{History, HistoryBuilder, SessionView};
pub use ids::{Key, SessionId, TxnId, Value};
pub use live::{Delivery, IngestError};
pub use op::{Op, TxnStatus};
pub use shard::{ShardComponent, ShardFallback, ShardPlan};
pub use stream::{FactEvent, HistoryStream, RootInfo, StreamFacts, StreamShards};

/// A convenient alias for the outcome of history well-formedness analysis.
pub type AxiomResult = Result<(), AxiomViolation>;
