//! `polysi_obs` — dependency-free observability primitives for the PolySI
//! checker: a span tracer with Chrome trace-event export, a metrics registry
//! (counters / gauges / fixed-bucket histograms), and a hand-rolled JSON
//! writer plus a minimal well-formedness parser used by tests and CI to
//! validate machine-readable reports without serde.
//!
//! Design constraints, in order:
//!
//! 1. **Next to no cost when disabled.** [`Tracer::disabled`] is an
//!    `Option<Arc<..>>` holding `None`; `span()` on it is one clock read
//!    and a branch — no allocation, no lock. The clock read is what lets
//!    [`SpanGuard::finish`] return a stage's duration either way, so the
//!    spans are the only timer the pipeline has.
//! 2. **Deterministic counts.** Counter totals depend only on the work done,
//!    never on thread interleaving; anything runtime-dependent (timings)
//!    goes into `runtime.*` counters, gauges, or histograms, all of which
//!    are excluded from [`Metrics::counter_digest`].
//! 3. **No dependencies.** std only; the vendored shims are not even used
//!    outside dev-dependencies.

pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;

pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use span::{AttrValue, Attrs, SpanEvent, SpanGuard, SpanPhase, Tracer};

/// One bundle of observability handles, threaded through the engine layers.
///
/// `Obs::default()` carries a *disabled* tracer (spans are no-ops) and a live
/// but private metrics registry, so instrumented code never needs to branch.
#[derive(Clone, Default, Debug)]
pub struct Obs {
    pub tracer: Tracer,
    pub metrics: Metrics,
}

impl Obs {
    /// Handles with tracing enabled and a fresh metrics registry.
    pub fn enabled() -> Self {
        Obs { tracer: Tracer::enabled(), metrics: Metrics::default() }
    }
}
