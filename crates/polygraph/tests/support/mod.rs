//! How the property suites drive `KnownGraph::insert_edges`, the one
//! insertion method: the flush policy handed to every call, and whether
//! the caller flushes after each call.

use polysi_polygraph::{Edge, Flush, KnownGraph};

#[derive(Clone, Copy, Debug)]
pub struct Policy {
    flush: Flush,
    flush_after_call: bool,
}

/// The closure is current after every call.
pub const EAGER: Policy = Policy { flush: Flush::Every(62), flush_after_call: true };
/// The prune apply phase: edges stay staged until 62 are pending or the
/// driver flushes, so cycle checks in between run against a stale closure.
pub const DEFERRED: Policy = Policy { flush: Flush::Every(62), flush_after_call: false };
/// A checkpoint delta: each call flushes once, at its end.
pub const BULK: Policy = Policy { flush: Flush::AtEnd, flush_after_call: false };

impl Policy {
    pub fn insert(self, g: &mut KnownGraph, batch: &[Edge]) -> Result<(), Vec<Edge>> {
        let staged = g.insert_edges(batch, self.flush);
        if self.flush_after_call {
            g.flush_closure();
        }
        staged
    }
}
