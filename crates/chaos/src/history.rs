//! Operation history: what every client saw, with real-time intervals.
//!
//! The soak's worker threads record every client-visible operation —
//! put, get, batched get, delete, contains — and its settle phase one
//! read-back of every name, each as an [`Event`] carrying
//! its invocation and completion timestamps (microseconds since the
//! recorder's epoch). The checker ([`crate::checker`]) later validates
//! the whole history against the store's consistency contract. Real-time
//! intervals matter because the invariants are interval-based: operation
//! A *precedes* B only if A completed before B was invoked; overlapping
//! operations are concurrent and either order must be legal.

use parking_lot::Mutex;
use plasma::checksum;
use std::time::Instant;

/// What a read observed for one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// The object was absent (or unreachable — indistinguishable to a
    /// client, and both are legal at any time thanks to eviction).
    Missing,
    /// A payload that verified against its embedded tag: exactly the
    /// bytes some put sealed.
    Value {
        /// The version tag embedded in the payload.
        tag: u64,
    },
    /// A payload that failed verification — torn, spliced or corrupted.
    /// Always a violation.
    Torn,
}

impl Observed {
    /// Classify a returned payload: verify it against its embedded tag.
    pub fn classify(data: &[u8]) -> Observed {
        match checksum::embedded_tag(data) {
            Some(tag) if checksum::verify(tag, data) => Observed::Value { tag },
            _ => Observed::Torn,
        }
    }
}

/// The operation an [`Event`] describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// `put(name)` of a payload tagged `tag`; `ok` iff the put was acked.
    Put {
        /// Object name (small integer namespace, collides on purpose).
        name: u8,
        /// The unique version tag written into the payload.
        tag: u64,
        /// Whether the store acknowledged the put.
        ok: bool,
    },
    /// `get(name)` and what came back.
    Get {
        /// Object name.
        name: u8,
        /// What the read observed.
        observed: Observed,
    },
    /// One batched multi-get; `names[i]` produced `observed[i]`.
    BatchGet {
        /// Object names in request order (duplicates allowed).
        names: Vec<u8>,
        /// Per-slot observations, same order.
        observed: Vec<Observed>,
    },
    /// `delete(name)`; `ok` iff the store acked the delete.
    Delete {
        /// Object name.
        name: u8,
        /// Whether the delete was acknowledged.
        ok: bool,
    },
    /// The settle's one read of `name`, over the clean network after
    /// reconcile, through a node that does not own it: what survived.
    ReadBack {
        /// Object name.
        name: u8,
        /// What the read observed.
        observed: Observed,
    },
    /// `contains(name)`.
    Contains {
        /// Object name.
        name: u8,
        /// The store's answer.
        present: bool,
    },
}

/// One recorded operation with its real-time interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Which worker issued it (for debugging; invariants don't use it).
    pub client: usize,
    /// Microseconds since the recorder's epoch when the op was invoked.
    pub invoke_us: u64,
    /// Microseconds since the epoch when the op returned.
    pub complete_us: u64,
    /// The operation.
    pub kind: EventKind,
}

impl Event {
    /// True if this event completed strictly before `other` was invoked
    /// (the real-time "precedes" relation).
    pub fn precedes(&self, other: &Event) -> bool {
        self.complete_us < other.invoke_us
    }
}

/// Thread-safe collector of [`Event`]s sharing one epoch.
#[derive(Debug)]
pub struct HistoryRecorder {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl HistoryRecorder {
    /// A fresh recorder; its epoch is now.
    pub fn new() -> HistoryRecorder {
        HistoryRecorder {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the epoch — call at invocation and completion.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record one completed operation.
    pub fn record(&self, client: usize, invoke_us: u64, kind: EventKind) {
        let complete_us = self.now_us();
        self.events.lock().push(Event {
            client,
            invoke_us,
            complete_us,
            kind,
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the history, sorted by invocation time.
    pub fn take(&self) -> Vec<Event> {
        let mut events = std::mem::take(&mut *self.events.lock());
        events.sort_by_key(|e| (e.invoke_us, e.complete_us));
        events
    }
}

impl Default for HistoryRecorder {
    fn default() -> Self {
        HistoryRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_accepts_sealed_and_rejects_torn() {
        let good = checksum::fill(77, 64);
        assert_eq!(Observed::classify(&good), Observed::Value { tag: 77 });
        let mut bad = good.clone();
        bad[40] ^= 0x10;
        assert_eq!(Observed::classify(&bad), Observed::Torn);
        assert_eq!(Observed::classify(b"tiny"), Observed::Torn);
    }

    #[test]
    fn recorder_orders_and_timestamps() {
        let rec = HistoryRecorder::new();
        let t0 = rec.now_us();
        rec.record(
            0,
            t0,
            EventKind::Put {
                name: 1,
                tag: 10,
                ok: true,
            },
        );
        let t1 = rec.now_us();
        rec.record(
            1,
            t1,
            EventKind::Get {
                name: 1,
                observed: Observed::Missing,
            },
        );
        let events = rec.take();
        assert_eq!(events.len(), 2);
        assert!(events[0].invoke_us <= events[0].complete_us);
        assert!(events[0].invoke_us <= events[1].invoke_us);
        assert!(rec.is_empty());
    }
}
