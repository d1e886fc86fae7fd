//! History checker: validates a recorded operation history against the
//! store's consistency contract.
//!
//! The invariants are interval-based (an operation *precedes* another
//! only if it completed before the other was invoked; overlapping
//! operations are concurrent), and they are deliberately one-sided:
//! under fault injection a read may always legally miss (the owner may
//! be unreachable, the object evicted), but a read that *returns data*
//! must return exactly some sealed payload, of the right object, that
//! was not provably deleted. Checked invariants:
//!
//! 1. **No torn reads** — every returned payload verifies against its
//!    embedded version tag ([`plasma::checksum`]). A spliced, truncated
//!    or bit-flipped payload can never verify.
//! 2. **No phantom or cross-object values** — an observed tag must have
//!    been written by a put *of that same name*. A tag written under a
//!    different name means the wire delivered the wrong object's bytes.
//! 3. **No resurrection** — a read must not observe a version whose put
//!    strictly preceded an acked delete that strictly preceded the read.
//! 4. **Create uniqueness** (only when `evictions == 0`) — two acked
//!    puts of the same name require a delete that could have separated
//!    them; otherwise the second put should have failed `ObjectExists`.
//!    An *unacked* delete counts as a possible separator (its ack may
//!    have been lost after it executed), an eviction anywhere disables
//!    the invariant entirely.
//! 5. **No presence after provable delete** — `contains == true` is a
//!    violation if an acked delete precedes it and every put of the name
//!    strictly preceded that delete.
//!
//! The settle's read-backs ([`EventKind::ReadBack`]) are reads like any
//! other for 1–3, and, only when `evictions == 0`, answer two more:
//!
//! 6. **Nothing is lost** — a read-back misses while some acked put of
//!    the name must survive: no delete attempt of the name, acked or
//!    not, could have run after it (every one completed before the put
//!    was invoked).
//! 7. **Nothing is stale** — a read-back returns a version that cannot
//!    be current: its put is strictly followed by an acked delete, or
//!    another acked put must survive.

use crate::history::{Event, EventKind, Observed};

/// The checker's conclusion: empty `violations` means the history is
/// consistent with the contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Human-readable descriptions of every invariant violation found.
    pub violations: Vec<String>,
}

impl Verdict {
    /// True if no violation was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ok() {
            write!(f, "consistent ✓")
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Interval of one operation, for the precedes relation.
#[derive(Debug, Clone, Copy)]
struct Span {
    invoke_us: u64,
    complete_us: u64,
}

impl Span {
    fn of(e: &Event) -> Span {
        Span {
            invoke_us: e.invoke_us,
            complete_us: e.complete_us,
        }
    }

    fn precedes(&self, other: &Span) -> bool {
        self.complete_us < other.invoke_us
    }
}

/// One observed read (a `Get`, or one slot of a `BatchGet`).
#[derive(Debug, Clone, Copy)]
struct Read {
    name: u8,
    observed: Observed,
    span: Span,
    client: usize,
}

/// Validate `history` against the consistency contract. `evictions` is
/// the cluster-wide eviction count over the run: any eviction disables
/// the create-uniqueness invariant (an evicted object legally vanishes
/// without a delete).
pub fn check(history: &[Event], evictions: u64) -> Verdict {
    let mut verdict = Verdict::default();

    // Index the history per name.
    let mut puts: Vec<(u8, u64, bool, Span)> = Vec::new(); // (name, tag, ok, span)
    let mut deletes: Vec<(u8, bool, Span)> = Vec::new(); // (name, ok, span)
    let mut reads: Vec<Read> = Vec::new();
    let mut presences: Vec<(u8, Span, usize)> = Vec::new(); // (name, span, client)
    let mut read_backs: Vec<Read> = Vec::new();
    for event in history {
        let span = Span::of(event);
        match &event.kind {
            EventKind::Put { name, tag, ok } => puts.push((*name, *tag, *ok, span)),
            EventKind::Delete { name, ok } => deletes.push((*name, *ok, span)),
            EventKind::Get { name, observed } => reads.push(Read {
                name: *name,
                observed: *observed,
                span,
                client: event.client,
            }),
            EventKind::ReadBack { name, observed } => {
                let read = Read {
                    name: *name,
                    observed: *observed,
                    span,
                    client: event.client,
                };
                reads.push(read);
                read_backs.push(read);
            }
            EventKind::BatchGet { names, observed } => {
                for (name, obs) in names.iter().zip(observed) {
                    reads.push(Read {
                        name: *name,
                        observed: *obs,
                        span,
                        client: event.client,
                    });
                }
            }
            EventKind::Contains { name, present } => {
                if *present {
                    presences.push((*name, span, event.client));
                }
            }
        }
    }

    for (name, span, client) in presences {
        check_presence(name, span, client, &puts, &deletes, &mut verdict);
    }

    for read in &reads {
        match read.observed {
            Observed::Missing => {} // always legal (eviction, partition)
            Observed::Torn => verdict.violations.push(format!(
                "torn read: client {} observed a payload for name {} that fails \
                 checksum verification at [{}, {}]us",
                read.client, read.name, read.span.invoke_us, read.span.complete_us
            )),
            Observed::Value { tag } => {
                check_value(read, tag, &puts, &deletes, &mut verdict);
            }
        }
    }

    if evictions == 0 {
        check_create_uniqueness(&puts, &deletes, &mut verdict);
        for read in &read_backs {
            check_survivor(read, &puts, &deletes, &mut verdict);
        }
    }

    verdict
}

/// Invariants 6 and 7 for one read-back.
fn check_survivor(
    read: &Read,
    puts: &[(u8, u64, bool, Span)],
    deletes: &[(u8, bool, Span)],
    verdict: &mut Verdict,
) {
    let deletes_of = || deletes.iter().filter(|(name, ..)| *name == read.name);
    let mut of_name = puts.iter().filter(|(name, ..)| *name == read.name);
    // Acked puts no delete attempt could have followed.
    let must: Vec<u64> = of_name
        .clone()
        .filter(|(_, _, ok, put)| *ok && deletes_of().all(|(_, _, d)| d.precedes(put)))
        .map(|(_, tag, ..)| *tag)
        .collect();
    match read.observed {
        Observed::Missing if !must.is_empty() => verdict.violations.push(format!(
            "lost: the read-back of name {} missed, although put tag {} was acked and no \
             delete of it was attempted after",
            read.name, must[0]
        )),
        Observed::Value { tag } => {
            let current = of_name.any(|(_, t, _, put)| {
                *t == tag && !deletes_of().any(|(_, ok, d)| *ok && put.precedes(d))
            });
            if !current || !(must.is_empty() || must.contains(&tag)) {
                verdict.violations.push(format!(
                    "stale: the read-back of name {} observed tag {tag}, which cannot be \
                     current (acked puts that must survive: {must:?})",
                    read.name
                ));
            }
        }
        _ => {}
    }
}

/// Invariants 2 and 3 for one observed value.
fn check_value(
    read: &Read,
    tag: u64,
    puts: &[(u8, u64, bool, Span)],
    deletes: &[(u8, bool, Span)],
    verdict: &mut Verdict,
) {
    let Some(&(_, _, _, put_span)) = puts
        .iter()
        .find(|(name, t, _, _)| *t == tag && *name == read.name)
    else {
        // Tag never written under this name. Distinguish wrong-object
        // delivery (written under another name) from pure fabrication.
        let msg = match puts.iter().find(|(_, t, _, _)| *t == tag) {
            Some((other, ..)) => format!(
                "cross-object read: client {} asked for name {} but observed the \
                 payload of name {other} (tag {tag})",
                read.client, read.name
            ),
            None => format!(
                "phantom read: client {} observed tag {tag} for name {} but no \
                 put ever wrote it",
                read.client, read.name
            ),
        };
        verdict.violations.push(msg);
        return;
    };
    // Resurrection: put(tag) → acked delete → this read, all strict.
    for (name, ok, delete_span) in deletes {
        if *name == read.name
            && *ok
            && put_span.precedes(delete_span)
            && delete_span.precedes(&read.span)
        {
            verdict.violations.push(format!(
                "resurrection: client {} observed tag {tag} for name {} at \
                 [{}, {}]us although its delete was acked at [{}, {}]us",
                read.client,
                read.name,
                read.span.invoke_us,
                read.span.complete_us,
                delete_span.invoke_us,
                delete_span.complete_us
            ));
            return;
        }
    }
}

/// Invariant 5: `contains == true` after a provable delete.
fn check_presence(
    name: u8,
    span: Span,
    client: usize,
    puts: &[(u8, u64, bool, Span)],
    deletes: &[(u8, bool, Span)],
    verdict: &mut Verdict,
) {
    for (dname, ok, delete_span) in deletes {
        if *dname != name || !*ok || !delete_span.precedes(&span) {
            continue;
        }
        // Provable only if *every* put of the name strictly preceded the
        // delete — then nothing could have recreated it.
        let recreated = puts
            .iter()
            .any(|(pname, _, _, p)| *pname == name && !p.precedes(delete_span));
        if !recreated {
            verdict.violations.push(format!(
                "presence after delete: client {client} saw contains(name {name}) == true \
                 at [{}, {}]us although the last delete was acked at [{}, {}]us \
                 and no later put exists",
                span.invoke_us, span.complete_us, delete_span.invoke_us, delete_span.complete_us
            ));
            return;
        }
    }
}

/// Invariant 4: two acked puts of one name need a separating delete.
fn check_create_uniqueness(
    puts: &[(u8, u64, bool, Span)],
    deletes: &[(u8, bool, Span)],
    verdict: &mut Verdict,
) {
    let acked: Vec<_> = puts.iter().filter(|(_, _, ok, _)| *ok).collect();
    for (i, &&(name, tag_a, _, span_a)) in acked.iter().enumerate() {
        for &&(name_b, tag_b, _, span_b) in &acked[i + 1..] {
            if name != name_b {
                continue;
            }
            // Any delete attempt (acked or not — a lost ack may hide a
            // delete that executed) that could fall between the two puts
            // excuses the pair. Overlapping puts may linearize in either
            // order, so both real-time-feasible orderings are tried: the
            // delete separates `x` then `y` if that order is possible at
            // all (`y` did not complete before `x` was invoked) and the
            // delete's interval can sit after `x`'s effect and before
            // `y`'s — a long-running retried put can take effect late in
            // its span, after a delete that was *invoked* after the
            // other put completed.
            let between = |x: &Span, d: &Span, y: &Span| {
                !y.precedes(x) && d.complete_us > x.invoke_us && d.invoke_us < y.complete_us
            };
            let separated = deletes.iter().any(|(dname, _, d)| {
                *dname == name && (between(&span_a, d, &span_b) || between(&span_b, d, &span_a))
            });
            if !separated {
                verdict.violations.push(format!(
                    "duplicate create: puts tag {tag_a} and tag {tag_b} of name {name} \
                     were both acked with no possible delete between them"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(t0: u64, t1: u64, name: u8, tag: u64, ok: bool) -> Event {
        Event {
            client: 0,
            invoke_us: t0,
            complete_us: t1,
            kind: EventKind::Put { name, tag, ok },
        }
    }

    fn get(t0: u64, t1: u64, name: u8, observed: Observed) -> Event {
        Event {
            client: 1,
            invoke_us: t0,
            complete_us: t1,
            kind: EventKind::Get { name, observed },
        }
    }

    fn delete(t0: u64, t1: u64, name: u8, ok: bool) -> Event {
        Event {
            client: 2,
            invoke_us: t0,
            complete_us: t1,
            kind: EventKind::Delete { name, ok },
        }
    }

    #[test]
    fn clean_history_passes() {
        let history = vec![
            put(0, 10, 1, 100, true),
            get(20, 30, 1, Observed::Value { tag: 100 }),
            delete(40, 50, 1, true),
            get(60, 70, 1, Observed::Missing),
            put(80, 90, 1, 101, true),
            get(95, 99, 1, Observed::Value { tag: 101 }),
        ];
        let verdict = check(&history, 0);
        assert!(verdict.ok(), "{verdict}");
    }

    #[test]
    fn torn_read_is_flagged() {
        let history = vec![put(0, 10, 1, 100, true), get(20, 30, 1, Observed::Torn)];
        let verdict = check(&history, 0);
        assert!(!verdict.ok());
        assert!(verdict.violations[0].contains("torn read"));
    }

    #[test]
    fn phantom_and_cross_object_reads_are_flagged() {
        let history = vec![
            put(0, 10, 1, 100, true),
            get(20, 30, 2, Observed::Value { tag: 100 }), // name 2 never wrote tag 100
            get(40, 50, 3, Observed::Value { tag: 999 }), // nobody wrote tag 999
        ];
        let verdict = check(&history, 0);
        assert_eq!(verdict.violations.len(), 2);
        assert!(verdict.violations[0].contains("cross-object"));
        assert!(verdict.violations[1].contains("phantom"));
    }

    #[test]
    fn resurrection_is_flagged_but_concurrent_read_is_not() {
        let history = vec![
            put(0, 10, 1, 100, true),
            delete(20, 30, 1, true),
            get(40, 50, 1, Observed::Value { tag: 100 }), // after acked delete
            // Concurrent with the delete: legal either way.
            get(25, 28, 1, Observed::Value { tag: 100 }),
        ];
        let verdict = check(&history, 0);
        assert_eq!(verdict.violations.len(), 1, "{verdict}");
        assert!(verdict.violations[0].contains("resurrection"));
    }

    #[test]
    fn duplicate_create_is_flagged_and_gated() {
        let history = vec![put(0, 10, 1, 100, true), put(20, 30, 1, 101, true)];
        let verdict = check(&history, 0);
        assert_eq!(verdict.violations.len(), 1);
        assert!(verdict.violations[0].contains("duplicate create"));
        // Evictions legalize the second create.
        assert!(check(&history, 1).ok());
        // So does an unacked delete that may have executed.
        let history = vec![
            put(0, 10, 1, 100, true),
            delete(12, 18, 1, false),
            put(20, 30, 1, 101, true),
        ];
        assert!(check(&history, 0).ok());
    }

    #[test]
    fn overlapping_puts_may_linearize_in_either_order() {
        // A long-running retried put (invoked first, effect late in its
        // span) overlaps a fast put; a delete invoked after the fast put
        // completed can still separate them — fast put, then delete,
        // then the slow put's late effect. Not a duplicate create.
        let history = vec![
            put(0, 100, 1, 100, true), // slow: dropped CREATE_AT, retried
            put(50, 55, 1, 101, true), // fast, inside the slow put's span
            delete(60, 70, 1, false),  // executed, ack lost
        ];
        assert!(check(&history, 0).ok(), "{}", check(&history, 0));
        // But with no delete at all the pair stays a violation, and a
        // delete that completed before *both* puts were invoked cannot
        // separate them in either order.
        let history = vec![put(0, 100, 1, 100, true), put(50, 55, 1, 101, true)];
        assert_eq!(check(&history, 0).violations.len(), 1);
        let history = vec![
            delete(0, 5, 1, true),
            put(10, 100, 1, 100, true),
            put(50, 55, 1, 101, true),
        ];
        assert_eq!(check(&history, 0).violations.len(), 1);
    }

    #[test]
    fn presence_after_provable_delete_is_flagged() {
        let history = vec![
            put(0, 10, 1, 100, true),
            delete(20, 30, 1, true),
            Event {
                client: 0,
                invoke_us: 40,
                complete_us: 50,
                kind: EventKind::Contains {
                    name: 1,
                    present: true,
                },
            },
        ];
        let verdict = check(&history, 0);
        assert_eq!(verdict.violations.len(), 1);
        assert!(verdict.violations[0].contains("presence after delete"));
        // A put concurrent with the delete makes presence legal.
        let mut with_put = history.clone();
        with_put.push(put(25, 35, 1, 101, true));
        assert!(check(&with_put, 0).ok());
    }

    fn read_back(t0: u64, name: u8, observed: Observed) -> Event {
        Event {
            client: 3,
            invoke_us: t0,
            complete_us: t0 + 5,
            kind: EventKind::ReadBack { name, observed },
        }
    }

    #[test]
    fn lost_and_stale_read_backs_are_flagged_and_gated() {
        let history = vec![
            put(0, 10, 1, 100, true),
            put(0, 10, 2, 200, true),
            delete(20, 30, 2, false), // may have run: 200 need not survive
            put(40, 50, 3, 300, true),
            delete(60, 70, 3, true),
            put(80, 90, 3, 301, true),
            read_back(100, 1, Observed::Missing),
            read_back(100, 2, Observed::Missing),
            read_back(100, 3, Observed::Value { tag: 300 }),
        ];
        let verdict = check(&history, 0);
        assert_eq!(verdict.violations.len(), 3, "{verdict}");
        assert!(verdict.violations[0].contains("resurrection"), "{verdict}");
        assert!(verdict.violations[1].contains("lost: the read-back of name 1"));
        assert!(verdict.violations[2].contains("stale: the read-back of name 3"));
        // What survived reads clean, and an eviction excuses a loss.
        let clean = vec![
            put(0, 10, 1, 100, true),
            put(0, 10, 2, 200, true),
            delete(20, 30, 2, false),
            read_back(100, 1, Observed::Value { tag: 100 }),
            read_back(100, 2, Observed::Missing),
        ];
        assert!(check(&clean, 0).ok(), "{}", check(&clean, 0));
        assert!(check(&history[..7], 1).ok());
    }

    #[test]
    fn batch_get_slots_are_checked_individually() {
        let history = vec![
            put(0, 10, 1, 100, true),
            Event {
                client: 0,
                invoke_us: 20,
                complete_us: 30,
                kind: EventKind::BatchGet {
                    names: vec![1, 2, 1],
                    observed: vec![
                        Observed::Value { tag: 100 },
                        Observed::Missing,
                        Observed::Torn,
                    ],
                },
            },
        ];
        let verdict = check(&history, 0);
        assert_eq!(verdict.violations.len(), 1);
        assert!(verdict.violations[0].contains("torn read"));
    }
}
