//! The delegation ledger and its one reconcile exchange, exercised as
//! plain data — no cluster, no RPC. A property test drives an owner's
//! ledger and a holder's through steps any of which may land on one side
//! only (a lost request or a lost response) and checks that one exchange
//! makes the two sides agree; named cases pin `owner_verdict` to each
//! historical lost-response bug; and the behaviours the retired
//! `RemoteRefs`, `BorrowLedger` and `ReplicaLedger` unit tests asserted
//! are re-asserted against the one ledger that replaced them. The last
//! two cases are the exceptions that need a cluster: who may retire a
//! delegated copy, and which copy a holder may re-acknowledge.

use disagg::delegation::{
    owner_verdict, Claim, Delegation, Ledger, OwnerView, Settlement, Verdict,
};
use disagg::proto::{method, BoolResp, CallHeader, Message, ReplyHeader, RetireReq};
use disagg::{Cluster, ClusterConfig, Kind, NodeId, Phase, Side};
use plasma::{ObjectId, ObjectLocation, PlasmaError};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use tfsim::SegKey;

const OWNER: NodeId = NodeId(1);
const HOLDER: NodeId = NodeId(2);
const OTHER: NodeId = NodeId(3);
const SIZE: u64 = 64;

fn oid(n: u8) -> ObjectId {
    ObjectId::from_bytes([n; 20])
}

fn entry(kind: Kind, peer: NodeId, count: u64) -> Delegation {
    Delegation {
        kind,
        peer,
        count,
        bytes: SIZE,
        phase: Phase::Live,
        at: None,
    }
}

/// The live `(id, kind)` entries one side of `ledger` has toward `peer`.
fn toward(ledger: &Ledger, side: Side, peer: NodeId) -> BTreeSet<(ObjectId, Kind)> {
    let live = ledger
        .records()
        .into_iter()
        .filter(|r| r.side == side && r.peer == peer && r.phase == Phase::Live);
    live.map(|r| (r.id, r.kind)).collect()
}

fn count_of(ledger: &Ledger, side: Side, id: ObjectId, kind: Kind, peer: NodeId) -> u64 {
    let rows = ledger.records().into_iter();
    rows.filter(|r| (r.side, r.id, r.kind, r.peer) == (side, id, kind, peer))
        .map(|r| r.count)
        .sum()
}

/// One holder-reports-to-owner exchange between two ledgers: the claims,
/// the settlement, the holder obeying. `sealed` is the owner's set of
/// sealed local copies.
fn exchange(owner: &Ledger, holder: &Ledger, sealed: &HashSet<ObjectId>) -> Settlement {
    let claims: Vec<Claim> = holder.claims_on(OWNER, |_| true);
    let settled = owner.settle(HOLDER, &claims, |id| sealed.contains(&id).then_some(SIZE));
    for (id, kind) in &settled.drop {
        holder.remove(Side::Held, *id, *kind, Some(OWNER));
    }
    settled
}

// ---------------------------------------------------------------------
// (a) the property: one exchange makes both sides agree.
// ---------------------------------------------------------------------

/// What one protocol step does to each ledger. Any step may reach only
/// one of them.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// `GET_MANY`: the owner pins, the requester ledgers the pin.
    Pin,
    /// `RELEASE`: both drop one pin.
    Unpin,
    /// A `RELEASE` that could not be sent: the holder parks it.
    Park,
    /// `CREATE_AT`.
    Stage,
    /// `SEAL_AT`: the owner consumes the staged create, the requester's
    /// entry starts closing.
    Seal,
    /// `SPILL_AT`: the holder adopts; the owner records the lease and
    /// gives its copy up.
    Spill,
    /// `REPLICATE_AT`: the holder adopts; the owner records the replica
    /// and keeps its copy.
    Replicate,
    /// `INVALIDATE`: the copy entry goes, both sides.
    Retire,
    /// The owner re-acquires (or loses) a sealed local copy.
    ToggleSealed,
    /// The owner has the id on lease to a third node.
    LeaseElsewhere,
}

const ACTIONS: [Action; 10] = [
    Action::Pin,
    Action::Unpin,
    Action::Park,
    Action::Stage,
    Action::Seal,
    Action::Spill,
    Action::Replicate,
    Action::Retire,
    Action::ToggleSealed,
    Action::LeaseElsewhere,
];

fn apply(
    action: Action,
    id: ObjectId,
    (at_owner, at_holder): (bool, bool),
    owner: &Ledger,
    holder: &Ledger,
    sealed: &mut HashSet<ObjectId>,
) {
    let any = |_| true;
    match action {
        Action::Pin => {
            if at_owner {
                owner.record(Side::Out, id, Kind::Pin, HOLDER, 0);
            }
            if at_holder {
                holder.record(Side::Held, id, Kind::Pin, OWNER, 0);
            }
        }
        Action::Unpin => {
            if at_owner {
                owner.unpin(Side::Out, id, Some(HOLDER), any);
            }
            if at_holder {
                holder.unpin(Side::Held, id, None, any);
            }
        }
        Action::Park => {
            if holder.unpin(Side::Held, id, None, any).is_some() {
                holder.park(id, OWNER);
            }
        }
        Action::Stage => {
            if at_owner {
                owner.record(Side::Out, id, Kind::Staged, HOLDER, SIZE);
            }
            if at_holder {
                holder.record(Side::Held, id, Kind::Staged, OWNER, SIZE);
            }
        }
        Action::Seal => {
            if at_owner {
                owner.remove(Side::Out, id, Kind::Staged, Some(HOLDER));
            }
            if at_holder {
                holder.close_staged(id);
            }
        }
        Action::Spill | Action::Replicate => {
            let kind = match action {
                Action::Spill => Kind::Lease,
                _ => Kind::Replica,
            };
            if at_owner {
                owner.record(Side::Out, id, kind, HOLDER, SIZE);
                if kind == Kind::Lease {
                    sealed.remove(&id);
                } else {
                    sealed.insert(id);
                }
            }
            if at_holder {
                holder.record(Side::Held, id, kind, OWNER, SIZE);
            }
        }
        Action::Retire => {
            for kind in [Kind::Lease, Kind::Replica] {
                if at_owner {
                    owner.remove(Side::Out, id, kind, Some(HOLDER));
                }
                if at_holder {
                    holder.remove(Side::Held, id, kind, Some(OWNER));
                }
            }
        }
        Action::ToggleSealed => {
            if !sealed.remove(&id) {
                sealed.insert(id);
            }
        }
        Action::LeaseElsewhere => owner.record(Side::Out, id, Kind::Lease, OTHER, SIZE),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_exchange_makes_both_sides_agree(
        steps in proptest::collection::vec((0..ACTIONS.len(), 0..4u8, 0..3u8), 0..60)
    ) {
        let (owner, holder) = (Ledger::new(), Ledger::new());
        let mut sealed = HashSet::new();
        for (action, id, reach) in steps {
            // reach 0 = both sides, 1 = the request was lost after the
            // sender acted (holder only), 2 = the response was lost
            // (owner only).
            let reach = (reach != 1, reach != 2);
            apply(ACTIONS[action], oid(id), reach, &owner, &holder, &mut sealed);
        }
        let elsewhere = toward(&owner, Side::Out, OTHER);
        let parked = holder.parked();

        exchange(&owner, &holder, &sealed);

        // Every `out` entry has its `held` counterpart and vice versa.
        prop_assert_eq!(
            toward(&owner, Side::Out, HOLDER),
            toward(&holder, Side::Held, OWNER)
        );
        // No id is both lent and replicated by one owner, and an id has
        // one lease.
        for id in (0..4).map(oid) {
            let leases = owner.peers(Side::Out, id, Kind::Lease);
            let replicas = owner.peers(Side::Out, id, Kind::Replica);
            prop_assert!(leases.len() <= 1, "lease forked: {leases:?}");
            prop_assert!(
                leases.is_empty() || !replicas.contains(&HOLDER),
                "{id:?} lent to {leases:?} and replicated to {replicas:?}"
            );
        }
        // What the exchange was not about is untouched: the owner's
        // entries toward a third node, the holder's parked releases.
        prop_assert_eq!(toward(&owner, Side::Out, OTHER), elsewhere);
        prop_assert_eq!(holder.parked(), parked);
        // And it is idempotent: a second exchange changes nothing.
        let again = exchange(&owner, &holder, &sealed);
        prop_assert_eq!(again, Settlement::default());
    }
}

// ---------------------------------------------------------------------
// (b) `owner_verdict` alone, one case per historical bug.
// ---------------------------------------------------------------------

fn verdict(sealed: bool, out: &[Delegation], kind: Kind, claimed: u64) -> Verdict {
    owner_verdict(&OwnerView { sealed, out }, HOLDER, kind, claimed)
}

/// PR 8's double lease: reconcile overwrote a confirmed lease with the
/// reporter's and forked it across two holders.
#[test]
fn lease_already_recorded_for_another_holder_is_dropped_not_forked() {
    let out = [entry(Kind::Lease, OTHER, 1)];
    assert_eq!(verdict(false, &out, Kind::Lease, 1), Verdict::Drop);

    let owner = Ledger::new();
    owner.record(Side::Out, oid(1), Kind::Lease, OTHER, SIZE);
    let settled = owner.settle(HOLDER, &[(oid(1), Kind::Lease, 1)], |_| None);
    assert_eq!(settled.drop, vec![(oid(1), Kind::Lease)]);
    assert_eq!(owner.peers(Side::Out, oid(1), Kind::Lease), vec![OTHER]);
}

#[test]
fn owner_that_reacquired_a_copy_retires_the_lease() {
    let out = [entry(Kind::Lease, HOLDER, 1)];
    assert_eq!(verdict(true, &out, Kind::Lease, 1), Verdict::Drop);
    // An ambiguous spill: the owner kept its copy and recorded nothing.
    assert_eq!(verdict(true, &[], Kind::Lease, 1), Verdict::Drop);

    let owner = Ledger::new();
    owner.record(Side::Out, oid(1), Kind::Lease, HOLDER, SIZE);
    let settled = owner.settle(HOLDER, &[(oid(1), Kind::Lease, 1)], |_| Some(SIZE));
    assert_eq!(settled.drop, vec![(oid(1), Kind::Lease)]);
    assert!(owner.records().is_empty(), "the owner's entry retires too");
}

#[test]
fn replica_of_a_since_lent_or_since_deleted_id_is_dropped() {
    let replica = entry(Kind::Replica, HOLDER, 1);
    let lent = [replica, entry(Kind::Lease, OTHER, 1)];
    assert_eq!(verdict(true, &lent, Kind::Replica, 1), Verdict::Drop);
    assert_eq!(verdict(false, &lent, Kind::Replica, 1), Verdict::Drop);
    let deleted = [replica];
    assert_eq!(verdict(false, &deleted, Kind::Replica, 1), Verdict::Drop);
    assert_eq!(verdict(true, &deleted, Kind::Replica, 1), Verdict::Keep);
}

/// A lost `REPLICATE_AT` response: the owner kept its copy, so the
/// replica stands and its entry is installed. A lease the owner never
/// recorded is different: an owner gives its copy up only once it has
/// recorded the lease, so a holder claiming an unrecorded lease while the
/// owner has no copy holds what an ambiguous spill left of an object the
/// owner has since deleted. Installing it brought the deleted object back
/// (the soak's read-back found it).
#[test]
fn lost_replicate_response_installs_the_owner_entry_and_an_unrecorded_lease_is_dropped() {
    assert_eq!(verdict(false, &[], Kind::Lease, 1), Verdict::Drop);
    assert_eq!(verdict(true, &[], Kind::Replica, 1), Verdict::Keep);

    let owner = Ledger::new();
    let claims = [(oid(1), Kind::Lease, 1), (oid(2), Kind::Replica, 1)];
    let settled = owner.settle(HOLDER, &claims, |id| (id == oid(2)).then_some(SIZE));
    assert_eq!(settled.drop, vec![(oid(1), Kind::Lease)]);
    assert_eq!(settled.trimmed, Default::default());
    assert!(owner.peers(Side::Out, oid(1), Kind::Lease).is_empty());
    assert_eq!(owner.peers(Side::Out, oid(2), Kind::Replica), vec![HOLDER]);
    let bytes = owner.find(Side::Out, oid(2), Kind::Replica).unwrap().bytes;
    assert_eq!(
        bytes, SIZE,
        "a healed replica entry carries the copy's size"
    );
}

#[test]
fn orphan_staged_create_the_requester_no_longer_claims_is_aborted() {
    let out = [entry(Kind::Staged, HOLDER, 1)];
    assert_eq!(verdict(false, &out, Kind::Staged, 0), Verdict::Trim(1));
    assert_eq!(verdict(false, &out, Kind::Staged, 1), Verdict::Keep);
    assert_eq!(verdict(false, &[], Kind::Staged, 1), Verdict::Drop);

    let owner = Ledger::new();
    owner.record(Side::Out, oid(1), Kind::Staged, HOLDER, SIZE);
    owner.record(Side::Out, oid(2), Kind::Staged, HOLDER, SIZE);
    owner.record(Side::Out, oid(3), Kind::Staged, OTHER, SIZE);
    let settled = owner.settle(HOLDER, &[(oid(2), Kind::Staged, 1)], |_| None);
    assert_eq!(settled.abort, vec![oid(1)]);
    assert_eq!(settled.trimmed[Kind::Staged], 1);
    assert!(
        owner.find(Side::Out, oid(2), Kind::Staged).is_some(),
        "claimed"
    );
    assert!(
        owner.find(Side::Out, oid(3), Kind::Staged).is_some(),
        "not the reporter's"
    );
}

/// PR 10's phantom pins: a holder that restored a pin after a lost
/// RELEASE response reports more than the owner counts.
#[test]
fn phantom_pin_over_report_never_inflates_the_owner() {
    let out = [entry(Kind::Pin, HOLDER, 1)];
    assert_eq!(verdict(false, &out, Kind::Pin, 3), Verdict::Keep);
    assert_eq!(verdict(false, &out, Kind::Pin, 1), Verdict::Keep);
    assert_eq!(verdict(false, &[], Kind::Pin, 3), Verdict::Drop);
    let counted = [entry(Kind::Pin, HOLDER, 3)];
    assert_eq!(verdict(false, &counted, Kind::Pin, 1), Verdict::Trim(2));
    assert_eq!(verdict(false, &counted, Kind::Pin, 0), Verdict::Trim(3));

    let owner = Ledger::new();
    owner.record(Side::Out, oid(1), Kind::Pin, HOLDER, 0);
    let settled = owner.settle(HOLDER, &[(oid(1), Kind::Pin, 3)], |_| None);
    assert_eq!(settled, Settlement::default());
    assert_eq!(count_of(&owner, Side::Out, oid(1), Kind::Pin, HOLDER), 1);
}

// ---------------------------------------------------------------------
// (c) what the retired per-kind ledgers' unit tests asserted.
// ---------------------------------------------------------------------

/// `usage::RemoteRefs::pin_unpin_counts`.
#[test]
fn pins_count_per_requester_and_unpin_reports_absence() {
    let ledger = Ledger::new();
    let exactly = |peer| move |p: NodeId| p == peer;
    ledger.record(Side::Out, oid(1), Kind::Pin, HOLDER, 0);
    ledger.record(Side::Out, oid(1), Kind::Pin, HOLDER, 0);
    ledger.record(Side::Out, oid(1), Kind::Pin, OTHER, 0);
    assert_eq!(count_of(&ledger, Side::Out, oid(1), Kind::Pin, HOLDER), 2);
    assert_eq!(count_of(&ledger, Side::Out, oid(1), Kind::Pin, OTHER), 1);
    for _ in 0..2 {
        let whose = ledger.unpin(Side::Out, oid(1), Some(HOLDER), exactly(HOLDER));
        assert_eq!(whose.map(|pin| pin.peer), Some(HOLDER));
    }
    let none_left = ledger.unpin(Side::Out, oid(1), Some(HOLDER), exactly(HOLDER));
    assert_eq!(none_left, None, "no pins left for the holder");
    assert_eq!(count_of(&ledger, Side::Out, oid(1), Kind::Pin, OTHER), 1);
    // Without a named peer, the preferred owner's pin goes first and any
    // other's when none is preferred.
    ledger.record(Side::Held, oid(2), Kind::Pin, HOLDER, 0);
    ledger.record(Side::Held, oid(2), Kind::Pin, OTHER, 0);
    let whose = |ledger: &Ledger| {
        let pin = ledger.unpin(Side::Held, oid(2), None, exactly(OTHER));
        pin.map(|pin| pin.peer)
    };
    assert_eq!(whose(&ledger), Some(OTHER));
    assert_eq!(whose(&ledger), Some(HOLDER));
    assert_eq!(ledger.unpin(Side::Held, oid(2), None, exactly(OTHER)), None);
}

/// `usage::RemoteRefs::reconcile_trims_to_reported_counts`.
#[test]
fn settle_trims_pins_to_the_reported_counts() {
    let owner = Ledger::new();
    for _ in 0..3 {
        owner.record(Side::Out, oid(1), Kind::Pin, HOLDER, 0); // claims 1 → trim 2
    }
    owner.record(Side::Out, oid(2), Kind::Pin, HOLDER, 0); // unclaimed → trim 1
    owner.record(Side::Out, oid(3), Kind::Pin, HOLDER, 0); // claimed exactly
    owner.record(Side::Out, oid(1), Kind::Pin, OTHER, 0); // other requester

    let claims = [
        (oid(1), Kind::Pin, 1),
        (oid(3), Kind::Pin, 1),
        (oid(9), Kind::Pin, 5),
    ];
    let settled = owner.settle(HOLDER, &claims, |_| None);
    let mut released = settled.release.clone();
    released.sort();
    assert_eq!(released, vec![(oid(1), 2), (oid(2), 1)]);
    assert_eq!(settled.trimmed[Kind::Pin], 3);
    assert_eq!(settled.drop, vec![(oid(9), Kind::Pin)], "never pinned here");
    assert_eq!(count_of(&owner, Side::Out, oid(1), Kind::Pin, HOLDER), 1);
    assert_eq!(count_of(&owner, Side::Out, oid(3), Kind::Pin, HOLDER), 1);
    assert_eq!(count_of(&owner, Side::Out, oid(1), Kind::Pin, OTHER), 1);
    // The report alone created nothing, and a second pass trims nothing.
    assert_eq!(count_of(&owner, Side::Out, oid(9), Kind::Pin, HOLDER), 0);
    let again = owner.settle(HOLDER, &claims[..2], |_| None);
    assert_eq!(again, Settlement::default());
}

/// `elastic::BorrowLedger::ledger_tracks_both_sides`.
#[test]
fn leases_are_tracked_on_both_sides() {
    let ledger = Ledger::new();
    ledger.record(Side::Out, oid(1), Kind::Lease, HOLDER, 100);
    ledger.record(Side::Held, oid(9), Kind::Lease, OTHER, 40);

    let lent = ledger.find(Side::Out, oid(1), Kind::Lease).unwrap();
    assert_eq!((lent.peer, lent.bytes), (HOLDER, 100));
    assert!(ledger.find(Side::Out, oid(9), Kind::Lease).is_none());
    assert_eq!(ledger.held_copy(oid(9)), Some((Kind::Lease, OTHER)));
    assert_eq!(ledger.held_copy(oid(1)), None);
    assert!(ledger.has_out_copy(oid(1)) && !ledger.has_out_copy(oid(9)));
    assert_eq!(
        ledger.claims_on(OTHER, |_| true),
        vec![(oid(9), Kind::Lease, 1)]
    );
    assert!(ledger.claims_on(HOLDER, |_| true).is_empty());
    // A newer lease replaces the older: an id has one.
    ledger.record(Side::Out, oid(1), Kind::Lease, OTHER, 100);
    assert_eq!(ledger.peers(Side::Out, oid(1), Kind::Lease), vec![OTHER]);

    assert!(ledger
        .remove(Side::Out, oid(1), Kind::Lease, None)
        .is_some());
    assert!(ledger
        .remove(Side::Out, oid(1), Kind::Lease, None)
        .is_none());
    assert!(ledger
        .remove(Side::Held, oid(9), Kind::Lease, Some(OTHER))
        .is_some());
    assert!(ledger.records().is_empty());
}

/// A delete closes a lease only while no pin is out on it, and each
/// delete retiring it counts: one that gives up without reaching the
/// holder opens the lease again only once no other delete retires it,
/// and a reconcile that finds the holder's copy opens it outright.
#[test]
fn a_closed_lease_reopens_once_no_delete_retires_it() {
    let at = ObjectLocation {
        id: oid(1),
        seg: SegKey {
            owner: HOLDER,
            index: 0,
        },
        offset: 4096,
        data_size: SIZE,
        metadata_size: 0,
    };
    let owner = Ledger::new();
    owner.lend_out(oid(1), HOLDER, at);
    assert_eq!(owner.lend(oid(1), OTHER), Some(at));
    assert_eq!(
        owner.close_lease(oid(1)),
        Err(PlasmaError::ObjectInUse(oid(1)))
    );
    let pin = owner
        .unpin(Side::Out, oid(1), Some(OTHER), |_| true)
        .unwrap();
    assert_eq!(pin.at, Some(at), "the pin was on the lease");

    // Two deletes close it; no get is handed the copy meanwhile.
    assert_eq!(owner.close_lease(oid(1)), Ok(Some(HOLDER)));
    assert_eq!(owner.close_lease(oid(1)), Ok(Some(HOLDER)));
    assert_eq!(owner.lend(oid(1), OTHER), None);
    assert!(
        !owner.reopen_lease(oid(1), HOLDER),
        "the other delete may have retired it"
    );
    assert_eq!(owner.lend(oid(1), OTHER), None);
    assert!(
        !owner.reopen_lease(oid(1), OTHER),
        "no lease toward that node"
    );
    assert!(owner.reopen_lease(oid(1), HOLDER));
    assert_eq!(owner.lend(oid(1), OTHER), Some(at));
    owner
        .unpin(Side::Out, oid(1), Some(OTHER), |_| true)
        .unwrap();

    // Left closed by a delete that never confirmed, the lease opens at
    // a reconcile where the holder still claims its copy.
    assert_eq!(owner.close_lease(oid(1)), Ok(Some(HOLDER)));
    let settled = owner.settle(HOLDER, &[(oid(1), Kind::Lease, 1)], |_| None);
    assert!(settled.drop.is_empty());
    assert_eq!(owner.lend(oid(1), OTHER), Some(at));
    let lease = owner.find(Side::Out, oid(1), Kind::Lease).unwrap();
    assert_eq!((lease.phase, lease.count), (Phase::Live, 1));
}

/// Pins on one id toward one reader are counted whichever copy each is
/// on: a reader claiming fewer than all of them is trimmed to its claim.
#[test]
fn a_pin_claim_is_judged_against_every_row_toward_the_reporter() {
    let mut lent = entry(Kind::Pin, HOLDER, 1);
    lent.at = Some(ObjectLocation {
        id: oid(1),
        seg: SegKey {
            owner: OTHER,
            index: 0,
        },
        offset: 0,
        data_size: SIZE,
        metadata_size: 0,
    });
    let out = [entry(Kind::Pin, HOLDER, 2), lent];
    assert_eq!(verdict(false, &out, Kind::Pin, 1), Verdict::Trim(2));
    assert_eq!(verdict(false, &out, Kind::Pin, 3), Verdict::Keep);
    assert_eq!(verdict(false, &out, Kind::Pin, 0), Verdict::Trim(3));
}

/// `BorrowLedger::trim_lent_drops_only_unreported_entries_of_that_holder`
/// and `ReplicaLedger::trim_drops_unconfirmed_entries_for_one_holder`.
#[test]
fn settle_trims_only_the_reporters_unclaimed_copies() {
    for kind in [Kind::Lease, Kind::Replica] {
        let owner = Ledger::new();
        owner.record(Side::Out, oid(1), kind, HOLDER, 10);
        owner.record(Side::Out, oid(2), kind, HOLDER, 10);
        owner.record(Side::Out, oid(3), kind, OTHER, 10);
        // A replica needs the owner's copy to stand; a lease its absence.
        let sealed = |_| (kind == Kind::Replica).then_some(10);
        let settled = owner.settle(HOLDER, &[(oid(1), kind, 1)], sealed);
        assert_eq!(settled.trimmed[kind], 1);
        assert_eq!(settled.trimmed.total(), 1);
        assert!(settled.drop.is_empty());
        assert_eq!(owner.peers(Side::Out, oid(1), kind), vec![HOLDER]);
        assert!(owner.peers(Side::Out, oid(2), kind).is_empty(), "unclaimed");
        assert_eq!(
            owner.peers(Side::Out, oid(3), kind),
            vec![OTHER],
            "other holder"
        );
    }
}

/// `ReplicaLedger::owner_side_tracks_holders_per_object` and
/// `holder_side_is_owner_checked`.
#[test]
fn replicas_are_per_holder_and_removal_is_owner_checked() {
    let ledger = Ledger::new();
    ledger.record(Side::Out, oid(1), Kind::Replica, HOLDER, 100);
    ledger.record(Side::Out, oid(1), Kind::Replica, OTHER, 100);
    ledger.record(Side::Out, oid(1), Kind::Replica, OTHER, 100); // idempotent
    ledger.record(Side::Out, oid(2), Kind::Replica, HOLDER, 50);
    let mut holders = ledger.peers(Side::Out, oid(1), Kind::Replica);
    holders.sort_by_key(|n| n.0);
    assert_eq!(holders, vec![HOLDER, OTHER]);
    assert_eq!(ledger.peers(Side::Out, oid(2), Kind::Replica), vec![HOLDER]);

    assert!(ledger
        .remove(Side::Out, oid(1), Kind::Replica, Some(HOLDER))
        .is_some());
    assert!(ledger
        .remove(Side::Out, oid(1), Kind::Replica, Some(HOLDER))
        .is_none());
    assert_eq!(ledger.peers(Side::Out, oid(1), Kind::Replica), vec![OTHER]);

    ledger.record(Side::Held, oid(7), Kind::Replica, OWNER, 10);
    assert_eq!(ledger.held_copy(oid(7)), Some((Kind::Replica, OWNER)));
    // A remove naming the wrong owner must not clobber the entry.
    assert!(ledger
        .remove(Side::Held, oid(7), Kind::Replica, Some(OTHER))
        .is_none());
    assert_eq!(ledger.held_copy(oid(7)), Some((Kind::Replica, OWNER)));
    assert!(ledger
        .remove(Side::Held, oid(7), Kind::Replica, Some(OWNER))
        .is_some());
    assert_eq!(ledger.held_copy(oid(7)), None);
}

/// `ReplicaLedger::snapshots_expose_both_sides`, and the rule the old
/// pair of ledgers could not state: a holder has one copy of an id.
#[test]
fn records_expose_both_sides_and_a_holder_has_one_copy_per_id() {
    let ledger = Ledger::new();
    ledger.record(Side::Out, oid(1), Kind::Replica, HOLDER, 10);
    ledger.record(Side::Held, oid(9), Kind::Replica, OTHER, 10);
    let mut rows: Vec<_> = ledger
        .records()
        .into_iter()
        .map(|r| (r.side, r.id, r.kind, r.peer))
        .collect();
    rows.sort_by_key(|r| r.1);
    assert_eq!(
        rows,
        vec![
            (Side::Out, oid(1), Kind::Replica, HOLDER),
            (Side::Held, oid(9), Kind::Replica, OTHER),
        ]
    );
    assert_eq!(
        ledger.claims_on(OTHER, |_| true),
        vec![(oid(9), Kind::Replica, 1)]
    );
    // Adopting the leased copy of an id supersedes the replica of it.
    ledger.record(Side::Held, oid(9), Kind::Lease, OTHER, 10);
    assert_eq!(ledger.held_copy(oid(9)), Some((Kind::Lease, OTHER)));
    assert_eq!(toward(&ledger, Side::Held, OTHER).len(), 1);
    // A copy entry whose bytes are gone is erased, not claimed.
    assert!(ledger.claims_on(OTHER, |_| false).is_empty());
    assert_eq!(ledger.held_copy(oid(9)), None);
}

/// The two collections that became phases: parked releases
/// (`pending_releases`) and sealed-but-unreleased forwarded creates
/// (`release_waivers`).
#[test]
fn closing_entries_are_neither_claimed_nor_live() {
    let ledger = Ledger::new();
    ledger.record(Side::Held, oid(1), Kind::Pin, OWNER, 0);
    ledger.park(oid(1), OWNER);
    ledger.park(oid(1), OWNER);
    ledger.park(oid(2), OTHER);
    assert_eq!(ledger.parked(), 3);
    assert_eq!(
        ledger.claims_on(OWNER, |_| true),
        vec![(oid(1), Kind::Pin, 1)]
    );
    assert_eq!(ledger.take_parked(OWNER), vec![oid(1), oid(1)]);
    assert_eq!(ledger.parked(), 1);
    assert!(ledger.take_parked(OWNER).is_empty());
    assert_eq!(
        count_of(&ledger, Side::Held, oid(1), Kind::Pin, OWNER),
        1,
        "live pin kept"
    );

    ledger.record(Side::Held, oid(3), Kind::Staged, OWNER, SIZE);
    assert!(!ledger.finish_staged(oid(3)), "not sealed yet");
    assert!(ledger.close_staged(oid(3)));
    assert!(!ledger.close_staged(oid(3)), "already closing");
    assert!(ledger.find(Side::Held, oid(3), Kind::Staged).is_none());
    assert!(!ledger
        .claims_on(OWNER, |_| true)
        .iter()
        .any(|c| c.0 == oid(3)));
    assert!(
        ledger.finish_staged(oid(3)),
        "the trailing release finishes it"
    );
    assert!(!ledger.finish_staged(oid(3)));
}

/// `INVALIDATE` is the one way a delegated copy dies, and it obeys only
/// the owner the copy is recorded under — for a lease as for a replica.
/// Naming any other node it answers `false` and retires nothing; naming
/// the owner, the copy and its entry go, whoever sends it (here a third
/// node, as a delete's requester may be).
#[test]
fn invalidate_from_a_node_that_is_not_the_recorded_owner_retires_nothing() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let (owner, holder) = (cluster.store(0), cluster.store(1));
    let lent = ObjectId::from_name(&cluster.owned_id(0, "inv/lent"));
    let shared = ObjectId::from_name(&cluster.owned_id(0, "inv/shared"));
    for id in [lent, shared] {
        cluster.client(0).unwrap().put(id, &[6; 200], &[]).unwrap();
    }
    assert!(owner.spill_to(lent, holder.node()).unwrap());
    assert!(owner.replicate_to(shared, holder.node()).unwrap());
    let held = || -> BTreeSet<(ObjectId, Kind)> {
        let copies = holder.delegations().into_iter();
        let copies = copies.filter(|r| r.side == Side::Held && r.kind.is_copy());
        copies.map(|r| (r.id, r.kind)).collect()
    };
    let both = BTreeSet::from([(lent, Kind::Lease), (shared, Kind::Replica)]);
    assert_eq!(held(), both);

    let service = holder.interconnect_service();
    let invalidate = |owner: NodeId, id: ObjectId| {
        let header = CallHeader {
            from: cluster.node_id(2),
        };
        let request = header.frame(&RetireReq { id, owner }.encode());
        let answer = service.call(method::INVALIDATE, request).unwrap();
        let (_, body) = ReplyHeader::unframe(answer).unwrap();
        BoolResp::decode(body).unwrap().value
    };
    for id in [lent, shared] {
        assert!(!invalidate(cluster.node_id(2), id), "not the owner");
        assert!(holder.core().contains(id), "the copy stays");
    }
    assert_eq!(held(), both, "and so does its entry");

    for id in [lent, shared] {
        assert!(invalidate(owner.node(), id), "the recorded owner");
        assert!(!holder.core().contains(id));
        assert!(!invalidate(owner.node(), id), "nothing left to retire");
    }
    assert_eq!(held(), BTreeSet::new());
}

/// ROADMAP 2b, the stale lease that re-acknowledged. A spill whose answer
/// is lost for good leaves the holder a copy and a `Lease` entry the
/// owner knows nothing of; the owner's delete cannot chase what it never
/// recorded, so that copy outlives the object. When the id is put again —
/// same sizes, other bytes — and spilled to the same holder, the holder
/// must not mistake its leftover for the new object: it re-acknowledges
/// only a copy whose bytes are the offered ones, drops one that differs,
/// and refuses, so the next spill adopts the live bytes.
#[test]
fn stale_leased_copy_of_a_deleted_object_is_not_re_acknowledged() {
    use ipc::fault::{Direction, FaultAction, FaultPolicy};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Drops the next frame node 0 receives from node 1, once armed.
    struct DropNextAnswer(AtomicBool);
    impl FaultPolicy for DropNextAnswer {
        fn on_frame(&self, link: &str, dir: Direction, _: &ipc::Frame) -> FaultAction {
            let answer = link == "0->1" && dir == Direction::Inbound;
            if answer && self.0.swap(false, Ordering::SeqCst) {
                return FaultAction::Drop;
            }
            FaultAction::Deliver
        }
    }

    let lose_answer = std::sync::Arc::new(DropNextAnswer(AtomicBool::new(false)));
    let mut config = ClusterConfig::functional(2, 4 << 20);
    config.fault_policy = Some(lose_answer.clone());
    config.interconnect.call_deadline = Some(Duration::from_millis(100));
    config.interconnect.max_attempts = 1;
    let cluster = Cluster::launch(config).unwrap();
    let (owner, holder) = (cluster.store(0), cluster.store(1));
    let client = cluster.client(0).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "lease/stale"));
    let held_lease = || {
        let rows = holder.delegations().into_iter();
        rows.filter(|r| (r.side, r.kind) == (Side::Held, Kind::Lease))
            .count()
    };

    // The spill lands, its answer does not: the owner keeps its copy and
    // records nothing, the holder keeps a copy and its entry.
    client.put(id, &[1; 300], b"old").unwrap();
    lose_answer.0.store(true, Ordering::SeqCst);
    assert!(!owner.spill_to(id, holder.node()).unwrap(), "no answer");
    assert_eq!(owner.delegations(), vec![]);
    assert!(holder.core().contains(id));
    assert_eq!(held_lease(), 1);

    // Deleted at the owner (acked) and put again: same sizes, other bytes.
    client.delete(id).unwrap();
    client.put(id, &[2; 300], b"new").unwrap();

    // The holder refuses the copy it cannot vouch for and forgets it ...
    assert!(
        !owner.spill_to(id, holder.node()).unwrap(),
        "stale: refused"
    );
    assert!(!holder.core().contains(id));
    assert_eq!(held_lease(), 0);
    // ... so the retry adopts the live bytes, and only those are ever read.
    assert!(owner.spill_to(id, holder.node()).unwrap());
    assert_eq!(held_lease(), 1);
    let read = cluster.store(0).get_bytes(id, Duration::from_secs(1));
    let mut live = vec![2; 300];
    live.extend_from_slice(b"new");
    assert_eq!(read.unwrap().unwrap(), live);
}
