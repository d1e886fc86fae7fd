//! The one-way release under fault: a table of wire faults, each driven
//! through a [`ipc::fault::FaultConn`] on a two-node cluster whose
//! reader holds one object three times over. In every case the client
//! is answered `Ok`; no delete from another node succeeds while the
//! reader still holds the buffer; and once the reader has let go, the
//! next exchange with the owner (or, run apart, a reconcile) leaves no
//! release parked and an empty audit. Each case is also run against the
//! mutant it must catch ([`Mutant`]).

use super::peer::{Mutant, MUTANT};
use crate::cluster::{Cluster, ClusterConfig};
use crate::delegation::{Kind, Side};
use crate::health::PeerState;
use crate::proto::method;
use ipc::fault::{Direction, FaultAction, FaultPolicy};
use ipc::Frame;
use parking_lot::Mutex;
use plasma::{ObjectId, ObjectStore, PlasmaError};
use rpclite::{Request, Response};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The `RELEASE` request is dropped.
    RequestDropped,
    /// Its answer is dropped.
    AnswerDropped,
    /// The request is duplicated.
    RequestDuplicated,
    /// The connection is poisoned (a corrupt answer) with two releases
    /// in flight.
    Poisoned,
    /// The owner is `Down` when the release is sent.
    OwnerDown,
    /// The owner answers `false`: the reader's entry was a phantom.
    AnswersFalse,
}

/// Each fault, and the mutant that must break a case of it.
const TABLE: [(Fault, Mutant); 6] = [
    (Fault::RequestDropped, Mutant::NeverFlush),
    (Fault::AnswerDropped, Mutant::NeverFlush),
    (Fault::RequestDuplicated, Mutant::DropFalse),
    (Fault::Poisoned, Mutant::NeverFlush),
    (Fault::OwnerDown, Mutant::NeverFlush),
    (Fault::AnswersFalse, Mutant::DropFalse),
];

/// What ends a case's faults.
#[derive(Debug, Clone, Copy)]
enum Heal {
    /// The next exchange with the owner that succeeds.
    Exchange,
    /// A reconcile.
    Reconcile,
}

/// Applies the armed fault to the next `RELEASE` the reader (node 1)
/// sends the owner (node 0), or to its answer.
#[derive(Default)]
struct Script {
    state: Mutex<Armed>,
}

#[derive(Default)]
struct Armed {
    /// The fault the next `RELEASE` meets.
    request: Option<Fault>,
    /// The call whose answer meets the action.
    answer: Option<(u64, FaultAction)>,
}

impl FaultPolicy for Script {
    fn on_frame(&self, link: &str, dir: Direction, frame: &Frame) -> FaultAction {
        if link != "1->0" {
            return FaultAction::Deliver;
        }
        let mut armed = self.state.lock();
        match dir {
            Direction::Outbound => {
                let Ok(req) = Request::from_frame(frame) else {
                    return FaultAction::Deliver;
                };
                if req.method != method::RELEASE {
                    return FaultAction::Deliver;
                }
                let corrupt = FaultAction::Corrupt {
                    offset: 0,
                    mask: 0xFF,
                };
                match armed.request.take() {
                    Some(Fault::RequestDropped) => FaultAction::Drop,
                    Some(Fault::RequestDuplicated) => FaultAction::Duplicate,
                    Some(Fault::AnswerDropped) => {
                        armed.answer = Some((req.call_id, FaultAction::Drop));
                        FaultAction::Deliver
                    }
                    Some(Fault::Poisoned) => {
                        armed.answer = Some((req.call_id, corrupt));
                        FaultAction::Deliver
                    }
                    other => {
                        armed.request = other;
                        FaultAction::Deliver
                    }
                }
            }
            Direction::Inbound => {
                let call = Response::from_frame(frame).ok().map(|r| r.call_id);
                match armed.answer {
                    Some((id, action)) if Some(id) == call => {
                        armed.answer = None;
                        action
                    }
                    _ => FaultAction::Deliver,
                }
            }
        }
    }
}

/// Run one case; returns each promise it broke (empty: all kept).
fn run(fault: Fault, heal: Heal) -> Vec<String> {
    let script = Arc::new(Script::default());
    let mut config = ClusterConfig::functional(2, 1 << 20);
    config.fault_policy = Some(script.clone());
    config.interconnect.call_deadline = Some(Duration::from_millis(100));
    config.interconnect.max_attempts = 1;
    let mut cluster = Cluster::launch(config).unwrap();
    let owner = cluster.node_id(0);
    let reader = cluster.store(1).clone();
    let mut broken = Vec::new();
    let mut check = |kept: bool, promise: &str| {
        if !kept {
            broken.push(promise.to_string());
        }
    };

    // The reader holds `a`, owned by node 0, three times over.
    let a = ObjectId::from_name(&cluster.owned_id(0, "one-way/a"));
    cluster.store(0).put(a, &[0xA5; 512], &[]).unwrap();
    for _ in 0..3 {
        assert!(reader.get(&[a], Duration::ZERO).unwrap()[0].is_some());
    }
    // A phantom: the reader's ledger says node 0 pins `p` for it, which
    // node 0 does not; the reference is a local reader's, on the
    // reader's own copy.
    let p = ObjectId::from_name(&cluster.owned_id(1, "one-way/p"));
    if matches!(fault, Fault::RequestDuplicated | Fault::AnswersFalse) {
        reader.put(p, &[0x9F; 64], &[]).unwrap();
        assert!(reader.core().get_local(p).is_some());
        reader.ledger().record(Side::Held, p, Kind::Pin, owner, 0);
    }

    script.state.lock().request = Some(fault);
    let released = match fault {
        Fault::OwnerDown => {
            cluster.stop_rpc(0);
            for _ in 0..8 {
                if reader.peer_state(owner) == PeerState::Down {
                    break;
                }
                let _ = reader.peer_metrics(owner);
            }
            assert_eq!(reader.peer_state(owner), PeerState::Down);
            cluster.restart_rpc(0).unwrap();
            vec![reader.release(a)]
        }
        Fault::Poisoned => vec![reader.release(a), reader.release(a)],
        Fault::RequestDuplicated => vec![reader.release_many(&[a, p])],
        Fault::AnswersFalse => vec![reader.release(p)],
        Fault::RequestDropped | Fault::AnswerDropped => vec![reader.release(a)],
    };
    check(
        released.iter().all(Result::is_ok),
        "the client is answered Ok",
    );
    let in_use = |cluster: &Cluster| cluster.store(0).delete(a) == Err(PlasmaError::ObjectInUse(a));
    check(
        in_use(&cluster),
        "no delete while the reader holds a (faulted)",
    );

    // The next exchange that succeeds takes the answers; a poisoned
    // connection fails the call that meets the poison.
    cluster.clock().charge(Duration::from_secs(10)); // past any probe window
    let exchange = || (0..2).any(|_| reader.peer_metrics(owner).is_ok());
    assert!(exchange());
    check(
        in_use(&cluster),
        "no delete while the reader holds a (answered)",
    );

    // The reader lets go of what it still holds, and the cluster rests.
    while reader.held_remote_pins() > 0 {
        reader.release(a).unwrap();
    }
    match heal {
        Heal::Exchange => assert!(exchange()),
        Heal::Reconcile => assert!(reader.reconcile().unreachable.is_empty()),
    }
    check(reader.pending_release_count() == 0, "no release parked");
    let audit = cluster.audit();
    check(audit.is_empty(), &format!("an empty audit: {audit:?}"));
    check(
        cluster.store(0).delete(a).is_ok(),
        "a delete once nobody holds a",
    );
    broken
}

/// `run` with `mutant` in place of the real release path.
fn against(mutant: Mutant, fault: Fault, heal: Heal) -> Vec<String> {
    MUTANT.with(|m| m.set(Some(mutant)));
    let broken = run(fault, heal);
    MUTANT.with(|m| m.set(None));
    broken
}

#[test]
fn every_release_fault_is_answered_ok_and_healed_by_the_next_exchange_or_a_reconcile() {
    for (fault, mutant) in TABLE {
        for heal in [Heal::Exchange, Heal::Reconcile] {
            let broken = run(fault, heal);
            assert!(broken.is_empty(), "{fault:?}, {heal:?}: {broken:?}");
            let broken = against(mutant, fault, heal);
            assert!(
                !broken.is_empty(),
                "{fault:?}, {heal:?}: passes against {mutant:?}"
            );
        }
    }
}
