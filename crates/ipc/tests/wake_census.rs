//! A round trip over the in-process pipe costs each side one context
//! switch. One test in its own binary, so the two threads it pins are the
//! only threads of this process doing anything.
//!
//! Both threads run on one CPU. A `send` that notified the reader while
//! still holding the pipe lock let the woken reader preempt the sender
//! only to block on that lock: each side then parked twice per round trip
//! (1.97–1.99 voluntary switches a side, against 0.59–0.60 when the
//! sender unlocks first). Only voluntary switches are counted, so other
//! load on the host cannot fail the test. A scheduler without wakeup
//! preemption never lets the reader run before the sender parks, so
//! there the test passes whichever way `send` orders its unlock and its
//! notify.

mod pin;

use ipc::{Conn, Frame, InprocHub, Listener};
use pin::pin_here;
use std::sync::Barrier;

const ROUND_TRIPS: u32 = 20_000;
const WARM_UP: u32 = 1_000;
/// Most voluntary switches a side may take per round trip.
const MAX_SWITCHES: f64 = 1.3;

const RUSAGE_THREAD: i32 = 1;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_to_nsignals: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    // glibc wrapper; `RUSAGE_THREAD` means the calling thread.
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Voluntary context switches of the calling thread so far.
fn voluntary_switches() -> i64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` matches the kernel's `struct rusage` layout.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_THREAD)");
    usage.nvcsw
}

/// `WARM_UP + ROUND_TRIPS` round trips on `conn`, sending first when
/// `leads`; returns the voluntary switches the calling thread took over
/// the last `ROUND_TRIPS`.
fn round_trips(conn: &mut dyn Conn, leads: bool, start: &Barrier) -> i64 {
    let ping = Frame::new(1, &b"ping"[..]);
    let mut before = 0;
    for i in 0..WARM_UP + ROUND_TRIPS {
        if i == WARM_UP {
            start.wait();
            before = voluntary_switches();
        }
        if leads {
            conn.send(&ping).unwrap();
            conn.recv().unwrap();
        } else {
            let frame = conn.recv().unwrap();
            conn.send(&frame).unwrap();
        }
    }
    voluntary_switches() - before
}

#[test]
fn an_inproc_round_trip_is_one_context_switch_a_side() {
    let cpu = pin_here();
    let hub = InprocHub::new();
    let mut listener = hub.bind("census").unwrap();
    let mut client = hub.connect("census").unwrap();
    let mut server = listener.accept().unwrap();
    let start = Barrier::new(2);

    let (caller, echo) = std::thread::scope(|s| {
        let echo = s.spawn(|| round_trips(server.as_mut(), false, &start));
        let caller = round_trips(&mut client, true, &start);
        (caller, echo.join().unwrap())
    });
    for (side, switches) in [("caller", caller), ("echo", echo)] {
        let per_round_trip = switches as f64 / f64::from(ROUND_TRIPS);
        assert!(
            per_round_trip <= MAX_SWITCHES,
            "{side} took {per_round_trip:.2} voluntary switches per round trip on CPU {cpu} \
             (at most {MAX_SWITCHES}): is a waker notifying under the pipe lock?"
        );
    }
}
