//! No wakeup on the in-process pipe is lost. The pipe's condvars skip a
//! notify when they count no sleeper, so a reader that parked without
//! being counted would sleep through its frame for good; each test here
//! runs under a watchdog, so such a loss fails the test instead of
//! hanging it.
//!
//! The two ends exchange frames through a `try_clone`d sender, receive
//! with `recv` and `recv_until` in turn, and finish with a `close` while
//! the echo side is parked — once with both threads pinned to one CPU,
//! where every receive parks, and once unpinned, where sends race parks.

mod pin;

use ipc::{Conn, Frame, InprocHub, Listener};
use std::io;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

const ROUND_TRIPS: u32 = 20_000;
const WATCHDOG: Duration = Duration::from_secs(30);

/// Run `f` on a thread of its own and fail if it has not returned
/// within [`WATCHDOG`].
fn within_watchdog(f: impl FnOnce() + Send + 'static) {
    let (done, finished) = channel();
    let t = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => t.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => {
            panic!("still parked after {WATCHDOG:?}: a wakeup was lost")
        }
    }
}

/// The `n`-th receive on a side: `recv` and `recv_until` in turn, with a
/// deadline past the watchdog so only a wake can end the wait.
fn receive(conn: &mut dyn Conn, n: u32) -> io::Result<Frame> {
    if n.is_multiple_of(2) {
        conn.recv()
    } else {
        conn.recv_until(Some(Instant::now() + 2 * WATCHDOG))
    }
}

fn echo_then_close(pinned: bool) {
    within_watchdog(move || {
        if pinned {
            pin::pin_here();
        }
        let hub = InprocHub::new();
        let mut listener = hub.bind("echo").unwrap();
        let mut client = hub.connect("echo").unwrap();
        let mut server = listener.accept().unwrap();
        let echo = std::thread::spawn(move || {
            let mut reply = server.try_clone().unwrap();
            let mut served = 0;
            loop {
                match receive(server.as_mut(), served) {
                    Ok(frame) => reply.send(&frame).unwrap(),
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
                        return served;
                    }
                }
                served += 1;
            }
        });
        let mut sender = client.try_clone().unwrap();
        for n in 0..ROUND_TRIPS {
            sender
                .send(&Frame::new(1, n.to_le_bytes().to_vec()))
                .unwrap();
            let back = receive(&mut client, n + 1).unwrap();
            assert_eq!(back.payload[..], n.to_le_bytes());
        }
        // Give the echo side time to park in its next receive, then
        // close: the close is its only wake.
        std::thread::sleep(Duration::from_millis(20));
        client.close();
        assert_eq!(echo.join().unwrap(), ROUND_TRIPS);
    });
}

#[test]
fn no_wakeup_is_lost_pinned_to_one_cpu() {
    echo_then_close(true);
}

#[test]
fn no_wakeup_is_lost_unpinned() {
    echo_then_close(false);
}
