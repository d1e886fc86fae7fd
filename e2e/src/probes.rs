//! Standalone probes: each prices one layer alone, through its public
//! functions, so that a layer's share of an end-to-end figure can be
//! stated without instrumenting the product.

use crate::pin::{self, Pinning};
use crate::stats::{percentile, Quiet};
use bytes::Bytes;
use disagg::ClusterConfig;
use ipc::{Conn, Frame, InprocHub, Listener};
use netsim::SharedLink;
use plasma::protocol::{Request, Response};
use plasma::{ObjectId, ObjectLocation, StoreConfig, StoreCore};
use rpclite::{NetCost, RpcClient, Status};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfsim::{Clock, Fabric};

/// What the probes measured; one field per per-layer metric they feed.
pub struct Probes {
    pub ipc_roundtrip_sw_us: f64,
    pub codec_get_sw_ns: f64,
    pub rpc_call_sw_us: f64,
    pub rpc_call_model_us_p50: f64,
    pub link_delay_us_p50: f64,
    /// Smallest delay the interconnect link sampled, ns.
    pub link_delay_min_ns: u64,
    pub tfsim_model_gibps_local: f64,
    pub tfsim_model_gibps_remote: f64,
    pub tfsim_sw_gibps: f64,
    pub obs_record_sw_ns: f64,
    pub core_2t_speedup: f64,
}

fn quiet_us(mut op: impl FnMut(), n: usize) -> f64 {
    let mut q = Quiet::default();
    for _ in 0..n {
        let t = Instant::now();
        op();
        q.push(t.elapsed().as_nanos() as u64);
    }
    q.estimate().expect("n > 0") / 1e3
}

/// One 64-byte frame to an echo thread and back over the in-process
/// transport — the hand-off every client request pays once.
fn ipc_roundtrip_us() -> f64 {
    let hub = InprocHub::new();
    let mut listener = hub.bind("echo").expect("fresh hub");
    let echo = std::thread::spawn(move || {
        let mut conn = listener.accept().expect("one client connects");
        while let Ok(frame) = conn.recv() {
            if conn.send(&frame).is_err() {
                break;
            }
        }
    });
    let mut conn = hub.connect("echo").expect("listener is bound");
    let frame = Frame::new(1, vec![0xA5u8; 64]);
    let us = quiet_us(
        || {
            conn.send(&frame).expect("echo thread is alive");
            conn.recv().expect("echo thread answers");
        },
        20_000,
    );
    drop(conn);
    echo.join()
        .expect("echo thread exits when the client hangs up");
    us
}

/// Encode + decode of the request and the response of a one-id `get`.
fn codec_get_ns() -> f64 {
    let id = ObjectId::from_name("codec-probe");
    let fabric = Fabric::virtual_thymesisflow();
    let node = fabric.register_node();
    let seg = fabric.donate(node, 4096).expect("donate");
    let loc = ObjectLocation {
        id,
        seg,
        offset: 64,
        data_size: 10_000,
        metadata_size: 0,
    };
    quiet_us(
        || {
            let req = Request::Get {
                ids: vec![id],
                timeout_ms: 200,
            };
            let frame = std::hint::black_box(req.to_frame());
            std::hint::black_box(Request::from_frame(&frame).expect("round trip"));
            let frame = std::hint::black_box(Response::Locations(vec![Some(loc)]).to_frame());
            std::hint::black_box(Response::from_frame(&frame).expect("round trip"));
        },
        50_000,
    ) * 1e3
}

/// A unary echo call over rpclite: sw time on an instant link, model time
/// on the cluster's interconnect link.
fn rpc_echo(cfg: &ClusterConfig) -> (f64, f64) {
    let hub = InprocHub::new();
    let listener = hub.bind("echo").expect("fresh hub");
    let service = Arc::new(|_m: u32, body: Bytes| -> Result<Bytes, Status> { Ok(body) });
    let _server = rpclite::serve(Box::new(listener), service);
    let body = Bytes::from(vec![0x5Au8; 64]);

    let plain = RpcClient::new(Box::new(hub.connect("echo").expect("bound")));
    let sw_us = quiet_us(
        || {
            plain.call(1, body.clone()).expect("echo");
        },
        20_000,
    );

    let clock = Clock::virtual_time();
    let net = NetCost {
        link: SharedLink::new(cfg.rpc_link, cfg.seed),
        clock: clock.clone(),
    };
    let modeled = RpcClient::with_net(Box::new(hub.connect("echo").expect("bound")), Some(net));
    let mut model_ns: Vec<u32> = (0..2_000)
        .map(|_| {
            let before = clock.now();
            modeled.call(1, body.clone()).expect("echo");
            (clock.now() - before).as_nanos() as u32
        })
        .collect();
    model_ns.sort_unstable();
    let p50 = percentile(&model_ns, 0.5).expect("2000 samples") / 1e3;
    (sw_us, p50)
}

/// 10 000 direct samples of the configured interconnect link.
fn link_delay(cfg: &ClusterConfig) -> (f64, u64) {
    let link = SharedLink::new(cfg.rpc_link, cfg.seed);
    let mut ns: Vec<u32> = (0..10_000)
        .map(|_| link.delay(0).as_nanos() as u32)
        .collect();
    ns.sort_unstable();
    (
        percentile(&ns, 0.5).expect("10000 samples") / 1e3,
        u64::from(ns[0]),
    )
}

/// Sequential reads of an 8 MiB view in 1 MiB chunks through a local and
/// a remote mapping (the paper's Fig. 7 procedure) give model GiB/s per
/// path; `read_all` of a 100 kB view, as a get cycle issues it, gives the
/// simulator's own speed.
fn tfsim_reads() -> (f64, f64, f64) {
    const LEN: u64 = 8 << 20;
    const GIB: f64 = (1u64 << 30) as f64;
    let fabric = Fabric::virtual_thymesisflow();
    let owner = fabric.register_node();
    let other = fabric.register_node();
    let seg = fabric.donate(owner, LEN as usize).expect("donate");
    let model_gibps = [owner, other].map(|mapper| {
        let view = fabric
            .attach(mapper, seg)
            .expect("attach")
            .view(0, LEN)
            .expect("view");
        let before = fabric.clock().now();
        view.read_sequential(1 << 20).expect("read");
        LEN as f64 / GIB / (fabric.clock().now() - before).as_secs_f64()
    });
    let view = fabric
        .attach(other, seg)
        .expect("attach")
        .view(0, 100_000)
        .expect("view");
    let read_us = quiet_us(
        || {
            std::hint::black_box(view.read_all().expect("read"));
        },
        4_096,
    );
    (
        model_gibps[0],
        model_gibps[1],
        100_000.0 / GIB / (read_us / 1e6),
    )
}

fn obs_record_ns() -> f64 {
    let h = obs::Histogram::new();
    const N: u64 = 2_000_000;
    let t = Instant::now();
    for i in 0..N {
        h.record(std::hint::black_box(i));
    }
    std::hint::black_box(h.count());
    t.elapsed().as_nanos() as f64 / N as f64
}

/// get+release pairs per second against one default-configured
/// `StoreCore` from two threads on two CPUs, over one thread. The only
/// number here that needs a second CPU; informational and noisy.
fn core_two_thread_speedup(pinning: &Pinning) -> f64 {
    const OBJECTS: usize = 2_000;
    const OPS: usize = 100_000;
    let fabric = Fabric::virtual_thymesisflow();
    let node = fabric.register_node();
    let core = StoreCore::new(&fabric, node, StoreConfig::new("probe", 8 << 20)).expect("core");
    let ids: Vec<ObjectId> = (0..OBJECTS)
        .map(|i| ObjectId::from_name(&format!("probe/{i}")))
        .collect();
    for &id in &ids {
        core.create(id, 1_000, 0).expect("create");
        core.seal(id).expect("seal");
        core.release(id).expect("release");
    }
    let rate = |threads: usize| -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let (core, ids) = (&core, &ids);
                s.spawn(move || {
                    // Leave the benchmark's single CPU for this probe.
                    if let Some(mask) = &pinning.original {
                        pin::set(mask);
                    }
                    for i in 0..OPS {
                        let id = ids[(i * threads + t) % OBJECTS];
                        let got = core.get_wait(&[id], Duration::ZERO);
                        assert!(got[0].is_some(), "probe object is sealed");
                        core.release(id).expect("release");
                    }
                });
            }
        });
        (threads * OPS) as f64 / start.elapsed().as_secs_f64()
    };
    let one = rate(1);
    rate(2) / one
}

pub fn run(cfg: &ClusterConfig, pinning: &Pinning) -> Probes {
    let (rpc_call_sw_us, rpc_call_model_us_p50) = rpc_echo(cfg);
    let (link_delay_us_p50, link_delay_min_ns) = link_delay(cfg);
    let (local, remote, sw) = tfsim_reads();
    Probes {
        ipc_roundtrip_sw_us: ipc_roundtrip_us(),
        codec_get_sw_ns: codec_get_ns(),
        rpc_call_sw_us,
        rpc_call_model_us_p50,
        link_delay_us_p50,
        link_delay_min_ns,
        tfsim_model_gibps_local: local,
        tfsim_model_gibps_remote: remote,
        tfsim_sw_gibps: sw,
        obs_record_sw_ns: obs_record_ns(),
        core_2t_speedup: core_two_thread_speedup(pinning),
    }
}
