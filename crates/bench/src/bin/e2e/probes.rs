//! Bare layer probes: tight loops on one public function each, with no
//! workload state. They give the floors under the end-to-end latencies
//! and run in every traced run, whatever the workload.

use std::hint::black_box;
use std::time::Instant;

use espresso::heap::{HeapHandle, Pjh, PjhConfig};
use espresso::nvm::{NvmConfig, NvmDevice};
use espresso_object::{PObject, Schema};
use espresso_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};

use crate::common::Outcome;

const DEVICE_PROBES: usize = 200_000;
const ROOT_SETS: usize = 512;
const ROOT_GETS: usize = 50_000;
const CODEC_PROBES: usize = 50_000;
/// The server's per-shard table size, and a quarter of it live.
const TABLE_CAPACITY: usize = 8192;
const LIVE_NAMES: usize = 2048;

struct Probe;

impl PObject for Probe {
    const CLASS_NAME: &'static str = "e2e.Probe";
    fn schema() -> Schema {
        Schema::builder(Self::CLASS_NAME).u64_field("v").build()
    }
}

fn per_call_ns(calls: usize, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// `write_u64` + `persist` of one line, and `read_u64`, on a bare device.
fn device(out: &mut Outcome, scale: usize) {
    let probes = DEVICE_PROBES / scale;
    let dev = NvmDevice::new(NvmConfig::with_size(1 << 20));
    let lines = dev.size() / 64;
    out.set_layer(
        "nvm.persist_ns",
        per_call_ns(probes, || {
            for i in 0..probes {
                let addr = (i % lines) * 64;
                dev.write_u64(addr, i as u64);
                dev.persist(addr, 8);
            }
        }),
    );
    out.set_layer(
        "nvm.read_u64_ns",
        per_call_ns(probes, || {
            for i in 0..probes {
                black_box(dev.read_u64((i % lines) * 64));
            }
        }),
    );
}

/// `set_root_typed` of a fresh name and `ReadSession::root` of a live
/// one, on a name table sized and filled like a server shard's.
fn name_table(out: &mut Outcome, scale: usize) -> Result<(), String> {
    let (sets, gets) = (ROOT_SETS / scale, ROOT_GETS / scale);
    let heap = Pjh::create(
        NvmDevice::new(NvmConfig::with_size(16 << 20)),
        PjhConfig {
            name_table_capacity: TABLE_CAPACITY,
            ..PjhConfig::default()
        },
    )
    .map_err(|e| format!("probe heap: {e}"))?;
    let handle = HeapHandle::from_pjh(heap);
    let obj = handle
        .txn(|t| t.alloc::<Probe>())
        .map_err(|e| format!("probe alloc: {e}"))?;
    let name = |i: usize| format!("probe-key-{i:06}");
    for i in 0..LIVE_NAMES {
        handle
            .set_root_typed(&name(i), obj)
            .map_err(|e| format!("probe root: {e}"))?;
    }
    let mut set_ns = 0;
    for i in 0..sets {
        let fresh = name(LIVE_NAMES + i);
        let started = Instant::now();
        handle
            .set_root_typed(&fresh, obj)
            .map_err(|e| format!("probe root: {e}"))?;
        set_ns += started.elapsed().as_nanos();
        handle.with_mut(|h| h.remove_root(&fresh));
    }
    out.set_layer("core.root_set_us", set_ns as f64 / sets as f64 / 1e3);
    let names: Vec<String> = (0..LIVE_NAMES).map(name).collect();
    let session = handle.read();
    out.set_layer(
        "core.root_get_ns",
        per_call_ns(gets, || {
            for i in 0..gets {
                black_box(session.root::<Probe>(&names[i % LIVE_NAMES]).ok());
            }
        }),
    );
    Ok(())
}

/// Both directions of the frame codec for a 128-byte SET, in memory.
fn codec(out: &mut Outcome, scale: usize) {
    let probes = CODEC_PROBES / scale;
    let req = Request::Set {
        key: "c0k00042".to_string(),
        value: vec![b'v'; 128],
    };
    let resp = Response::ok(Vec::new());
    out.set_layer(
        "server.codec_ns",
        per_call_ns(probes, || {
            for _ in 0..probes {
                let frame = encode_request(black_box(&req));
                black_box(decode_request(&frame[4..]).ok());
                let frame = encode_response(black_box(&resp));
                black_box(decode_response(&frame[4..]).ok());
            }
        }),
    );
}

/// `quick` runs a fiftieth of every loop (the unit tests' smoke mode).
pub fn run(out: &mut Outcome, quick: bool) -> Result<(), String> {
    let scale = if quick { 50 } else { 1 };
    device(out, scale);
    codec(out, scale);
    name_table(out, scale)
}
