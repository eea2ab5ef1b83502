//! `srv_write` and `srv_read`: an in-process espresso-server driven over
//! loopback TCP by two blocking connections, closed loop.
//!
//! Each connection owns a disjoint key range, so its read-your-writes
//! model is exact: every reply is checked against it, every `SCAN` page
//! is checked for order, bounds and membership, and after the measured
//! phase the server is restarted (the timed `recovery_ms`) and every
//! acknowledged write must still be there.
//!
//! `Pjh::verify_integrity` is not part of this oracle: it walks dead
//! objects too, and on a shard that has collected it reports dead entries
//! whose targets were recycled while every served datum is right
//! (README.md, "Seed observations").

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use espresso::heap::HeapStats;
use espresso::nvm::{LatencyModel, NvmStats};
use espresso_server::client::Client;
use espresso_server::protocol::{
    self, ProtocolError, Request, Response, Status, TxnOp, NUM_FIELDS,
};
use espresso_server::server::{Server, ServerConfig, ServerHandle};
use espresso_workload::{record, Op, Scenario, TxnPart};

use crate::common::{
    add_stats, ms, preload_values, scenario, set_nvm_per_op, set_up_repeatedly, Class, OpLog,
    Outcome, RunArgs,
};
use crate::stats::percentile;
use crate::trace::{mean_ns, self_times, Span, Tracer};

/// Client threads, one connection each (this box has 2 cores, and the
/// in-process server shares them).
pub const CONNS: usize = 2;
/// Connections that preload the keys, set-up only: durable acks coalesce
/// across connections, so eight load about twice as fast as two.
const LOADERS: usize = 8;
/// Page size of every measured `SCAN`.
const SCAN_LIMIT: u32 = 64;
/// Unmeasured ops each connection runs after the preload.
const WARMUP_OPS: usize = 1500;
const PING_PROBES: usize = 2000;
/// Ops per preload transaction (the protocol allows 64).
const PRELOAD_TXN_OPS: usize = 64;
/// How often the measured phase samples the heaps' occupancy.
const OCCUPANCY_SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// One server workload: its scenario (the frozen `ops` is the measured op
/// count per connection) and how often the preload writes every key.
pub struct Workload {
    pub name: &'static str,
    scenario: &'static str,
    /// Reads each connection issues after the measured ops, with no writer
    /// running; they give the workload's read and scan latencies.
    reads_after: Option<&'static str>,
    /// Every round after the first deletes and re-creates every key, which
    /// ages the shards: after eight rounds each has collected about three
    /// times (`gc_cycles_in_setup`), so `srv_write` measures the steady
    /// state, where its op count spans about one collection per shard.
    preload_rounds: usize,
}

/// Writes only while the shards collect: on the seed commit a collection
/// that runs beside a lock-free reader can leave the reader a dangling
/// class word, which panics its connection thread (README.md, "Seed
/// observations"), and a benchmark run may not fail an op. Its reads
/// follow the writes.
pub const SRV_WRITE: Workload = Workload {
    name: "srv_write",
    scenario: include_str!("scenarios/srv_write.json"),
    reads_after: Some(include_str!("scenarios/srv_write_reads.json")),
    preload_rounds: 8,
};

/// `srv_read`'s 20k SETs add up to a fraction of a shard's collection
/// period: on aged heaps a collection would fall inside the phase or just
/// outside it by chance. It runs on fresh heaps, where none does, and its
/// collection counts read 0.
pub const SRV_READ: Workload = Workload {
    name: "srv_read",
    scenario: include_str!("scenarios/srv_read.json"),
    reads_after: None,
    preload_rounds: 1,
};

#[derive(Clone, Default, PartialEq, Debug)]
struct Entry {
    value: Option<Vec<u8>>,
    fields: [u64; NUM_FIELDS],
}

/// One connection with the model of the keys it owns.
struct Conn {
    client: Client,
    /// Key names by index; zero-padded, so index order is name order.
    names: Vec<String>,
    /// Shard each key routes to.
    shard: Vec<u16>,
    model: Vec<Option<Entry>>,
    /// Keys whose state is unknown after a refused or failed write;
    /// checks skip them (and scans, once any exist).
    uncertain: Vec<bool>,
    shards: usize,
}

fn key_name(conn: usize, idx: u32) -> String {
    format!("c{conn}k{idx:05}")
}

impl Conn {
    fn connect(server: &ServerHandle, conn: usize, key_space: u32) -> Result<Conn, String> {
        let names: Vec<String> = (0..key_space).map(|i| key_name(conn, i)).collect();
        let shard = names
            .iter()
            .map(|n| server.heap().shard_of(n) as u16)
            .collect();
        Ok(Conn {
            client: Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?,
            names,
            shard,
            model: vec![None; key_space as usize],
            uncertain: vec![false; key_space as usize],
            shards: server.heap().num_shards(),
        })
    }

    fn any_uncertain(&self) -> bool {
        self.uncertain.contains(&true)
    }

    /// One past this connection's last key name: 'l' sorts right after
    /// the 'k' of every name.
    fn end_bound(&self) -> String {
        self.names[0][..2].to_string() + "l"
    }

    /// The scan an op maps to: `(shard, first index, end index)`. Bounds
    /// stay inside this connection's keys so its model knows the answer.
    fn scan_window(&self, lo: u32, hi: u32) -> (u16, u32, u32) {
        let n = self.names.len() as u32;
        let shard = ((lo as usize + hi as usize) % self.shards) as u16;
        if lo >= n || hi >= n {
            (shard, 0, n)
        } else {
            // The recorder orders bounds by its own key names, not by index.
            (shard, lo.min(hi), lo.max(hi))
        }
    }

    fn request_for(&self, op: &Op) -> Request {
        let name = |k: &u32| self.names[*k as usize].clone();
        match op {
            Op::Get(k) => Request::Get { key: name(k) },
            Op::Set(k, v) => Request::Set {
                key: name(k),
                value: v.clone(),
            },
            Op::Del(k) => Request::Del { key: name(k) },
            Op::FGet(k, i) => Request::FGet {
                key: name(k),
                index: *i,
            },
            Op::FSet(k, i, v) => Request::FSet {
                key: name(k),
                index: *i,
                value: *v,
            },
            Op::Txn(k, parts) => Request::Txn {
                ops: parts
                    .iter()
                    .map(|p| match p {
                        TxnPart::Set(v) => TxnOp::Set {
                            key: name(k),
                            value: v.clone(),
                        },
                        TxnPart::Del => TxnOp::Del { key: name(k) },
                        TxnPart::FSet(i, v) => TxnOp::FSet {
                            key: name(k),
                            index: *i,
                            value: *v,
                        },
                    })
                    .collect(),
            },
            Op::Scan(lo, hi, _) => {
                let (shard, first, end) = self.scan_window(*lo, *hi);
                Request::Scan {
                    shard,
                    start: self.names[first as usize].clone(),
                    end: self
                        .names
                        .get(end as usize)
                        .cloned()
                        .unwrap_or_else(|| self.end_bound()),
                    limit: SCAN_LIMIT,
                }
            }
            Op::Commit => Request::Ping,
        }
    }

    /// One timed round trip, then (untimed) the reply check and the model
    /// update.
    fn exec(&mut self, op: &Op, tracer: &Tracer, origin: Instant, log: Option<&mut OpLog>) -> bool {
        let class = match op {
            Op::Get(_) | Op::FGet(..) => Class::Read,
            Op::Scan(..) => Class::Scan,
            _ => Class::Write,
        };
        tracer.next_request();
        let started = Instant::now();
        let reply = tracer.span("server.request", || {
            let req = self.request_for(op);
            tracer.span("client.send", || self.client.send(&req))?;
            tracer.span("client.recv", || self.client.recv())
        });
        let ended = Instant::now();
        let verdict = self.check(op, reply);
        let ok = verdict.is_ok();
        if let Some(log) = log {
            log.record(class, origin, started, ended);
            if let Err(why) = verdict {
                log.fail(|| why);
            }
        }
        ok
    }

    fn mark_uncertain(&mut self, op: &Op) {
        if let Op::Set(k, _) | Op::Del(k) | Op::FSet(k, ..) | Op::Txn(k, _) = op {
            self.uncertain[*k as usize] = true;
        }
    }

    fn check(&mut self, op: &Op, reply: Result<Response, ProtocolError>) -> Result<(), String> {
        let resp = match reply {
            Ok(r) if matches!(r.status, Status::Ok | Status::NotFound) => r,
            Ok(r) => {
                self.mark_uncertain(op);
                return Err(format!(
                    "{op:?}: server answered {:?} {}",
                    r.status,
                    String::from_utf8_lossy(&r.payload)
                ));
            }
            Err(e) => {
                self.mark_uncertain(op);
                return Err(format!("{op:?}: {e}"));
            }
        };
        let found = resp.status == Status::Ok;
        match op {
            Op::Get(k) => {
                let want = self.model[*k as usize]
                    .as_ref()
                    .and_then(|e| e.value.as_ref());
                let got = found.then_some(&resp.payload);
                if !self.uncertain[*k as usize] && want != got {
                    return Err(format!(
                        "GET {}: value differs from the model",
                        self.names[*k as usize]
                    ));
                }
            }
            Op::FGet(k, i) => {
                let want = self.model[*k as usize]
                    .as_ref()
                    .map(|e| e.fields[*i as usize].to_be_bytes().to_vec());
                let got = found.then_some(resp.payload);
                if !self.uncertain[*k as usize] && want != got {
                    return Err(format!(
                        "FGET {} {i}: field differs from the model",
                        self.names[*k as usize]
                    ));
                }
            }
            Op::Set(k, v) => {
                self.model[*k as usize]
                    .get_or_insert_with(Entry::default)
                    .value = Some(v.clone());
            }
            Op::FSet(k, i, v) => {
                self.model[*k as usize]
                    .get_or_insert_with(Entry::default)
                    .fields[*i as usize] = *v;
            }
            Op::Del(k) => {
                let existed = self.model[*k as usize].take().is_some();
                if !self.uncertain[*k as usize] && existed != found {
                    return Err(format!(
                        "DEL {}: existed={existed} but found={found}",
                        self.names[*k as usize]
                    ));
                }
            }
            Op::Txn(k, parts) => {
                let slot = &mut self.model[*k as usize];
                for part in parts {
                    match part {
                        TxnPart::Set(v) => {
                            slot.get_or_insert_with(Entry::default).value = Some(v.clone())
                        }
                        TxnPart::FSet(i, v) => {
                            slot.get_or_insert_with(Entry::default).fields[*i as usize] = *v
                        }
                        TxnPart::Del => *slot = None,
                    }
                }
            }
            Op::Scan(lo, hi, _) => {
                let (shard, first, end) = self.scan_window(*lo, *hi);
                let (truncated, items) = protocol::decode_scan_items(&resp.payload)
                    .map_err(|e| format!("SCAN page does not decode: {e}"))?;
                if !self.any_uncertain() {
                    self.check_page(shard, first, end, SCAN_LIMIT as usize, truncated, &items)?;
                }
            }
            Op::Commit => {}
        }
        Ok(())
    }

    /// A page must hold exactly the first `limit` valued keys of the
    /// window that live on `shard`, in name order, and say whether more
    /// follow.
    fn check_page(
        &self,
        shard: u16,
        first: u32,
        end: u32,
        limit: usize,
        truncated: bool,
        items: &[protocol::ScanItem],
    ) -> Result<(), String> {
        let mut want = (first..end)
            .filter(|&i| self.shard[i as usize] == shard)
            .filter_map(|i| {
                let value = self.model[i as usize].as_ref()?.value.as_ref()?;
                Some((&self.names[i as usize], value))
            });
        for (n, (key, value)) in items.iter().enumerate() {
            match want.next() {
                Some((k, v)) if k == key && v == value => {}
                other => {
                    return Err(format!(
                    "SCAN shard {shard} [{first},{end}): item {n} is {key:?}, model expects {:?}",
                    other.map(|(k, _)| k)
                ))
                }
            }
        }
        let more = want.next().is_some();
        if items.len() > limit || (more && items.len() < limit) || truncated != more {
            return Err(format!(
                "SCAN shard {shard} [{first},{end}): {} items, truncated={truncated}, model has more={more}",
                items.len()
            ));
        }
        Ok(())
    }

    /// Reads every key back and pages through every shard: the whole
    /// model against the whole served state. Returns the mismatch count.
    fn verify_all(&mut self, notes: &mut Vec<String>) -> u64 {
        let mut bad = 0;
        let off = Tracer::off();
        for k in 0..self.names.len() as u32 {
            for op in [Op::Get(k), Op::FGet(k, (k % NUM_FIELDS as u32) as u8)] {
                if !self.exec(&op, &off, Instant::now(), None) {
                    bad += 1;
                    if notes.len() < 8 {
                        notes.push(format!(
                            "final read-back of {} failed",
                            self.names[k as usize]
                        ));
                    }
                }
            }
        }
        if self.any_uncertain() {
            return bad;
        }
        let n = self.names.len() as u32;
        for shard in 0..self.shards as u16 {
            let mut first = 0;
            while first < n {
                let page =
                    self.client
                        .scan(shard, &self.names[first as usize], &self.end_bound(), 256);
                let verdict = match page {
                    Ok(page) => self
                        .check_page(shard, first, n, 256, page.truncated, &page.items)
                        .map(|()| page),
                    Err(e) => Err(format!("final SCAN of shard {shard}: {e}")),
                };
                match verdict {
                    Ok(page) if page.truncated => {
                        let last = &page.items.last().expect("a truncated page has items").0;
                        first = self
                            .names
                            .iter()
                            .position(|name| name == last)
                            .expect("own key") as u32
                            + 1;
                    }
                    Ok(_) => break,
                    Err(why) => {
                        bad += 1;
                        if notes.len() < 8 {
                            notes.push(why);
                        }
                        break;
                    }
                }
            }
        }
        bad
    }

    fn live_user_bytes(&self) -> u64 {
        self.model
            .iter()
            .zip(&self.names)
            .filter_map(|(e, name)| {
                let e = e.as_ref()?;
                Some((name.len() + e.value.as_ref().map_or(0, Vec::len)) as u64)
            })
            .sum()
    }
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        dir: Some(dir.to_path_buf()),
        max_pending: 1 << 20,
        commit_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    }
}

/// A running server, stopped and waited for when dropped: no error path
/// leaves its threads behind.
struct Served(Option<ServerHandle>);

impl std::ops::Deref for Served {
    type Target = ServerHandle;
    fn deref(&self) -> &ServerHandle {
        self.0.as_ref().expect("running until dropped")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.stop_and_wait();
        }
    }
}

fn start(dir: &Path) -> Result<Served, String> {
    let server = Served(Some(
        Server::start(config(dir)).map_err(|e| format!("server start: {e}"))?,
    ));
    // Accounting only: the model never sleeps, it just adds up `sim_ns`.
    for i in 0..server.heap().num_shards() {
        server
            .heap()
            .handle(i)
            .with(|p| p.device().set_latency(LatencyModel::nvm()));
    }
    Ok(server)
}

/// Bytes in regions that are not free, over all shards.
fn used_bytes(server: &ServerHandle, region_size: usize) -> u64 {
    let s = server.heap().heap_stats();
    ((s.total_regions - s.free_regions) * region_size) as u64
}

fn device_stats(server: &ServerHandle) -> NvmStats {
    (0..server.heap().num_shards()).fold(NvmStats::default(), |acc, i| {
        add_stats(&acc, &server.heap().handle(i).with(|p| p.device().stats()))
    })
}

/// `key=value` pairs of a `STATS` reply (several per line on shard rows).
fn parse_stats(text: &str) -> Vec<(String, f64)> {
    text.split_whitespace()
        .filter_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn stat(stats: &[(String, f64)], key: &str) -> f64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |(_, v)| *v)
}

fn stat_sum(stats: &[(String, f64)], suffix: &str) -> f64 {
    stats
        .iter()
        .filter(|(k, _)| k.starts_with("shard") && k.ends_with(suffix))
        .map(|(_, v)| *v)
        .sum()
}

struct Counters {
    nvm: NvmStats,
    heap: HeapStats,
    stats: Vec<(String, f64)>,
}

fn counters(server: &ServerHandle, control: &mut Client) -> Result<Counters, String> {
    Ok(Counters {
        nvm: device_stats(server),
        heap: server.heap().heap_stats(),
        stats: parse_stats(&control.stats().map_err(|e| format!("STATS: {e}"))?),
    })
}

/// Server creation + preload + warm-up; returns the connections, each
/// positioned after its warm-up ops.
fn set_up(
    dir: &Path,
    w: &Workload,
    sc: &Scenario,
    traces: &[Vec<Op>],
    warmup: usize,
    args: &RunArgs,
) -> Result<(Served, Vec<Conn>), String> {
    let server = start(dir)?;
    let mut conns = (0..CONNS)
        .map(|c| Conn::connect(&server, c, sc.key_space))
        .collect::<Result<Vec<Conn>, String>>()?;
    // values[round][connection][key]; the last round is what stays.
    let rounds = if args.quick { 2 } else { w.preload_rounds };
    let values: Vec<Vec<Vec<Vec<u8>>>> = (0..rounds.min(w.preload_rounds) as u64)
        .map(|round| {
            (0..CONNS as u64)
                .map(|c| {
                    let seed = args.seed ^ (0xABCD + c + (round << 16));
                    preload_values(sc, u64::from(sc.key_space), seed)
                })
                .collect()
        })
        .collect();
    // Loader `l` writes every LOADERS-th key, round after round.
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..LOADERS)
            .map(|l| {
                let (server, conns, values) = (&server, &conns, &values);
                scope.spawn(move || -> Result<(), String> {
                    let mut client =
                        Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
                    for (n, round) in values.iter().enumerate() {
                        let keys = round.iter().zip(conns).flat_map(|(vs, conn)| {
                            let keys = conn.names.iter().zip(&conn.shard).zip(vs);
                            keys.skip(l).step_by(LOADERS)
                        });
                        // One transaction per batch of keys of one shard.
                        let mut by_shard: Vec<Vec<TxnOp>> = vec![Vec::new(); conns[0].shards];
                        for ((name, &shard), value) in keys {
                            let batch = &mut by_shard[shard as usize];
                            if n > 0 {
                                batch.push(TxnOp::Del { key: name.clone() });
                            }
                            batch.push(TxnOp::Set {
                                key: name.clone(),
                                value: value.clone(),
                            });
                            if batch.len() + 2 > PRELOAD_TXN_OPS {
                                client
                                    .txn(std::mem::take(batch))
                                    .map_err(|e| format!("preload: {e}"))?;
                            }
                        }
                        for batch in by_shard.into_iter().filter(|b| !b.is_empty()) {
                            client.txn(batch).map_err(|e| format!("preload: {e}"))?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("loader thread panicked"))
    })?;
    let last = values.into_iter().next_back().expect("at least one round");
    for (conn, vs) in conns.iter_mut().zip(last) {
        for (slot, value) in conn.model.iter_mut().zip(vs) {
            *slot = Some(Entry {
                value: Some(value),
                ..Entry::default()
            });
        }
    }
    std::thread::scope(|scope| {
        for (conn, trace) in conns.iter_mut().zip(traces) {
            scope.spawn(move || {
                let off = Tracer::off();
                for op in &trace[..warmup] {
                    conn.exec(op, &off, Instant::now(), None);
                }
            });
        }
    });
    Ok((server, conns))
}

/// What the measured phase produced, connections merged.
struct Measured {
    conns: Vec<Conn>,
    log: OpLog,
    spans: Vec<Span>,
    /// The writes that waited for a collection (traced runs): how many
    /// ops their connection had completed, and how long they took.
    stalls: Vec<(u64, f64)>,
    measured_ns: u64,
    /// The cap ended the phase before the traces did.
    truncated: bool,
    /// Mean of the occupancy samples taken during the phase: one value
    /// for a sawtooth that a single reading would catch anywhere.
    mean_used_bytes: f64,
}

/// Both connections replay their trace to its end, closed loop.
fn measure(
    server: &Served,
    conns: Vec<Conn>,
    traces: &[Vec<Op>],
    warmup: usize,
    args: &RunArgs,
) -> Measured {
    let origin = Instant::now();
    let cap = Duration::from_secs_f64(args.seconds);
    let measuring = AtomicBool::new(true);
    let region_size = server.heap().handle(0).with(|p| p.layout().region_size);
    type Worked = (Conn, OpLog, Vec<Span>, Vec<(u64, f64)>);
    let (results, used): (Vec<Worked>, Vec<u64>) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut used = Vec::new();
            while measuring.load(Ordering::Relaxed) {
                used.push(used_bytes(server, region_size));
                std::thread::sleep(OCCUPANCY_SAMPLE_EVERY);
            }
            used
        });
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let trace = &traces[c];
                scope.spawn(move || {
                    let tracer = Tracer::new(args.trace, origin, c as u32 + 1);
                    let mut log = OpLog::default();
                    let mut stalls = Vec::new();
                    for op in &trace[warmup..] {
                        if origin.elapsed() >= cap {
                            break;
                        }
                        // A write across which the shard's collection
                        // count advanced waited for that collection.
                        let watch = match op {
                            Op::Set(k, _) | Op::Del(k) | Op::FSet(k, ..) | Op::Txn(k, _)
                                if args.trace =>
                            {
                                Some(server.heap().handle(conn.shard[*k as usize] as usize))
                            }
                            _ => None,
                        };
                        let gcs = watch.map(|h| h.with(|p| p.gc_count()));
                        conn.exec(op, &tracer, origin, Some(&mut log));
                        if let (Some(h), Some(gcs)) = (watch, gcs) {
                            if h.with(|p| p.gc_count()) > gcs {
                                let lat = log.lat_ns[Class::Write as usize].last();
                                let lat_ms = *lat.expect("just recorded") as f64 / 1e6;
                                stalls.push((log.ops(), lat_ms));
                            }
                        }
                    }
                    (conn, log, tracer.into_spans(), stalls)
                })
            })
            .collect();
        let results = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        measuring.store(false, Ordering::Relaxed);
        (results, sampler.join().expect("sampler thread panicked"))
    });
    let mut m = Measured {
        conns: Vec::new(),
        log: OpLog::default(),
        spans: Vec::new(),
        stalls: Vec::new(),
        measured_ns: origin.elapsed().as_nanos() as u64,
        truncated: false,
        mean_used_bytes: used.iter().sum::<u64>() as f64 / used.len() as f64,
    };
    let planned: usize = traces.iter().map(|t| t.len() - warmup).sum();
    for (conn, log, spans, stalls) in results {
        m.conns.push(conn);
        m.log.merge(log);
        m.spans.extend(spans);
        m.stalls.extend(stalls);
    }
    m.truncated = (m.log.ops() as usize) < planned;
    m
}

/// Every connection replays `traces` (reads and scans only) with no writer
/// beside it. Returns the latencies, failures and notes; completion times
/// are not kept, so the throughput windows stay those of the measured ops.
fn reads_after(conns: &mut [Conn], traces: &[Vec<Op>]) -> OpLog {
    let origin = Instant::now();
    let logs: Vec<OpLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(traces)
            .map(|(conn, trace)| {
                scope.spawn(move || {
                    let off = Tracer::off();
                    let mut log = OpLog::default();
                    for op in trace {
                        conn.exec(op, &off, origin, Some(&mut log));
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = OpLog::default();
    for log in logs {
        all.merge(log);
    }
    all
}

/// Timed restarts on the stopped server's directory. After the first,
/// every connection's model is read back: an acknowledged write that did
/// not survive counts as a failure.
fn restarts(
    dir: &Path,
    models: &[(Vec<Option<Entry>>, Vec<bool>)],
    args: &RunArgs,
    notes: &mut Vec<String>,
) -> Result<(Vec<f64>, u64), String> {
    let mut restart_ms = Vec::new();
    let mut lost = 0;
    for rep in 0..args.recovery_reps() {
        let started = Instant::now();
        let server = start(dir)?;
        restart_ms.push(ms(started.elapsed()));
        if rep > 0 {
            continue;
        }
        for (c, (model, uncertain)) in models.iter().enumerate() {
            let mut conn = Conn::connect(&server, c, model.len() as u32)?;
            conn.model = model.clone();
            conn.uncertain = uncertain.clone();
            let missing = conn.verify_all(notes);
            if missing > 0 {
                notes.push(format!(
                    "{missing} acknowledged writes of connection {c} did not survive the restart"
                ));
            }
            lost += missing;
        }
    }
    Ok((restart_ms, lost))
}

/// Runs one server workload.
pub fn run(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let name = w.name;
    let sc = scenario(w.scenario, args, 0);
    let warmup = if args.quick {
        WARMUP_OPS / 10
    } else {
        WARMUP_OPS
    };
    // Each connection's trace: its warm-up ops, then the measured ones.
    let traces: Vec<Vec<Op>> = (0..CONNS as u64)
        .map(|c| {
            let mut sc = scenario(w.scenario, args, c);
            sc.ops += warmup as u64;
            let mut ops = record(&sc).ops;
            ops.retain(|op| *op != Op::Commit);
            ops
        })
        .collect();
    let dir_of = |rep: usize| args.dir.join(format!("{name}-{rep}"));
    let ((server, conns), setup_s) = set_up_repeatedly(args.setup_reps(), |rep| {
        set_up(&dir_of(rep), w, &sc, &traces, warmup, args)
    })?;
    let mut control = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;

    let before = counters(&server, &mut control)?;
    let mut m = measure(&server, conns, &traces, warmup, args);
    let after = counters(&server, &mut control)?;

    let mut out = Outcome::new(name, args.seed);
    let ops = m.log.ops();
    let mut reads_done = 0;
    if let Some(text) = w.reads_after {
        let traces: Vec<Vec<Op>> = (0..CONNS as u64)
            .map(|c| {
                let mut ops = record(&scenario(text, args, c)).ops;
                ops.retain(|op| *op != Op::Commit);
                ops
            })
            .collect();
        let reads = reads_after(&mut m.conns, &traces);
        reads_done = reads.ops();
        m.log.lat_ns[Class::Read as usize] = reads.lat_ns[Class::Read as usize].clone();
        m.log.lat_ns[Class::Scan as usize] = reads.lat_ns[Class::Scan as usize].clone();
        m.log.failed += reads.failed;
        m.log.notes.extend(reads.notes);
    }
    out.notes.append(&mut m.log.notes);

    // PING floor, measured on the idle server over the same socket path.
    let mut pings: Vec<u64> = Vec::new();
    if args.trace {
        for _ in 0..PING_PROBES / if args.quick { 20 } else { 1 } {
            let t = Instant::now();
            control.ping().map_err(|e| format!("PING: {e}"))?;
            pings.push(t.elapsed().as_nanos() as u64);
        }
        pings.sort_unstable();
    }

    // The whole model against the whole served state, then durability:
    // restart the server and check every acknowledged write again.
    let mut check_failures = 0;
    for conn in &mut m.conns {
        check_failures += conn.verify_all(&mut out.notes);
    }
    let user_bytes: u64 = m.conns.iter().map(Conn::live_user_bytes).sum();
    let models: Vec<_> = m.conns.drain(..).map(|c| (c.model, c.uncertain)).collect();
    drop(control);
    drop(server);
    let (restart_ms, lost) = restarts(
        &dir_of(args.setup_reps() - 1),
        &models,
        args,
        &mut out.notes,
    )?;
    check_failures += lost;
    out.attempted = ops + reads_done + check_failures;
    out.failed = m.log.failed + check_failures;

    let nvm = after.nvm.since(&before.nvm);
    let gc_cycles = after.heap.gc_count - before.heap.gc_count;
    out.set_latencies(&mut m.log, m.measured_ns, None);
    out.set_recovery(&restart_ms);
    out.set_e2e(
        "flushes_per_op",
        nvm.line_flushes as f64 / ops.max(1) as f64,
    );
    out.set_e2e(
        "heap_bytes_per_user_byte",
        m.mean_used_bytes / user_bytes.max(1) as f64,
    );
    out.set_e2e("setup_s", setup_s);
    out.info("gc_cycles_in_setup", before.heap.gc_count as f64);
    out.info("gc_cycles", gc_cycles as f64);
    out.info("connections", CONNS as f64);
    out.info("truncated", f64::from(u8::from(m.truncated)));

    if args.trace {
        set_nvm_per_op(&mut out, &nvm, ops);
        let d = |key: &str| stat(&after.stats, key) - stat(&before.stats, key);
        let acked = d("group_acked");
        let seals = stat_sum(&after.stats, ".sealed") - stat_sum(&before.stats, ".sealed");
        out.set_layer(
            "server.group_cohort_size",
            acked / d("group_drains").max(1.0),
        );
        out.set_layer("server.seals_per_write", seals / acked.max(1.0));
        out.set_layer("server.busy", d("busy"));
        out.set_layer("server.errors", d("errors"));
        let ping_p50 = percentile(&pings, 50.0) as f64 / 1e3;
        let p50 = |name: &str| out.e2e_value(name).unwrap_or(0.0);
        let (write_p50, read_p50) = (p50("write_p50_us"), p50("read_p50_us"));
        out.set_layer("server.ping_rtt_us", ping_p50);
        out.set_layer("server.write_minus_ping_us", write_p50 - ping_p50);
        out.set_layer("server.read_minus_ping_us", read_p50 - ping_p50);
        let full_cycles = after.heap.gc_full_count - before.heap.gc_full_count;
        let stalls_ms: Vec<f64> = m.stalls.iter().map(|s| s.1).collect();
        out.set_gc_layers(gc_cycles, full_cycles, &stalls_ms);
        // Where in a connection's op stream the collections fell: they
        // must stay clear of both ends for the counts to repeat.
        if let (Some(first), Some(last)) = (
            m.stalls.iter().map(|s| s.0).min(),
            m.stalls.iter().map(|s| s.0).max(),
        ) {
            out.info("gc_first_at_op", first as f64);
            out.info("gc_last_at_op", last as f64);
        }
        let reused = (after.heap.reused_slots - before.heap.reused_slots) as f64;
        out.set_layer("core.alloc_reuse_ratio", reused / acked.max(1.0));
        let totals = self_times(&m.spans);
        out.info("client_send_mean_ns", mean_ns(&totals, "client.send"));
        out.info("client_recv_mean_ns", mean_ns(&totals, "client.recv"));
        crate::write_span_file(args, name, &m.spans)?;
    }
    Ok(out)
}
