//! `emb_oltp` and `emb_recover`: one thread on one `HeapHandle`, rows
//! behind an `IndexedHeap` — no sockets, no group commit.
//!
//! A `BTreeMap` model shadows every row. Point reads and scans are
//! checked against it as they happen; at the end (and after every
//! recovery) the whole tree is compared with it, with a heap walk, and
//! `verify_integrity` runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use espresso::heap::{
    Fld, HeapHandle, HeapManager, LoadOptions, PRef, Pjh, PjhConfig, SafetyLevel, StrFld,
};
use espresso::nvm::{LatencyModel, NvmDevice, NvmStats};
use espresso_index::{IndexedHeap, Key};
use espresso_object::{PObject, Schema};
use espresso_workload::{record, Op};

use crate::common::{
    add_stats, ms, preload_values, scenario, set_nvm_per_op, set_up_repeatedly, Class, OpLog,
    Outcome, RunArgs,
};
use crate::stats::median;
use crate::trace::{mean_ns, self_times, Span, Tracer};

pub const EMB_OLTP: &str = include_str!("scenarios/emb_oltp.json");
pub const EMB_RECOVER: &str = include_str!("scenarios/emb_recover.json");

const HEAP: &str = "rows";
const INDEX: &str = "rows.by_id";
/// Rows loaded before anything is measured.
const PRELOAD_ROWS: u64 = 20_000;
const HEAP_BYTES: usize = 64 << 20;
/// Rows one measured range scan returns.
const SCAN_ROWS: usize = 100;
/// `commit_sync` cadence of `emb_oltp`, in ops.
const COMMIT_EVERY: u64 = 64;
/// `emb_recover`: acknowledged writes, then unacknowledged writes, per
/// crash cycle.
const BURST_OPS: usize = 2000;
const TAIL_OPS: usize = 500;
/// `emb_recover`: timed reads and scans after each recovery.
const READS_AFTER_LOAD: usize = 400;
const SCANS_AFTER_LOAD: usize = 20;

struct Row;

impl PObject for Row {
    const CLASS_NAME: &'static str = "e2e.Row";
    fn schema() -> Schema {
        Schema::builder(Self::CLASS_NAME)
            .u64_field("id")
            .u64_field("bal")
            .str_field("payload")
            .build()
    }
}

#[derive(Clone, PartialEq, Debug)]
struct RowModel {
    bal: u64,
    payload: String,
}

/// The heap under test with its shadow model.
struct Store {
    rows: IndexedHeap<Row>,
    f_id: Fld<Row, u64>,
    f_bal: Fld<Row, u64>,
    f_payload: StrFld<Row>,
    model: BTreeMap<u64, RowModel>,
    /// Live ids in a pick-friendly order: op keys index into it.
    live: Vec<u64>,
    next_id: u64,
    /// Live key + payload bytes, kept in step with the model.
    user_bytes: u64,
}

/// Row ids: a bijection of the creation counter, so inserts land all
/// over the tree instead of on its right edge.
fn row_id(counter: u64) -> u64 {
    counter.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn payload_of(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("generated values are ASCII")
}

impl Store {
    fn wrap(handle: HeapHandle, create: bool) -> Result<Store, String> {
        // Accounting only: the model never sleeps, it just adds up `sim_ns`.
        handle.with(|p| p.device().set_latency(LatencyModel::nvm()));
        let mut rows = IndexedHeap::<Row>::open(handle).map_err(|e| format!("open rows: {e}"))?;
        if create {
            rows.create_index(INDEX, "id")
        } else {
            rows.open_index(INDEX)
        }
        .map_err(|e| format!("index: {e}"))?;
        let class = rows.class();
        Ok(Store {
            f_id: class.field("id").expect("declared"),
            f_bal: class.field("bal").expect("declared"),
            f_payload: class.str_field("payload").expect("declared"),
            rows,
            model: BTreeMap::new(),
            live: Vec::new(),
            next_id: 0,
            user_bytes: 0,
        })
    }

    fn handle(&self) -> &HeapHandle {
        self.rows.handle()
    }

    fn device_stats(&self) -> NvmStats {
        self.handle().with(|p| p.device().stats())
    }

    fn used_bytes(&self) -> usize {
        self.handle().with(|p| {
            let s = p.heap_stats();
            (s.total_regions - s.free_regions) * p.layout().region_size
        })
    }

    /// Collections never move the index's notion of a row, only its
    /// address: every op re-finds its row through the index.
    fn find(&self, p: &Pjh, id: u64) -> Option<PRef<Row>> {
        let idx = self.rows.index(INDEX).expect("opened");
        idx.get(p, &Key::U64(id)).ok()?.next().map(|(_, r)| r)
    }

    fn create(&mut self, tracer: &Tracer, bal: u64, payload: &str) -> Result<(), String> {
        let id = row_id(self.next_id);
        self.next_id += 1;
        let (f_id, f_bal, f_payload) = (self.f_id, self.f_bal, self.f_payload);
        tracer
            .span("core.txn", || {
                self.rows.create_object(|t, row| {
                    t.set(row, f_id, id);
                    t.set(row, f_bal, bal);
                    tracer.span("core.alloc", || t.set_str(row, f_payload, payload))
                })
            })
            .map_err(|e| format!("create {id}: {e}"))?;
        self.model.insert(
            id,
            RowModel {
                bal,
                payload: payload.to_string(),
            },
        );
        self.live.push(id);
        self.user_bytes += 8 + payload.len() as u64;
        Ok(())
    }

    fn update(&mut self, tracer: &Tracer, pick: u32, bal: u64) -> Result<(), String> {
        let id = self.live[pick as usize % self.live.len()];
        let row = tracer
            .span("index.get", || self.handle().with(|p| self.find(p, id)))
            .ok_or_else(|| format!("update: row {id} is not in the index"))?;
        tracer
            .span("core.txn", || self.rows.put_u64(row, self.f_bal, bal))
            .map_err(|e| format!("update {id}: {e}"))?;
        self.model.get_mut(&id).expect("live row").bal = bal;
        Ok(())
    }

    fn remove(&mut self, tracer: &Tracer, pick: u32) -> Result<(), String> {
        let at = pick as usize % self.live.len();
        let id = self.live[at];
        let row = tracer
            .span("index.get", || self.handle().with(|p| self.find(p, id)))
            .ok_or_else(|| format!("remove: row {id} is not in the index"))?;
        tracer
            .span("core.txn", || self.rows.remove_object(row))
            .map_err(|e| format!("remove {id}: {e}"))?;
        self.live.swap_remove(at);
        let gone = self.model.remove(&id).expect("live row");
        self.user_bytes -= 8 + gone.payload.len() as u64;
        Ok(())
    }

    /// Index point-get in a read session, the row read back and checked.
    fn read(&self, tracer: &Tracer, pick: u32) -> Result<(), String> {
        let id = self.live[pick as usize % self.live.len()];
        let session = tracer.span("core.read_session", || self.rows.read());
        let row = tracer
            .span("index.get", || self.find(&session, id))
            .ok_or_else(|| format!("read: row {id} is not in the index"))?;
        let got = RowModel {
            bal: session.get(row, self.f_bal),
            payload: session.get_str(row, self.f_payload).unwrap_or_default(),
        };
        if session.get(row, self.f_id) != id || Some(&got) != self.model.get(&id) {
            return Err(format!("read: row {id} differs from the model"));
        }
        Ok(())
    }

    /// One ascending range of up to [`SCAN_ROWS`] rows from a live id.
    fn scan(&self, tracer: &Tracer, pick: u32) -> Result<usize, String> {
        let from = self.live[pick as usize % self.live.len()];
        let session = tracer.span("core.read_session", || self.rows.read());
        let idx = self.rows.index(INDEX).expect("opened");
        let got: Vec<u64> = tracer.span("index.range", || {
            idx.range(&session, Key::U64(from)..)
                .map(|it| {
                    it.take(SCAN_ROWS)
                        .map(|(k, _)| match k {
                            Key::U64(id) => id,
                            _ => u64::MAX,
                        })
                        .collect()
                })
                .unwrap_or_default()
        });
        let want: Vec<u64> = self
            .model
            .range(from..)
            .take(SCAN_ROWS)
            .map(|(k, _)| *k)
            .collect();
        if got != want {
            return Err(format!(
                "scan from {from}: {} rows, model has {}",
                got.len(),
                want.len()
            ));
        }
        Ok(got.len())
    }

    /// Applies one trace op; returns its class.
    fn apply(&mut self, op: &Op, tracer: &Tracer) -> (Class, Result<(), String>) {
        match op {
            Op::Get(k) | Op::FGet(k, _) => (Class::Read, self.read(tracer, *k)),
            Op::Scan(k, ..) => (Class::Scan, self.scan(tracer, *k).map(|_| ())),
            Op::FSet(k, _, v) => (Class::Write, self.update(tracer, *k, *v)),
            Op::Set(_, v) => (
                Class::Write,
                self.create(tracer, v.len() as u64, payload_of(v)),
            ),
            Op::Del(k) => (Class::Write, self.remove(tracer, *k)),
            Op::Txn(..) | Op::Commit => (Class::Write, Ok(())),
        }
    }

    /// The whole tree against the model and against a heap walk, every
    /// row's fields, and the heap's own integrity check.
    fn verify(&self, notes: &mut Vec<String>) -> u64 {
        let idx = self.rows.index(INDEX).expect("opened");
        let mut bad = 0;
        let mut note = |why: String| {
            bad += 1;
            if notes.len() < 8 {
                notes.push(why);
            }
        };
        self.handle().with(|p| {
            match idx.tree_entries(p) {
                Ok(tree) => {
                    let ids: Vec<u64> = tree
                        .iter()
                        .map(|(k, _)| if let Key::U64(id) = k { *id } else { u64::MAX })
                        .collect();
                    if !ids.iter().eq(self.model.keys()) {
                        note(format!(
                            "tree holds {} ids, model {}",
                            ids.len(),
                            self.model.len()
                        ));
                    }
                    if tree != idx.heap_walk(p) {
                        note("tree entries differ from the heap walk".to_string());
                    }
                    for (k, r) in &tree {
                        let row = PRef::<Row>::from_raw_unchecked(*r);
                        let Key::U64(id) = k else { continue };
                        let got = RowModel {
                            bal: p.get(row, self.f_bal),
                            payload: p.get_str(row, self.f_payload).unwrap_or_default(),
                        };
                        if self.model.get(id) != Some(&got) {
                            note(format!("row {id} differs from the model"));
                        }
                    }
                }
                Err(e) => note(format!("tree walk: {e}")),
            }
            if let Err(why) = p.verify_integrity() {
                note(format!("integrity: {why}"));
            }
        });
        bad
    }
}

fn heap_bytes(args: &RunArgs) -> usize {
    if args.quick {
        HEAP_BYTES / 12
    } else {
        HEAP_BYTES
    }
}

fn preload_rows(args: &RunArgs) -> u64 {
    if args.quick {
        PRELOAD_ROWS / 20
    } else {
        PRELOAD_ROWS
    }
}

/// Collections the warm-up waits for: by then the heap has filled and
/// every later write runs against a full heap, as in steady state.
const WARMUP_GC_CYCLES: u64 = 2;
/// Length of the warm-up stream; the collections come long before its end.
const WARMUP_MAX_OPS: u64 = 200_000;

/// Heap creation + preload + warm-up, committed. The warm-up replays a
/// write-only stream (the `emb_recover` mix, its own seed) until the heap
/// has filled: index-maintaining writes cost ~10x more from then on, and
/// that is the state both embedded workloads measure.
fn build(dir: &Path, args: &RunArgs) -> Result<(HeapManager, Store), String> {
    let mut sc = scenario(EMB_RECOVER, args, 1);
    sc.ops = WARMUP_MAX_OPS;
    let mgr = HeapManager::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let handle = mgr
        .create(HEAP, heap_bytes(args), PjhConfig::default())
        .map_err(|e| format!("create heap: {e}"))?;
    let mut store = Store::wrap(handle, true)?;
    let off = Tracer::off();
    for v in preload_values(&sc, preload_rows(args), args.seed ^ 0xE2E) {
        store.create(&off, v.len() as u64, payload_of(&v))?;
    }
    for op in &record(&sc).ops {
        if store.handle().with(|p| p.gc_count()) >= WARMUP_GC_CYCLES {
            break;
        }
        store.apply(op, &off).1?;
    }
    store
        .handle()
        .commit_sync()
        .map_err(|e| format!("commit: {e}"))?;
    Ok((mgr, store))
}

/// Closes the store, then times `reps` loads of its image; the last
/// load's store is returned with the given model.
fn timed_reloads(
    mgr: &HeapManager,
    store: Store,
    reps: usize,
    tracer: &Tracer,
) -> Result<(Store, Vec<f64>), String> {
    let Store {
        rows,
        model,
        live,
        next_id,
        user_bytes,
        ..
    } = store;
    drop(rows);
    let mut times = Vec::new();
    let mut loaded = None;
    for _ in 0..reps {
        drop(loaded.take());
        let started = Instant::now();
        let handle = tracer
            .span("core.load", || mgr.load(HEAP, LoadOptions::default()))
            .map_err(|e| format!("load: {e}"))?;
        times.push(ms(started.elapsed()));
        loaded = Some(handle);
    }
    let mut store = Store::wrap(loaded.expect("at least one load"), false)?;
    store.model = model;
    store.live = live;
    store.next_id = next_id;
    store.user_bytes = user_bytes;
    Ok((store, times))
}

/// Loads the image outside the manager, step by step, for the load
/// layer metrics.
fn load_probes(mgr: &HeapManager, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let path = mgr.dir().join(format!("{HEAP}.pjh"));
    let step = |safety: SafetyLevel| -> Result<(f64, f64), String> {
        let t = Instant::now();
        let dev = tracer
            .span("nvm.load_image", || {
                NvmDevice::load_image(&path, LatencyModel::zero())
            })
            .map_err(|e| format!("load_image: {e}"))?;
        let image_ms = ms(t.elapsed());
        let t = Instant::now();
        let opts = LoadOptions {
            safety,
            ..LoadOptions::default()
        };
        tracer
            .span("core.pjh_load", || Pjh::load(dev, opts).map(|_| ()))
            .map_err(|e| format!("Pjh::load: {e}"))?;
        Ok((image_ms, ms(t.elapsed())))
    };
    let (image_ms, load_ms) = step(SafetyLevel::UserGuaranteed)?;
    let (_, zeroing_ms) = step(SafetyLevel::Zeroing)?;
    out.set_layer("nvm.load_image_ms", image_ms);
    out.set_layer("core.pjh_load_ms", load_ms);
    out.set_layer("core.load_zeroing_ms", zeroing_ms);
    Ok(())
}

/// Layer metrics every embedded run derives from its spans and counters.
fn set_span_layers(out: &mut Outcome, spans: &[Span], rows_scanned: u64) {
    let totals = self_times(spans);
    out.set_layer("core.txn_us", mean_ns(&totals, "core.txn") / 1e3);
    out.set_layer("core.alloc_ns", mean_ns(&totals, "core.alloc"));
    out.set_layer(
        "core.read_session_ns",
        mean_ns(&totals, "core.read_session"),
    );
    out.set_layer(
        "core.commit_seal_us",
        mean_ns(&totals, "core.commit_seal") / 1e3,
    );
    out.set_layer(
        "nvm.pipeline_durable_lag_us",
        mean_ns(&totals, "nvm.pipeline_wait") / 1e3,
    );
    out.set_layer("index.get_ns", mean_ns(&totals, "index.get"));
    out.set_layer("index.insert_us", mean_ns(&totals, "index.insert") / 1e3);
    out.set_layer("index.remove_us", mean_ns(&totals, "index.remove") / 1e3);
    let range_ns = totals.get("index.range").map_or(0, |t| t.total_ns);
    out.set_layer(
        "index.range_row_ns",
        range_ns as f64 / rows_scanned.max(1) as f64,
    );
}

/// The key an op carries, whatever the op.
fn pick_of(op: &Op) -> u32 {
    match op {
        Op::Get(k)
        | Op::Set(k, _)
        | Op::Del(k)
        | Op::FGet(k, _)
        | Op::FSet(k, ..)
        | Op::Txn(k, _)
        | Op::Scan(k, ..) => *k,
        Op::Commit => 0,
    }
}

/// Seals an epoch and waits for it, as two spans.
fn commit(handle: &HeapHandle, tracer: &Tracer) -> Result<(), String> {
    let ticket = tracer
        .span("core.commit_seal", || handle.commit())
        .map_err(|e| format!("commit: {e}"))?;
    tracer
        .span("nvm.pipeline_wait", || ticket.wait())
        .map(|_| ())
        .map_err(|e| format!("commit wait: {e}"))
}

/// Open-coded inserts and removes on the store's heap, so `Index::insert`
/// and `Index::remove` get spans of their own (inside `IndexedHeap` they
/// cannot be seen from outside). Leaves the heap as it found it.
fn index_probes(store: &Store, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    const PROBES: u64 = 256;
    let idx = store.rows.index(INDEX).expect("opened");
    let handle = store.handle();
    let mut insert_flushes = 0;
    for n in 0..PROBES {
        let id = row_id(u64::MAX - n);
        let mut in_insert = 0;
        handle
            .txn(|t| {
                let row = t.alloc::<Row>()?;
                t.set(row, store.f_id, id);
                let at = t.heap().device().stats().line_flushes;
                tracer.span("index.insert", || idx.insert(t, &Key::U64(id), row))?;
                in_insert = t.heap().device().stats().line_flushes - at;
                Ok(())
            })
            .map_err(|e| format!("probe insert: {e}"))?;
        insert_flushes += in_insert;
    }
    for n in 0..PROBES {
        let id = row_id(u64::MAX - n);
        handle
            .txn(|t| {
                let row = store.find(t.heap(), id).expect("probe row");
                tracer
                    .span("index.remove", || idx.remove(t, &Key::U64(id), row))
                    .map(|_| ())
            })
            .map_err(|e| format!("probe remove: {e}"))?;
    }
    out.set_layer(
        "index.insert_flushes",
        insert_flushes as f64 / PROBES as f64,
    );
    Ok(())
}

pub fn run_oltp(args: &RunArgs) -> Result<Outcome, String> {
    let sc = scenario(EMB_OLTP, args, 0);
    let mut ops = record(&sc).ops;
    ops.retain(|op| *op != Op::Commit);

    let ((mgr, mut store), setup_s) = set_up_repeatedly(args.setup_reps(), |rep| {
        build(&args.dir.join(format!("emb_oltp-{rep}")), args)
    })?;
    let gc_in_setup = store.handle().heap_stats();

    let mut out = Outcome::new("emb_oltp", args.seed);
    let origin = Instant::now();
    let tracer = Tracer::new(args.trace, origin, 1);
    let cap = Duration::from_secs_f64(args.seconds);
    let mut log = OpLog::default();
    let before_nvm = store.device_stats();
    let before_heap = store.handle().heap_stats();
    let mut rows_scanned = 0u64;
    let mut stalls_ms: Vec<f64> = Vec::new();
    let mut done = 0u64;
    for op in &ops {
        if origin.elapsed() >= cap {
            break;
        }
        tracer.next_request();
        let gcs = args.trace.then(|| store.handle().with(|p| p.gc_count()));
        let started = Instant::now();
        let (class, verdict) = store.apply(op, &tracer);
        let ended = Instant::now();
        log.record(class, origin, started, ended);
        if let Err(why) = verdict {
            log.fail(|| why);
        }
        if class == Class::Scan {
            rows_scanned += SCAN_ROWS as u64;
        }
        if let Some(gcs) = gcs {
            if class == Class::Write && store.handle().with(|p| p.gc_count()) > gcs {
                stalls_ms.push(ms(ended - started));
            }
        }
        done += 1;
        if done.is_multiple_of(COMMIT_EVERY) {
            commit(store.handle(), &tracer)?;
        }
    }
    commit(store.handle(), &tracer)?;
    let measured_ns = origin.elapsed().as_nanos() as u64;
    let nvm = store.device_stats().since(&before_nvm);
    let after_heap = store.handle().heap_stats();

    out.attempted = done;
    // One thread and seeded ops: over the whole op count these two repeat
    // exactly from run to run of one seed.
    let (used, user) = (store.used_bytes(), store.user_bytes);
    let mut check_failures = store.verify(&mut out.notes);
    if args.trace {
        index_probes(&store, &tracer, &mut out)?;
    }
    let (store, recoveries) = timed_reloads(&mgr, store, args.recovery_reps(), &tracer)?;
    check_failures += store.verify(&mut out.notes);
    out.failed = log.failed + check_failures;
    out.attempted += check_failures;
    out.notes.append(&mut log.notes);

    out.set_latencies(&mut log, measured_ns, None);
    out.set_recovery(&recoveries);
    out.set_e2e(
        "flushes_per_op",
        nvm.line_flushes as f64 / done.max(1) as f64,
    );
    out.set_e2e("heap_bytes_per_user_byte", used as f64 / user.max(1) as f64);
    out.set_e2e("setup_s", setup_s);
    out.info("truncated", f64::from(u8::from(done < ops.len() as u64)));
    out.info("gc_cycles_in_setup", gc_in_setup.gc_count as f64);
    out.info(
        "gc_cycles",
        (after_heap.gc_count - before_heap.gc_count) as f64,
    );
    out.info("threads", 1.0);

    if args.trace {
        set_nvm_per_op(&mut out, &nvm, done);
        out.set_gc_layers(
            after_heap.gc_count - before_heap.gc_count,
            after_heap.gc_full_count - before_heap.gc_full_count,
            &stalls_ms,
        );
        let writes = log.lat_ns[Class::Write as usize].len() as f64;
        out.set_layer(
            "core.alloc_reuse_ratio",
            (after_heap.reused_slots - before_heap.reused_slots) as f64 / writes.max(1.0),
        );
        drop(store);
        load_probes(&mgr, &tracer, &mut out)?;
        let spans = tracer.into_spans();
        set_span_layers(&mut out, &spans, rows_scanned);
        crate::write_span_file(args, "emb_oltp", &spans)?;
    }
    Ok(out)
}

pub fn run_recover(args: &RunArgs) -> Result<Outcome, String> {
    let sc = scenario(EMB_RECOVER, args, 0);
    let mut ops = record(&sc).ops;
    ops.retain(|op| *op != Op::Commit);
    let (burst, tail) = if args.quick {
        (BURST_OPS / 10, TAIL_OPS / 10)
    } else {
        (BURST_OPS, TAIL_OPS)
    };

    let ((mgr, mut store), setup_s) = set_up_repeatedly(args.setup_reps(), |rep| {
        build(&args.dir.join(format!("emb_recover-{rep}")), args)
    })?;

    let mut out = Outcome::new("emb_recover", args.seed);
    let origin = Instant::now();
    let tracer = Tracer::new(args.trace, origin, 1);
    let cap = Duration::from_secs_f64(args.seconds);
    let mut log = OpLog::default();
    let mut burst_rates = Vec::new();
    let mut recoveries = Vec::new();
    let mut nvm_total = NvmStats::default();
    let mut burst_ops = 0u64;
    let mut rows_scanned = 0u64;
    let mut check_failures = 0u64;
    for cycle in ops.chunks_exact(burst + tail) {
        if origin.elapsed() >= cap && !recoveries.is_empty() {
            break;
        }
        // 1. A durable burst: mixed writes, then the durability barrier.
        let before = store.device_stats();
        let burst_started = Instant::now();
        for op in &cycle[..burst] {
            tracer.next_request();
            let started = Instant::now();
            let (class, verdict) = store.apply(op, &tracer);
            log.record(class, origin, started, Instant::now());
            if let Err(why) = verdict {
                log.fail(|| why);
            }
        }
        commit(store.handle(), &tracer)?;
        burst_rates.push(burst as f64 / burst_started.elapsed().as_secs_f64());
        let delta = store.device_stats().since(&before);
        nvm_total = add_stats(&nvm_total, &delta);
        burst_ops += burst as u64;
        let acked = (
            store.model.clone(),
            store.live.clone(),
            store.next_id,
            store.user_bytes,
        );

        // 2. An unacknowledged tail: sealed, never applied to the image.
        store.handle().set_flush_paused(true);
        let off = Tracer::off();
        for op in &cycle[burst..] {
            if let (_, Err(why)) = store.apply(op, &off) {
                log.fail(|| why);
            }
        }
        drop(
            store
                .handle()
                .commit()
                .map_err(|e| format!("seal tail: {e}"))?,
        );

        // 3. The crash: abort while paused (a resumed worker would apply
        //    the queued epoch), resume so nothing hangs, drop every handle.
        store.handle().abort_pending_commits();
        store.handle().set_flush_paused(false);

        // 4. The timed load, back to the acknowledged state.
        (store.model, store.live, store.next_id, store.user_bytes) = acked;
        let (reloaded, times) = timed_reloads(&mgr, store, 1, &tracer)?;
        store = reloaded;
        recoveries.extend(times);

        // 5. Every acknowledged write present, no unacknowledged write
        //    visible, the tree equal to a heap walk; then timed first
        //    reads and scans on the recovered heap.
        check_failures += store.verify(&mut out.notes);
        let picks = cycle.iter().map(pick_of);
        for (n, pick) in picks
            .cycle()
            .take(READS_AFTER_LOAD + SCANS_AFTER_LOAD)
            .enumerate()
        {
            tracer.next_request();
            let started = Instant::now();
            let (class, verdict) = if n < READS_AFTER_LOAD {
                (Class::Read, store.read(&tracer, pick))
            } else {
                rows_scanned += SCAN_ROWS as u64;
                (Class::Scan, store.scan(&tracer, pick).map(|_| ()))
            };
            log.record(class, origin, started, Instant::now());
            if let Err(why) = verdict {
                log.fail(|| why);
            }
        }
    }
    let measured_ns = origin.elapsed().as_nanos() as u64;

    out.attempted = log.ops() + check_failures;
    out.failed = log.failed + check_failures;
    out.notes.append(&mut log.notes);
    // Throughput here is what the recovered heap serves: the timed reads
    // and scans after each load, over the time spent in them. (The burst's
    // own rate follows the seed's free-list state too closely to gate on;
    // it is printed as `burst_ops_per_s`.)
    let served: u64 = log.lat_ns[Class::Read as usize]
        .iter()
        .chain(&log.lat_ns[Class::Scan as usize])
        .sum();
    let served_ops =
        log.lat_ns[Class::Read as usize].len() + log.lat_ns[Class::Scan as usize].len();
    out.set_latencies(
        &mut log,
        measured_ns,
        Some(served_ops as f64 / (served as f64 / 1e9)),
    );
    out.info("burst_ops_per_s", median(&burst_rates));
    out.set_recovery(&recoveries);
    out.set_e2e(
        "flushes_per_op",
        nvm_total.line_flushes as f64 / burst_ops.max(1) as f64,
    );
    out.set_e2e(
        "heap_bytes_per_user_byte",
        store.used_bytes() as f64 / store.user_bytes.max(1) as f64,
    );
    out.set_e2e("setup_s", setup_s);
    out.info("threads", 1.0);
    let cycles = ops.len() / (burst + tail);
    out.info("truncated", f64::from(u8::from(recoveries.len() < cycles)));

    if args.trace {
        set_nvm_per_op(&mut out, &nvm_total, burst_ops);
        index_probes(&store, &tracer, &mut out)?;
        store
            .handle()
            .commit_sync()
            .map_err(|e| format!("commit: {e}"))?;
        drop(store);
        load_probes(&mgr, &tracer, &mut out)?;
        let spans = tracer.into_spans();
        set_span_layers(&mut out, &spans, rows_scanned);
        crate::write_span_file(args, "emb_recover", &spans)?;
    }
    Ok(out)
}
