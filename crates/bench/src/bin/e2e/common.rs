//! What every workload shares: the metric tables, the per-op log, the
//! run outcome and its renderings.

use std::path::PathBuf;
use std::time::Instant;

use espresso::nvm::NvmStats;
use espresso_workload::{record, Scenario, Trace};

use crate::json::Json;
use crate::stats::{median, percentile, window_rates};

/// `(name, unit, direction)` of every end-to-end metric, in print order.
/// Every workload reports every one (the acceptance driver requires it);
/// README.md says what each means per workload. `BENCHMARK.json` carries
/// the same list with the regression bounds.
pub const E2E_METRICS: &[(&str, &str, &str)] = &[
    ("ops_per_s", "1/s", "higher"),
    ("write_p50_us", "us", "lower"),
    ("write_p99_us", "us", "lower"),
    ("read_p50_us", "us", "lower"),
    ("scan_p50_us", "us", "lower"),
    ("recovery_ms", "ms", "lower"),
    ("flushes_per_op", "count", "lower"),
    ("heap_bytes_per_user_byte", "count", "lower"),
    ("setup_s", "s", "lower"),
];

/// `(name, unit, direction)` of every per-layer metric. A metric a
/// workload cannot observe (the committer on an embedded heap, say)
/// reads 0 there.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("nvm.line_flushes_per_op", "count", "lower"),
    ("nvm.fences_per_op", "count", "lower"),
    ("nvm.bytes_written_per_op", "count", "lower"),
    ("nvm.reads_per_op", "count", "lower"),
    ("nvm.sim_ns_per_op", "ns", "lower"),
    ("nvm.persist_ns", "ns", "lower"),
    ("nvm.read_u64_ns", "ns", "lower"),
    ("nvm.pipeline_durable_lag_us", "us", "lower"),
    ("nvm.load_image_ms", "ms", "lower"),
    ("core.commit_seal_us", "us", "lower"),
    ("core.pjh_load_ms", "ms", "lower"),
    ("core.load_zeroing_ms", "ms", "lower"),
    ("core.txn_us", "us", "lower"),
    ("core.alloc_ns", "ns", "lower"),
    ("core.read_session_ns", "ns", "lower"),
    ("core.alloc_reuse_ratio", "count", "higher"),
    ("core.gc_cycles", "count", "lower"),
    ("core.gc_full_cycles", "count", "lower"),
    ("core.gc_stall_total_ms", "ms", "lower"),
    ("core.gc_stall_max_ms", "ms", "lower"),
    ("core.root_set_us", "us", "lower"),
    ("core.root_get_ns", "ns", "lower"),
    ("index.insert_us", "us", "lower"),
    ("index.remove_us", "us", "lower"),
    ("index.get_ns", "ns", "lower"),
    ("index.range_row_ns", "ns", "lower"),
    ("index.insert_flushes", "count", "lower"),
    ("server.ping_rtt_us", "us", "lower"),
    ("server.codec_ns", "ns", "lower"),
    ("server.write_minus_ping_us", "us", "lower"),
    ("server.read_minus_ping_us", "us", "lower"),
    ("server.group_cohort_size", "count", "higher"),
    ("server.seals_per_write", "count", "lower"),
    ("server.busy", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("ops_per_s_traced", "1/s", "higher"),
    // End-to-end metrics the acceptance driver's list cannot hold (README.md,
    // "Metrics outside the driver's list"); `e2e compare` gates both.
    ("read_p99_us", "us", "lower"),
    ("failed_ops_pct", "%", "lower"),
];

pub const WORKLOADS: &[&str] = &["srv_write", "srv_read", "emb_oltp", "emb_recover"];

/// Measured-phase windows; `ops_per_s` is the median window.
pub const WINDOWS: usize = 10;

/// How one workload run is bounded and where it may write.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Cap on the measured phase. The phase is the scenario's frozen op
    /// count, sized to end well inside the cap on the seed commit; a run
    /// the cap cuts short says so (`truncated = 1`).
    pub seconds: f64,
    pub trace: bool,
    /// ~1/100 scale, one set-up: the smoke mode the unit tests run.
    pub quick: bool,
    /// Scratch directory for heaps and server images, owned by the run.
    pub dir: PathBuf,
    /// Where result and span files go.
    pub out: PathBuf,
}

impl RunArgs {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Timed reloads after the measured phase; `recovery_ms` is their
    /// median.
    pub fn recovery_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            9
        }
    }
}

/// Loads a scenario shipped beside the sources, perturbs its seed with
/// the run seed and a stream number, and scales it down in quick mode.
pub fn scenario(text: &str, args: &RunArgs, stream: u64) -> Scenario {
    let mut s = Scenario::from_json(text).expect("shipped scenario parses");
    s.seed ^= (args.seed.wrapping_add(1))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    if args.quick {
        s.ops = (s.ops / 100).max(200);
        s.key_space = (s.key_space / 8).max(64);
    }
    s
}

/// `n` values of the scenario's length range, from the workload crate's
/// generator (a set-only recording; the picked keys are ignored).
pub fn preload_values(like: &Scenario, n: u64, seed: u64) -> Vec<Vec<u8>> {
    let mut s = like.clone();
    s.ops = n;
    s.seed = seed;
    s.commit_every = 0;
    s.faults = None;
    s.mix = espresso_workload::OpMix {
        get: 0,
        set: 100,
        del: 0,
        fget: 0,
        fset: 0,
        txn: 0,
        scan: 0,
    };
    let Trace { ops, .. } = record(&s);
    ops.into_iter()
        .filter_map(|op| match op {
            espresso_workload::Op::Set(_, v) => Some(v),
            _ => None,
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
    Scan = 2,
}

/// Per-thread record of the measured phase: every op's completion time
/// and latency in nanoseconds.
#[derive(Default)]
pub struct OpLog {
    pub ends_ns: Vec<u64>,
    pub lat_ns: [Vec<u64>; 3],
    pub failed: u64,
    /// First few check failures, for the report.
    pub notes: Vec<String>,
}

impl OpLog {
    pub fn record(&mut self, class: Class, origin: Instant, started: Instant, ended: Instant) {
        self.ends_ns.push((ended - origin).as_nanos() as u64);
        self.lat_ns[class as usize].push((ended - started).as_nanos() as u64);
    }

    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    pub fn merge(&mut self, other: OpLog) {
        self.ends_ns.extend(other.ends_ns);
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    pub fn ops(&self) -> u64 {
        self.ends_ns.len() as u64
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Sample counts and other context printed beside the metrics.
    pub info: Vec<(String, f64)>,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            seed,
            ..Outcome::default()
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed ops and failed checks as a share of everything attempted.
    pub fn failed_ops_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn set_e2e(&mut self, name: &str, value: f64) {
        let &(name, unit, _) = E2E_METRICS
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a declared end-to-end metric"));
        self.e2e.push(Metric { name, unit, value });
    }

    pub fn set_layer(&mut self, name: &str, value: f64) {
        let &(name, unit, _) = LAYER_METRICS
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.layers.push(Metric { name, unit, value });
    }

    pub fn info(&mut self, key: &str, value: f64) {
        self.info.push((key.to_string(), value));
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Throughput and latency metrics from the merged op log.
    /// `ops_per_s` is the median window of the measured phase unless the
    /// workload has a better-fitting rate of its own.
    pub fn set_latencies(&mut self, log: &mut OpLog, measured_ns: u64, ops_per_s: Option<f64>) {
        let rates = window_rates(&log.ends_ns, measured_ns, WINDOWS);
        self.set_e2e("ops_per_s", ops_per_s.unwrap_or_else(|| median(&rates)));
        for v in &mut log.lat_ns {
            v.sort_unstable();
        }
        let us = |ns: u64| ns as f64 / 1e3;
        let [read, write, scan] = &log.lat_ns;
        self.set_e2e("write_p50_us", us(percentile(write, 50.0)));
        self.set_e2e("write_p99_us", us(percentile(write, 99.0)));
        self.set_e2e("read_p50_us", us(percentile(read, 50.0)));
        // Demoted to the per-layer list (README.md), measured all the same.
        self.set_layer("read_p99_us", us(percentile(read, 99.0)));
        self.set_e2e("scan_p50_us", us(percentile(scan, 50.0)));
        self.info("write_samples", write.len() as f64);
        self.info("read_samples", read.len() as f64);
        self.info("scan_samples", scan.len() as f64);
        self.info("measured_s", measured_ns as f64 / 1e9);
        let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
        self.info("slowest_window_ops_per_s", slowest);
    }

    /// `recovery_ms` is the median timed reload; the extremes ride along.
    pub fn set_recovery(&mut self, reload_ms: &[f64]) {
        self.set_e2e("recovery_ms", median(reload_ms));
        let min = reload_ms.iter().copied().fold(f64::INFINITY, f64::min);
        self.info("recovery_min_ms", min);
        self.info(
            "recovery_max_ms",
            reload_ms.iter().copied().fold(0.0, f64::max),
        );
        self.info("recovery_samples", reload_ms.len() as f64);
    }

    /// Collections seen from outside: the counts, and the writes that
    /// waited for one (a write across which `gc_count` advanced).
    pub fn set_gc_layers(&mut self, cycles: u64, full_cycles: u64, stalls_ms: &[f64]) {
        self.set_layer("core.gc_cycles", cycles as f64);
        self.set_layer("core.gc_full_cycles", full_cycles as f64);
        self.set_layer(
            "core.gc_stall_total_ms",
            stalls_ms.iter().fold(0.0, |a, b| a + b),
        );
        let max = stalls_ms.iter().copied().fold(0.0, f64::max);
        self.set_layer("core.gc_stall_max_ms", max);
    }

    /// Completes the per-layer list of a traced run: 0 for each declared
    /// metric the workload cannot observe. (An untraced run lists only
    /// `read_p99_us` and `failed_ops_pct`, which every run measures.)
    pub fn fill_layers(&mut self) {
        self.set_layer(
            "ops_per_s_traced",
            self.e2e_value("ops_per_s").unwrap_or(0.0),
        );
        for &(name, unit, _) in LAYER_METRICS {
            if !self.layers.iter().any(|m| m.name == name) {
                self.layers.push(Metric {
                    name,
                    unit,
                    value: 0.0,
                });
            }
        }
        self.layers
            .sort_by_key(|m| LAYER_METRICS.iter().position(|d| d.0 == m.name));
    }

    /// The result line of the driver contract.
    pub fn result_line(&self, trace: bool) -> Json {
        let metrics = if trace { &self.layers } else { &self.e2e };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(metrics)),
        ])
    }

    /// The full record `e2e run` writes and `e2e compare` reads.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
            ("end_to_end", metrics_json(&self.e2e)),
            ("per_layer", metrics_json(&self.layers)),
            (
                "info",
                Json::Obj(
                    self.info
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn print_text(&self) {
        println!(
            "== {} (seed {}) — attempted {} failed {} {}",
            self.workload,
            self.seed,
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for note in &self.notes {
            println!("   ! {note}");
        }
        for m in self.e2e.iter().chain(&self.layers) {
            println!("   {:34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.info {
            println!("   ({k} = {v})");
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Sets the `nvm.*_per_op` layer metrics from a device-counter delta.
pub fn set_nvm_per_op(out: &mut Outcome, delta: &NvmStats, ops: u64) {
    let per = |n: u64| n as f64 / ops.max(1) as f64;
    out.set_layer("nvm.line_flushes_per_op", per(delta.line_flushes));
    out.set_layer("nvm.fences_per_op", per(delta.fences));
    out.set_layer("nvm.bytes_written_per_op", per(delta.bytes_written));
    out.set_layer("nvm.reads_per_op", per(delta.reads));
    out.set_layer("nvm.sim_ns_per_op", per(delta.simulated_ns));
}

pub fn add_stats(a: &NvmStats, b: &NvmStats) -> NvmStats {
    NvmStats {
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        bytes_written: a.bytes_written + b.bytes_written,
        line_flushes: a.line_flushes + b.line_flushes,
        fences: a.fences + b.fences,
        simulated_ns: a.simulated_ns + b.simulated_ns,
    }
}

/// Runs `build` `reps` times, dropping each result before the next is
/// built, and returns the last one with the median build time in seconds
/// (the `setup_s` of the run).
pub fn set_up_repeatedly<T>(
    reps: usize,
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let started = Instant::now();
        last = Some(build(rep)?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&seconds)))
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
