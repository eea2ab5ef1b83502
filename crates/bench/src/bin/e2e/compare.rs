//! `e2e compare` and `e2e summary`: medians, quartiles and verdicts over
//! sets of result files. A set is a directory of the `*.json` files
//! `e2e run --out` wrote (traced runs and span files are skipped).

use std::collections::BTreeMap;
use std::path::Path;

use crate::common::{E2E_METRICS, WORKLOADS};
use crate::json::{self, Json};
use crate::stats::{median, quartiles, relative_iqr};

/// Gated beside the end-to-end list: they are end-to-end metrics the
/// acceptance driver's list cannot hold (README.md), so every result
/// file carries them in its per-layer section.
const READ_P99: &str = "read_p99_us";
const FAILED_OPS: &str = "failed_ops_pct";

/// `failed_ops_pct` may rise by this many percentage points.
const FAILED_OPS_BOUND_PP: f64 = 0.01;

/// The regression bound of every gated metric on `srv_write`, `srv_read`,
/// `emb_oltp`, `emb_recover`, as a share of set A's median: the larger of
/// ISSUE 11's starting bound and twice the widest relative inter-quartile
/// spread the pair showed in the five calibration sets
/// (`trajectory/seed-5-sets.json`), rounded up to a whole percent and
/// capped at the driver's 25%. `0.0`:
/// not gated on that workload. `BENCHMARK.json` carries one bound per
/// metric, no tighter than the widest of its row (README.md, "Comparing,
/// and the bounds").
pub const BOUNDS: &[(&str, [f64; 4])] = &[
    ("ops_per_s", [0.10, 0.25, 0.12, 0.07]),
    ("write_p50_us", [0.10, 0.10, 0.14, 0.16]),
    ("write_p99_us", [0.15, 0.15, 0.16, 0.17]),
    ("read_p50_us", [0.10, 0.10, 0.10, 0.10]),
    ("scan_p50_us", [0.12, 0.16, 0.10, 0.10]),
    ("recovery_ms", [0.25, 0.25, 0.10, 0.10]),
    ("flushes_per_op", [0.03, 0.04, 0.02, 0.02]),
    ("heap_bytes_per_user_byte", [0.07, 0.02, 0.05, 0.03]),
    ("setup_s", [0.20, 0.20, 0.20, 0.20]),
    // It repeats on `srv_read` only: `srv_write` reads for a second and a
    // half, and on `emb_*` the 99th percentile of a 7 us read is this
    // box's timer interruptions, not the system (README.md).
    (READ_P99, [0.0, 0.15, 0.0, 0.0]),
];

pub fn bound(workload: &str, metric: &str) -> Option<f64> {
    let w = WORKLOADS.iter().position(|name| *name == workload)?;
    let bound = BOUNDS.iter().find(|row| row.0 == metric)?.1[w];
    (bound > 0.0).then_some(bound)
}

/// workload → metric → one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        if name.starts_with("spans-") || name.ends_with("-trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {name}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let (Some(workload), Some(e2e), Some(layers)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("end_to_end").and_then(Json::as_obj),
            doc.get("per_layer").and_then(Json::as_obj),
        ) else {
            return Err(format!("{name} is not an e2e result file"));
        };
        let per_metric = set.entry(workload.to_string()).or_default();
        let gated_layers = layers
            .iter()
            .filter(|(metric, _)| metric == READ_P99 || metric == FAILED_OPS);
        for (metric, m) in e2e.iter().chain(gated_layers) {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: {metric} has no value"))?;
            per_metric.entry(metric.clone()).or_default().push(value);
        }
    }
    if set.is_empty() {
        return Err(format!("{} holds no result files", dir.display()));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// The rule of the choosing-metrics guide: a median moved by more than
/// the bound is better or worse; but where either side's own spread
/// exceeds the bound the pairing is unresolved, unless every run of one
/// side beats every run of the other. Sides that cannot be compared run
/// for run (one is empty, or they differ in run count) are unresolved.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || a.len() != b.len() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    // Oriented so that positive means B is worse than A. A zero base has
    // no share to move by: any move away from it is beyond every bound.
    let worse_by = match (ma == 0.0, higher_is_better) {
        (true, _) if mb == 0.0 => 0.0,
        (true, true) => -f64::INFINITY * mb.signum(),
        (true, false) => f64::INFINITY * mb.signum(),
        (false, true) => (ma - mb) / ma.abs(),
        (false, false) => (mb - ma) / ma.abs(),
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
    let b_always_worse = if higher_is_better {
        b_hi < a_lo
    } else {
        b_lo > a_hi
    };
    let b_always_better = if higher_is_better {
        b_lo > a_hi
    } else {
        b_hi < a_lo
    };
    if relative_iqr(a).max(relative_iqr(b)) > bound {
        return if b_always_worse {
            Verdict::Worse
        } else if b_always_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Failures are gated on the worst run, not the median (a write lost in
/// four runs of ten must show), and by an absolute bound.
pub fn failed_ops_verdict(a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || a.len() != b.len() {
        return Verdict::Unresolved;
    }
    let (worst_a, worst_b) = (min_max(a).1, min_max(b).1);
    if worst_b > worst_a + FAILED_OPS_BOUND_PP {
        Verdict::Worse
    } else if worst_a > worst_b + FAILED_OPS_BOUND_PP {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// One row per gated metric of `workload`, in print order: the verdict
/// and the bound it was reached with. A metric or a whole workload that
/// a set lacks compares as an empty side.
fn verdicts(workload: &str, a: &Set, b: &Set) -> Vec<(&'static str, &'static str, f64, Verdict)> {
    let none = BTreeMap::new();
    let (ma, mb) = (
        a.get(workload).unwrap_or(&none),
        b.get(workload).unwrap_or(&none),
    );
    let values = |side: &BTreeMap<String, Vec<f64>>, metric: &str| -> Vec<f64> {
        side.get(metric).cloned().unwrap_or_default()
    };
    let mut rows = Vec::new();
    let read_p99 = (READ_P99, "us", "lower");
    for &(metric, unit, better) in E2E_METRICS.iter().chain([&read_p99]) {
        let Some(bound) = bound(workload, metric) else {
            continue;
        };
        let v = verdict(
            &values(ma, metric),
            &values(mb, metric),
            better == "higher",
            bound,
        );
        rows.push((metric, unit, bound, v));
    }
    let v = failed_ops_verdict(&values(ma, FAILED_OPS), &values(mb, FAILED_OPS));
    rows.push((FAILED_OPS, "%", FAILED_OPS_BOUND_PP, v));
    rows
}

pub fn compare_cli(args: &[String]) -> Result<bool, String> {
    let [a_dir, b_dir] = args else {
        return Err("usage: e2e compare <setA> <setB>".to_string());
    };
    let (a, b) = (load_set(Path::new(a_dir))?, load_set(Path::new(b_dir))?);
    println!(
        "A = {a_dir}   B = {b_dir}   (every ratio is B over A; bounds are shares of A's median)"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        let runs = |set: &Set| {
            let metrics = set.get(*workload);
            metrics.map_or(0, |m| m.values().map(Vec::len).max().unwrap_or(0))
        };
        println!(
            "\n== {workload}  (A: {} runs, B: {} runs)",
            runs(&a),
            runs(&b)
        );
        println!(
            "{:30} {:>13} {:>27} {:>13} {:>27} {:>8} {:>7}  verdict",
            "metric", "median A", "[q1, q3] A", "median B", "[q1, q3] B", "B/A", "bound"
        );
        for (metric, unit, bound, v) in verdicts(workload, &a, &b) {
            clean &= matches!(v, Verdict::Better | Verdict::Unchanged);
            let side = |set: &Set| -> Option<[f64; 3]> {
                Some(quartiles(set.get(*workload)?.get(metric)?))
            };
            let cells = |q: Option<[f64; 3]>| match q {
                Some([q1, q2, q3]) => (format!("{q2:.4}"), format!("[{q1:.4}, {q3:.4}]")),
                None => ("missing".to_string(), String::new()),
            };
            let ratio = match (side(&a), side(&b)) {
                (Some([_, a2, _]), Some([_, b2, _])) if a2 != 0.0 => format!("{:.4}", b2 / a2),
                _ => "-".to_string(),
            };
            let ((med_a, iqr_a), (med_b, iqr_b)) = (cells(side(&a)), cells(side(&b)));
            // Failures: worst run against worst run, in percentage points.
            let bound = if metric == FAILED_OPS {
                format!("+{bound}pp")
            } else {
                format!("{bound:.2}")
            };
            println!(
                "{:30} {med_a:>13} {iqr_a:>27} {med_b:>13} {iqr_b:>27} {ratio:>8} {bound:>7}  {v:?}",
                format!("{metric} ({unit})"),
            );
        }
    }
    println!(
        "\n{}",
        if clean {
            "no worse and no unresolved row"
        } else {
            "some rows are worse or unresolved"
        }
    );
    Ok(clean)
}

/// Per set, workload and metric: median, quartiles and relative spread,
/// as JSON — the trajectory record kept beside the benchmark.
pub fn summary_cli(args: &[String]) -> Result<bool, String> {
    if args.is_empty() {
        return Err("usage: e2e summary <set>...".to_string());
    }
    let mut sets = Vec::new();
    for dir in args {
        let set = load_set(Path::new(dir))?;
        let workloads = set
            .iter()
            .map(|(workload, metrics)| {
                let rows = metrics
                    .iter()
                    .map(|(metric, values)| {
                        let [q1, q2, q3] = quartiles(values);
                        (
                            metric.clone(),
                            Json::obj(vec![
                                ("runs", Json::Num(values.len() as f64)),
                                ("median", Json::Num(q2)),
                                ("q1", Json::Num(q1)),
                                ("q3", Json::Num(q3)),
                                ("relative_iqr", Json::Num(relative_iqr(values))),
                            ]),
                        )
                    })
                    .collect();
                (workload.clone(), Json::Obj(rows))
            })
            .collect();
        sets.push(Json::obj(vec![
            ("set", Json::str(dir)),
            ("workloads", Json::Obj(workloads)),
        ]));
    }
    print!("{}", Json::Arr(sets).pretty());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight_a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let tight_same = [100.2, 100.9, 99.4, 100.1, 100.3];
        let tight_slow = [80.0, 80.5, 79.8, 80.2, 80.1];
        let noisy = [60.0, 140.0, 100.0, 75.0, 130.0];
        // Throughput (higher is better), 5% bound.
        assert_eq!(
            verdict(&tight_a, &tight_same, true, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&tight_a, &tight_slow, true, 0.05), Verdict::Worse);
        assert_eq!(verdict(&tight_slow, &tight_a, true, 0.05), Verdict::Better);
        // The same numbers as a latency (lower is better) flip.
        assert_eq!(verdict(&tight_a, &tight_slow, false, 0.05), Verdict::Better);
        // Spread beyond the bound: unresolved, unless every run of one
        // side beats every run of the other.
        assert_eq!(verdict(&tight_a, &noisy, true, 0.05), Verdict::Unresolved);
        let noisy_low = [10.0, 30.0, 20.0, 12.0, 28.0];
        assert_eq!(verdict(&tight_a, &noisy_low, true, 0.05), Verdict::Worse);
        assert_eq!(verdict(&noisy_low, &tight_a, true, 0.05), Verdict::Better);
    }

    #[test]
    fn sides_that_cannot_be_paired_are_unresolved() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(verdict(&a, &[], true, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&[], &a, true, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&a, &a[..2], true, 0.05), Verdict::Unresolved);
        assert_eq!(
            failed_ops_verdict(&[0.0; 3], &[0.0; 2]),
            Verdict::Unresolved
        );
        assert_eq!(failed_ops_verdict(&[], &[]), Verdict::Unresolved);
    }

    #[test]
    fn a_zero_base_still_gates() {
        let zero = [0.0, 0.0, 0.0];
        let some = [3.0, 3.0, 3.0];
        assert_eq!(verdict(&zero, &zero, false, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(&zero, &some, false, 0.05), Verdict::Worse);
        assert_eq!(verdict(&zero, &some, true, 0.05), Verdict::Better);
        assert_eq!(verdict(&some, &zero, false, 0.05), Verdict::Better);
    }

    #[test]
    fn failures_gate_on_the_worst_run() {
        let clean = [0.0; 10];
        // Lost writes in 4 runs of 10: the median still reads 0.
        let mut lossy = [0.0; 10];
        lossy[..4].fill(0.05);
        assert_eq!(median(&lossy), 0.0);
        assert_eq!(failed_ops_verdict(&clean, &lossy), Verdict::Worse);
        assert_eq!(failed_ops_verdict(&lossy, &clean), Verdict::Better);
        assert_eq!(failed_ops_verdict(&clean, &clean), Verdict::Unchanged);
        // Within a hundredth of a percentage point is no change.
        let mut barely = [0.0; 10];
        barely[0] = 0.009;
        assert_eq!(failed_ops_verdict(&clean, &barely), Verdict::Unchanged);
    }

    fn set_of(workloads: &[&str], runs: usize) -> Set {
        let mut set = Set::new();
        for w in workloads {
            let metrics = set.entry(w.to_string()).or_default();
            let names = E2E_METRICS.iter().map(|m| m.0);
            for metric in names.chain([READ_P99, FAILED_OPS]) {
                let value = if metric == FAILED_OPS { 0.0 } else { 10.0 };
                metrics.insert(metric.to_string(), vec![value; runs]);
            }
        }
        set
    }

    #[test]
    fn a_missing_workload_or_metric_is_unresolved() {
        let full = set_of(WORKLOADS, 3);
        for w in WORKLOADS {
            let rows = verdicts(w, &full, &full);
            assert!(rows.iter().all(|r| r.3 == Verdict::Unchanged), "{w}");
            // read_p99_us is gated where it repeats, failures everywhere.
            let gated = |m: &str| rows.iter().any(|r| r.0 == m);
            assert_eq!(gated(READ_P99), *w == "srv_read", "{w}");
            assert!(gated(FAILED_OPS));
        }
        // Set B's srv_write runs crashed and left no file.
        let crashed = set_of(&WORKLOADS[1..], 3);
        let rows = verdicts("srv_write", &full, &crashed);
        assert!(rows.iter().all(|r| r.3 == Verdict::Unresolved));
        // One metric missing, one workload with fewer runs.
        let mut partial = set_of(WORKLOADS, 3);
        partial.get_mut("emb_oltp").unwrap().remove("recovery_ms");
        *partial.get_mut("srv_read").unwrap() = set_of(&["srv_read"], 2)["srv_read"].clone();
        for (metric, _, _, v) in verdicts("emb_oltp", &full, &partial) {
            let want = if metric == "recovery_ms" {
                Verdict::Unresolved
            } else {
                Verdict::Unchanged
            };
            assert_eq!(v, want, "{metric}");
        }
        let rows = verdicts("srv_read", &full, &partial);
        assert!(rows.iter().all(|r| r.3 == Verdict::Unresolved));
    }

    #[test]
    fn every_declared_metric_has_a_bound_on_every_workload() {
        for &(metric, ..) in E2E_METRICS {
            for w in WORKLOADS {
                let b = bound(w, metric).unwrap_or_else(|| panic!("{metric} on {w}"));
                assert!(b > 0.0 && b <= 0.25, "{metric} on {w}: {b}");
            }
        }
        assert_eq!(bound("emb_oltp", READ_P99), None);
        assert_eq!(bound("nope", "ops_per_s"), None);
    }
}
