//! `e2e`: the repository's end-to-end benchmark. Four workloads over the
//! measured stack (`nvm` → `core` → `index` → `server`), an oracle in
//! each, and a per-layer ledger taken from outside the crates — by
//! timing calls into their public functions and differencing their
//! public counters. See README.md beside this file.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result line last
//! e2e run [--seed n] [--runs k] [--seconds s] [--trace] [--quick] [--out dir]
//! e2e compare <setA> <setB>
//! e2e summary <set>...
//! ```
//!
//! A workload's measured phase is the frozen op count of its scenario
//! file; `--seconds` (15 in `BENCHMARK.json`) only caps it.

mod common;
mod compare;
mod emb;
mod json;
mod probes;
mod srv;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Outcome, RunArgs, WORKLOADS};
use json::Json;

/// The seed every documented number was taken with; README.md names the
/// holdout seed.
const DEFAULT_SEED: u64 = 20180324;

/// Runs one workload once, in a fresh subdirectory of `args.dir` that is
/// removed afterwards (runs must never find each other's heaps).
pub fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    let dir = args
        .dir
        .join(format!("{name}-s{}-t{}", args.seed, u8::from(args.trace)));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let out = run_in(name, args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(name: &str, args: &RunArgs, dir: &Path) -> Result<Outcome, String> {
    let args = &RunArgs {
        dir: dir.to_path_buf(),
        ..args.clone()
    };
    let mut out = match name {
        "srv_write" => srv::run(&srv::SRV_WRITE, args),
        "srv_read" => srv::run(&srv::SRV_READ, args),
        "emb_oltp" => emb::run_oltp(args),
        "emb_recover" => emb::run_recover(args),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }?;
    let failed_ops_pct = out.failed_ops_pct();
    out.set_layer("failed_ops_pct", failed_ops_pct);
    if args.trace {
        probes::run(&mut out, args.quick)?;
        out.fill_layers();
    }
    Ok(out)
}

/// Writes the span file of a traced run into the output directory.
pub fn write_span_file(
    args: &RunArgs,
    workload: &str,
    spans: &[trace::Span],
) -> Result<(), String> {
    let path = args
        .out
        .join(format!("spans-{workload}-s{}.json", args.seed));
    std::fs::write(&path, trace::span_file(workload, args.seed, spans).render())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// The run's scratch directory: every heap image and server directory
/// lives under it, and it is removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path) -> Result<Scratch, String> {
        let dir = out.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `e2e_out` in the build's target directory (two levels above the
/// executable), so a run leaves nothing in the source tree.
fn default_out() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe.parent().and_then(Path::parent);
    target.unwrap_or(Path::new(".")).join("e2e_out")
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    runs: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    /// `e2e run`: a traced run is paired with an untraced one.
    paired: bool,
}

fn parse_cli(args: &[String], paired: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        runs: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        out: default_out(),
        paired,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--runs" => {
                cli.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--out" => cli.out = PathBuf::from(value("a directory")?),
            "--quick" => cli.quick = true,
            // `--trace` alone, or the driver's `--trace 0|1`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
        }
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with `cargo run --release`".to_string());
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!(
            "e2e: warning: {cores} core available; srv_* runs two client threads beside the server"
        );
    }
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("create {}: {e}", cli.out.display()))?;
    let scratch = Scratch::create(&cli.out)?;
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let save = |out: &Outcome, traced: bool| {
        out.print_text();
        let tag = if traced { "-trace" } else { "" };
        let file = cli
            .out
            .join(format!("{}-s{}{tag}.json", out.workload, out.seed));
        std::fs::write(&file, out.to_json().pretty())
            .map_err(|e| format!("write {}: {e}", file.display()))
    };
    let mut all_correct = true;
    let mut last = None;
    for seed in cli.seed..cli.seed + cli.runs {
        for name in &names {
            let args = RunArgs {
                seed,
                seconds: cli.seconds,
                trace: cli.trace,
                quick: cli.quick,
                dir: scratch.0.clone(),
                out: cli.out.clone(),
            };
            // `e2e run --trace`: the untraced run first, so the traced run
            // can state its overhead against it.
            let untraced = if cli.paired && cli.trace {
                let plain = RunArgs {
                    trace: false,
                    ..args.clone()
                };
                let out = run_workload(name, &plain)?;
                save(&out, false)?;
                all_correct &= out.correct();
                out.e2e_value("ops_per_s")
            } else {
                None
            };
            let mut out = run_workload(name, &args)?;
            if let (Some(plain), Some(traced)) = (untraced, out.e2e_value("ops_per_s")) {
                out.info("ops_per_s_untraced", plain);
                out.info("trace_overhead_pct", 100.0 * (plain - traced) / plain);
            }
            save(&out, cli.trace)?;
            all_correct &= out.correct();
            last = Some(out);
        }
    }
    // One workload, one run: the driver's result line comes last.
    if let (Some(out), Some(_), 1) = (&last, &cli.workload, cli.runs) {
        println!("{}", out.result_line(cli.trace).render());
    } else {
        println!(
            "{}",
            Json::obj(vec![
                ("correct", Json::Bool(all_correct)),
                ("cores", Json::Num(cores as f64)),
                ("results_in", Json::str(&cli.out.display().to_string())),
            ])
            .render()
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_cli(&args[1..]),
        Some("summary") => compare::summary_cli(&args[1..]),
        Some("run") => parse_cli(&args[1..], true).and_then(|cli| run(&cli)),
        _ => parse_cli(&args, false).and_then(|cli| run(&cli)),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("e2e: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::{E2E_METRICS, LAYER_METRICS};

    fn quick(name: &str, trace: bool, tag: &str) -> Outcome {
        let dir =
            std::env::temp_dir().join(format!("e2e-test-{}-{name}-{tag}", std::process::id()));
        let scratch = Scratch::create(&dir).unwrap();
        let args = RunArgs {
            seed: 7,
            seconds: 60.0,
            trace,
            quick: true,
            dir: scratch.0.clone(),
            out: dir.clone(),
        };
        let out = run_workload(name, &args).unwrap();
        drop(scratch);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn quick_runs_of_every_workload_are_correct_and_complete() {
        for name in WORKLOADS {
            let out = quick(name, false, "e2e");
            assert_eq!(out.failed, 0, "{name}: {:?}", out.notes);
            assert!(out.attempted > 0);
            let names: Vec<&str> = out.e2e.iter().map(|m| m.name).collect();
            let declared: Vec<&str> = E2E_METRICS.iter().map(|m| m.0).collect();
            assert_eq!(names, declared, "{name}");
            for m in &out.e2e {
                assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
            }
        }
    }

    fn assert_every_layer_metric(out: &Outcome) {
        assert_eq!(out.failed, 0, "{}: {:?}", out.workload, out.notes);
        let names: Vec<&str> = out.layers.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        assert_eq!(names, declared, "{}", out.workload);
        assert!(json::parse(&out.result_line(true).render()).is_ok());
    }

    #[test]
    fn traced_quick_run_reports_every_layer_metric() {
        assert_every_layer_metric(&quick("srv_write", true, "trace"));
    }

    #[test]
    fn emb_oltp_device_counts_repeat_exactly() {
        let a = quick("emb_oltp", true, "a");
        let b = quick("emb_oltp", true, "b");
        assert_every_layer_metric(&a);
        let counts = |o: &Outcome| -> Vec<(&'static str, f64)> {
            o.layers
                .iter()
                .filter(|m| m.name.starts_with("nvm.") && m.name.ends_with("_per_op"))
                .map(|m| (m.name, m.value))
                .collect()
        };
        assert_eq!(counts(&a).len(), 5);
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(a.e2e_value("flushes_per_op"), b.e2e_value("flushes_per_op"));
        assert_eq!(
            a.e2e_value("heap_bytes_per_user_byte"),
            b.e2e_value("heap_bytes_per_user_byte")
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |section: &str| -> Vec<(String, String, String)> {
            doc.get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let declared = |table: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            table
                .iter()
                .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(E2E_METRICS));
        assert_eq!(listed("per_layer"), declared(LAYER_METRICS));
        // The one bound BENCHMARK.json has per metric is no tighter than
        // the widest per-workload bound `compare` applies.
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let listed = m.get("bound").and_then(Json::as_f64).unwrap();
            let widest = WORKLOADS
                .iter()
                .filter_map(|w| compare::bound(w, name))
                .fold(0.0, f64::max);
            assert!(listed >= widest && listed <= 0.25, "{name}: {listed}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn cli_accepts_the_driver_contract_and_the_short_forms() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parse_cli = |args: &[String]| parse_cli(args, false);
        let cli = parse_cli(&argv("--workload srv_read --seed 3 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (cli.workload.as_deref(), cli.seed, cli.trace),
            (Some("srv_read"), 3, false)
        );
        assert!(parse_cli(&argv("--trace 1")).unwrap().trace);
        assert!(parse_cli(&argv("--trace --quick")).unwrap().trace);
        assert!(parse_cli(&argv("--workload nope")).is_err());
        assert!(parse_cli(&argv("--seconds 0")).is_err());
        assert!(parse_cli(&argv("--bogus")).is_err());
    }
}
