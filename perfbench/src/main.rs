//! The repository's benchmark: end-to-end rates of the simulator and the
//! serving fleet, and traced per-layer costs. See `README.md` beside this
//! package for the workloads, the metrics and how layers map onto them.
//!
//! ```text
//! mrp-perfbench --workload st-sweep|mc-mix|fleet --seed N --seconds S --trace 0|1
//! mrp-perfbench --workload W --seed N --fingerprints
//! mrp-perfbench compare A.out... -- B.out...
//! ```
//!
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; an earlier
//! `{"meta": ...}` line carries the run metadata. Kernel and window A/B
//! runs set `MRP_NO_SIMD` / `MRP_NO_WINDOW`, as every other binary does.

mod check;
mod compare;
mod fleet;
mod layers;
mod mc_mix;
mod meta;
mod report;
mod spans;
mod st_sweep;

use std::process::ExitCode;

use mrp_core::RuntimeOptions;
use mrp_obs::Json;

use check::Checker;

/// The seed runs default to, with fingerprints in `expected.tsv`.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, with fingerprints in `expected.tsv`, so a
/// claim can be re-checked on inputs its author did not tune on.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Workloads the harness runs; `BENCHMARK.json` lists the first two.
const WORKLOADS: [&str; 3] = ["st-sweep", "mc-mix", "fleet"];

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `mrp-runtime` workers and fleet shards.
    pub threads: usize,
    /// Kernel and window knobs in effect (`MRP_NO_SIMD`, `MRP_NO_WINDOW`).
    pub options: RuntimeOptions,
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprints: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        fingerprints: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--fingerprints" => cli.fingerprints = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            cli.workload
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let options = RuntimeOptions::from_env();
    options.install();
    let threads = mrp_runtime::available_parallelism().clamp(1, 2);
    mrp_runtime::set_threads(threads);

    if cli.fingerprints {
        let rows = match cli.workload.as_str() {
            "st-sweep" => st_sweep::fingerprints(cli.seed),
            "mc-mix" => mc_mix::fingerprints(cli.seed),
            _ => fleet::fingerprints(cli.seed),
        };
        for (id, fp) in rows {
            println!("{}\t{}\t{id}\t{fp:016x}", cli.workload, cli.seed);
        }
        return ExitCode::SUCCESS;
    }

    let cfg = RunConfig {
        seed: cli.seed,
        seconds: cli.seconds,
        threads,
        options,
    };
    let mut checker = Checker::for_run(&cli.workload, cli.seed);
    let report = match (cli.workload.as_str(), cli.trace) {
        ("st-sweep", false) => st_sweep::end_to_end(&cfg, &mut checker),
        ("st-sweep", true) => st_sweep::traced(&cfg, &mut checker),
        ("mc-mix", false) => mc_mix::end_to_end(&cfg, &mut checker),
        ("mc-mix", true) => mc_mix::traced(&cfg, &mut checker),
        (_, false) => fleet::end_to_end(&cfg, &mut checker),
        (_, true) => fleet::traced(&cfg, &mut checker),
    };
    checker.finish();

    let worker_threads = if cli.workload == "fleet" { threads } else { 1 };
    let meta = meta::collect(&cli.workload, &cfg, cli.trace, worker_threads);
    println!("{}", Json::Obj(vec![("meta".to_string(), meta)]).render());
    report.print_table();
    println!(
        "ops_attempted {}  ops_failed {}  (stored fingerprints for {} cells, {} reference checks)",
        checker.attempted, checker.failed, checker.stored_checks, checker.reference_checks
    );
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(checker.correct())),
        ("attempted".to_string(), Json::U64(checker.attempted)),
        ("failed".to_string(), Json::U64(checker.failed)),
        ("metrics".to_string(), report.to_json()),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
