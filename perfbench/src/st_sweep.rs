//! `st-sweep`: the single-thread record-once / replay-13 sweep.
//!
//! For each suite trace: clear the recording memo, take one cold
//! recording, and replay it under all 13 policies on one thread, as the
//! Fig. 6/7/10 and Table 3 binaries do. An operation is one policy cell
//! (engine build + replay); every cell counts the recording's trace
//! accesses, and the recording time is inside the timed phase.

use std::collections::HashMap;
use std::time::Instant;

use mrp_cache::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use mrp_core::EngineConfig;
use mrp_cpu::{replay_single, SingleCoreResult};
use mrp_experiments::runner::{run_single_hawkeye, run_single_kind};
use mrp_experiments::{recording, PolicyKind, StParams};
use mrp_trace::{workloads, Mix, Workload};

use crate::check::{self, Checker};
use crate::layers::{self, Streams};
use crate::report::{Report, Timing};
use crate::spans::Tracer;
use crate::RunConfig;

/// Suite traces of the sweep, spanning the share of accesses that reach
/// the LLC: from a hot Zipf set mostly served by L1/L2 to streams and
/// loops where every other access reaches it.
pub const TRACES: [&str; 5] = [
    "zipf.hot",
    "chase.16m",
    "loop.edge",
    "stream.far",
    "loop.fit",
];

/// Warmup instructions per recording.
pub const WARMUP: u64 = 200_000;
/// Measured instructions per recording.
pub const MEASURE: u64 = 1_000_000;

/// Every registered policy, in CLI naming (the `verify` binary's list).
pub const POLICIES: [&str; 13] = [
    "lru",
    "random",
    "plru",
    "srrip",
    "drrip",
    "mdpp",
    "ship",
    "sdbp",
    "perceptron",
    "mpppb",
    "mpppb-srrip",
    "mpppb-adaptive",
    "hawkeye",
];

/// Builds policy `name` for geometry `llc`.
pub fn policy(name: &str, llc: &CacheConfig) -> Box<dyn ReplacementPolicy + Send> {
    if name == "hawkeye" {
        return PolicyKind::hawkeye(llc);
    }
    PolicyKind::from_name(name)
        .unwrap_or_else(|| panic!("unknown policy {name}"))
        .build(llc)
}

fn params(seed: u64, scale: u64) -> StParams {
    StParams {
        warmup: WARMUP / scale,
        measure: MEASURE / scale,
        seed,
    }
}

/// The sweep's traces, in [`TRACES`] order.
pub fn traces() -> Vec<Workload> {
    let suite = workloads::suite();
    TRACES
        .iter()
        .map(|name| {
            suite
                .iter()
                .find(|w| w.name() == *name)
                .unwrap_or_else(|| panic!("suite trace {name} missing"))
                .clone()
        })
        .collect()
}

/// One cell through the experiment runner's entry point: replay of the memoized
/// recording, or full simulation when replay is disabled.
fn run_cell(workload: &Workload, name: &str, params: StParams) -> SingleCoreResult {
    if name == "hawkeye" {
        return run_single_hawkeye(workload, params);
    }
    let kind = PolicyKind::from_name(name).unwrap_or_else(|| panic!("unknown policy {name}"));
    run_single_kind(workload, kind, params)
}

fn invariants(r: &SingleCoreResult, measure: u64) -> bool {
    r.ipc.is_finite()
        && r.ipc > 0.0
        && r.mpki.is_finite()
        && r.instructions >= measure
        && r.cycles > 0
        && r.stats.llc.demand_misses <= r.stats.llc.demand_accesses()
}

fn cell_id(trace: &str, policy: &str) -> String {
    format!("{trace}/{policy}")
}

/// Demand accesses in a recording: one event per trace access, plus the
/// prefetch fills that reached the LLC.
fn demand_accesses(rec: &mrp_cache::LlcRecording) -> u64 {
    (0..rec.len()).filter(|&i| !rec.is_prefetch(i)).count() as u64
}

struct Sweep {
    traces: Vec<Workload>,
    params: StParams,
    /// Trace accesses per recording, by trace index.
    accesses: HashMap<usize, u64>,
}

impl Sweep {
    fn new(seed: u64, scale: u64) -> Self {
        Sweep {
            traces: traces(),
            params: params(seed, scale),
            accesses: HashMap::new(),
        }
    }

    /// One sweep through the experiment runner's entry points, timing
    /// each recording as a step and each policy cell as an operation.
    /// Returns the trace accesses it simulated.
    fn run(&mut self, checker: &mut Checker, timing: &mut Timing) -> u64 {
        let p = self.params;
        let mut simulated = 0;
        for (t, workload) in self.traces.iter().enumerate() {
            recording::clear_recordings();
            let start = Instant::now();
            let rec = recording::recording_for(workload, p.seed, p.warmup, p.measure);
            timing.step(t, start.elapsed().as_secs_f64() * 1e3);
            let accesses = *self
                .accesses
                .entry(t)
                .or_insert_with(|| demand_accesses(&rec));
            for (i, name) in POLICIES.iter().enumerate() {
                let op = t * POLICIES.len() + i;
                let start = Instant::now();
                let result = run_cell(workload, name, p);
                timing.op(op, start.elapsed().as_secs_f64() * 1e3);
                timing.accesses(op, accesses);
                let id = cell_id(workload.name(), name);
                checker.op(&id, check::single(&result), invariants(&result, p.measure));
                simulated += accesses;
            }
        }
        simulated
    }

    /// The same sweep calling each layer directly, inside spans.
    fn run_traced(
        &mut self,
        tracer: &mut Tracer,
        checker: &mut Checker,
        counts: &mut TracedCounts,
    ) -> u64 {
        let p = self.params;
        let config = HierarchyConfig::single_thread();
        let mut simulated = 0;
        for (t, workload) in self.traces.iter().enumerate() {
            let (rec, consumed) =
                layers::traced_record(tracer, workload, p.seed, &config, p.warmup, p.measure);
            let accesses = *self.accesses.entry(t).or_insert(consumed);
            for name in POLICIES {
                let mut engine = tracer.span("engine.build", || {
                    EngineConfig::new(config.llc)
                        .policy_with(move |g| policy(name, g))
                        .label(workload.name())
                        .build()
                });
                let result = tracer.span("replay", || {
                    replay_single(&rec, engine.cache_mut(), &config.latencies)
                });
                let id = cell_id(workload.name(), name);
                let ok = invariants(&result, p.measure) && consumed == accesses;
                checker.op(&id, check::single(&result), ok);
                simulated += accesses;
            }
            counts.llc_events += rec.llc_len() as u64;
            counts.events += rec.len() as u64;
        }
        simulated
    }
}

/// Per-policy LLC events and recorded events the traced sweeps replayed
/// (each policy replays every recording once).
#[derive(Default)]
struct TracedCounts {
    llc_events: u64,
    events: u64,
}

/// Set-up: the trace list and one warm-up sweep at a tenth of the scale,
/// so lazy initialisation and first-touch page faults land here and not
/// in the first timed cell. The untraced run repeats it before every
/// pass, so its samples span the run as the operations do.
fn setup(seed: u64) -> f64 {
    let start = Instant::now();
    let mut warm = Sweep::new(seed, 10);
    warm.run(&mut Checker::new(HashMap::new()), &mut Timing::default());
    recording::clear_recordings();
    start.elapsed().as_secs_f64()
}

/// Full simulation of every cell — replay must match it bit for bit.
fn reference(sweep: &Sweep, checker: &mut Checker) {
    recording::set_replay_enabled(false);
    for workload in &sweep.traces {
        for name in POLICIES {
            let result = run_cell(workload, name, sweep.params);
            checker.reference(&cell_id(workload.name(), name), check::single(&result));
        }
    }
    recording::set_replay_enabled(true);
}

pub fn end_to_end(cfg: &RunConfig, checker: &mut Checker) -> Report {
    let mut timing = Timing::default();
    let mut sweep = Sweep::new(cfg.seed, 1);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        timing.setup_s.push(setup(cfg.seed));
        sweep.run(checker, &mut timing);
    }
    timing.peak_rss_mb = crate::report::peak_rss_mb();
    recording::clear_recordings();
    reference(&sweep, checker);
    timing.end_to_end()
}

pub fn traced(cfg: &RunConfig, checker: &mut Checker) -> Report {
    setup(cfg.seed);
    let mut sweep = Sweep::new(cfg.seed, 1);
    let mut tracer = Tracer::new();
    let mut counts = TracedCounts::default();
    let (mut plain_s, mut plain_acc, mut traced_s, mut traced_acc) = (0.0, 0u64, 0.0, 0u64);
    let start = Instant::now();
    // Alternate plain and traced sweeps so both see the same host state.
    while start.elapsed().as_secs_f64() < cfg.seconds || traced_acc == 0 {
        let t = Instant::now();
        plain_acc += sweep.run(checker, &mut Timing::default());
        plain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        traced_acc += sweep.run_traced(&mut tracer, checker, &mut counts);
        traced_s += t.elapsed().as_secs_f64();
    }
    recording::clear_recordings();
    tracer.write_summary("st-sweep traced sweeps");

    let streams = Streams {
        items: sweep.traces.iter().map(|w| (w.clone(), cfg.seed)).collect(),
        config: HierarchyConfig::single_thread(),
        warmup: WARMUP,
        measure: MEASURE,
    };
    let (mut r, costs) = layers::stream_probe(&streams);
    // Trace, private levels and engine builds as the timed sweeps saw them.
    r.add(
        "trace.ns_per_access",
        tracer.self_ns("trace") as f64 / traced_acc as f64 * POLICIES.len() as f64,
        "ns",
    );
    r.add(
        "private.ns_per_access",
        tracer.self_ns("record") as f64 / traced_acc as f64 * POLICIES.len() as f64,
        "ns",
    );
    let builds = tracer.totals()["engine.build"];
    r.add(
        "engine.build_us",
        builds.total_ns as f64 / builds.count as f64 / 1e3,
        "us",
    );
    // Layer costs must add back up to the traced sweeps' wall time.
    let replay_model: f64 = costs.llc_ns.iter().sum::<f64>() * counts.llc_events as f64
        + costs.timing_ns * (counts.events as f64 * POLICIES.len() as f64);
    let attributed = (tracer.self_ns("trace") + tracer.self_ns("record") + builds.total_ns) as f64
        + replay_model;
    r.add(
        "unattributed_frac",
        1.0 - attributed / (traced_s * 1e9),
        "fraction",
    );
    r.add(
        "tracing_overhead_frac",
        1.0 - (traced_acc as f64 / traced_s) / (plain_acc as f64 / plain_s),
        "fraction",
    );

    let t = &sweep.traces;
    let mix = Mix::new([t[0].id(), t[1].id(), t[2].id(), t[3].id()], cfg.seed);
    r.extend(crate::mc_mix::probe(&[mix]));
    r.extend(crate::fleet::probe(cfg));
    reference(&sweep, checker);
    r
}

/// Fingerprints of one sweep at `seed`, in `expected.tsv` form.
pub fn fingerprints(seed: u64) -> Vec<(String, u64)> {
    let sweep = Sweep::new(seed, 1);
    let mut out = Vec::new();
    for workload in &sweep.traces {
        recording::clear_recordings();
        for name in POLICIES {
            let result = run_cell(workload, name, sweep.params);
            out.push((cell_id(workload.name(), name), check::single(&result)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_stored_fingerprint_is_reported_as_failed() {
        let seed = 3;
        let mut sweep = Sweep::new(seed, 50);
        sweep.traces.truncate(1);
        let mut honest = Checker::new(HashMap::new());
        sweep.run(&mut honest, &mut Timing::default());
        assert_eq!(honest.attempted, POLICIES.len() as u64);
        assert_eq!(honest.failed, 0);

        // Store a corrupted fingerprint for one cell.
        let id = cell_id(sweep.traces[0].name(), "mpppb");
        let result = run_cell(&sweep.traces[0], "mpppb", sweep.params);
        let wrong = check::single(&result) ^ 1;
        let mut checker = Checker::new(HashMap::from([(id, wrong)]));
        sweep.run(&mut checker, &mut Timing::default());
        checker.finish();
        assert_eq!(checker.attempted, POLICIES.len() as u64);
        assert_eq!(checker.failed, 1);
        assert!(!checker.correct());
    }
}
