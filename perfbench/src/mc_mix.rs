//! `mc-mix`: 4-core mixes on the shared 8 MB LLC.
//!
//! Fixed mixes from `MixBuilder`, drawn after the training mixes as
//! Fig. 4 does, each run under Fig. 4's four policies through the
//! experiment runner's `run_mix_kind` / `run_mix_hawkeye` on one thread. This is
//! full simulation through the per-access path
//! (`CorePrivate::access_with_llc`): the window pipeline and hierarchy
//! batching do no work here. An operation is one (mix, policy) cell.

use std::collections::HashMap;
use std::time::Instant;

use mrp_cache::{HierarchyConfig, HierarchyStats};
use mrp_core::{EngineConfig, RuntimeOptions};
use mrp_cpu::{MulticoreResult, MulticoreSim};
use mrp_experiments::runner::{run_mix_hawkeye, run_mix_kind};
use mrp_experiments::{MpParams, PolicyKind};
use mrp_trace::{Mix, MixBuilder};

use crate::check::{self, Checker};
use crate::layers::{self, Streams};
use crate::report::{Report, Timing};
use crate::spans::Tracer;
use crate::st_sweep::policy;
use crate::RunConfig;

/// Mixes per pass: 64 operations, enough for a tail with ten beyond it.
pub const MIXES: usize = 16;
/// Training mixes skipped before the measured ones, as Fig. 4 does.
pub const TRAIN_SKIP: usize = 16;
/// Warmup instructions per core.
pub const WARMUP: u64 = 12_500;
/// Measured instructions per core.
pub const MEASURE: u64 = 50_000;

/// Fig. 4's policies: LRU, Hawkeye, Perceptron and MPPPB-multi.
pub const POLICIES: [&str; 4] = ["lru", "hawkeye", "perceptron", "mpppb-srrip"];
/// Span and metric names per policy.
const SPANS: [&str; 4] = ["mc.lru", "mc.hawkeye", "mc.perceptron", "mc.mpppb-srrip"];

/// `MixBuilder` seed of the fixed mix members (Fig. 4/5's default).
pub const MIX_SEED: u64 = 42;

/// The mixes of a pass: fixed members, trace streams seeded by `seed`.
/// Fixing the members keeps every seed on the same set of programs, so
/// seeds change the inputs but not how much work an access costs.
pub fn mixes(seed: u64) -> Vec<Mix> {
    let builder = MixBuilder::new(MIX_SEED);
    (0..MIXES)
        .map(|i| Mix::new(*builder.mix(TRAIN_SKIP + i).members(), seed))
        .collect()
}

/// Position of cell (mix `m`, policy `p`) in a pass.
fn op_index(m: usize, p: usize) -> usize {
    m * POLICIES.len() + p
}

fn cell_id(index: usize, mix: &Mix, policy: &str) -> String {
    format!("{}:{}/{policy}", TRAIN_SKIP + index, mix.label())
}

/// One cell through the experiment runner's entry point.
fn run_cell(mix: &Mix, name: &str, params: MpParams) -> MulticoreResult {
    if name == "hawkeye" {
        return run_mix_hawkeye(mix, params);
    }
    let kind = PolicyKind::from_name(name).unwrap_or_else(|| panic!("unknown policy {name}"));
    run_mix_kind(mix, kind, params)
}

/// One cell built directly on `MulticoreSim`, which also exposes the
/// hierarchy statistics (access counts) the runner's entry point drops.
fn sim_cell(mix: &Mix, name: &'static str, params: MpParams) -> (MulticoreResult, HierarchyStats) {
    let config = HierarchyConfig::multi_core();
    let engine = EngineConfig::new(config.llc)
        .policy_with(move |g| policy(name, g))
        .label(mix.label())
        .build();
    let mut sim = MulticoreSim::with_llc(config, engine.into_llc(), mix);
    let result = sim.run(params.warmup, params.measure);
    (result, sim.stats())
}

fn invariants(r: &MulticoreResult, measure: u64) -> bool {
    let total: u64 = r.instructions.iter().sum();
    r.ipc.len() == 4
        && r.ipc.iter().all(|ipc| ipc.is_finite() && *ipc > 0.0)
        && r.instructions.iter().all(|&i| i >= measure)
        && r.mpki == r.llc_misses as f64 * 1000.0 / total as f64
}

/// Trace accesses a cell simulates (all cores, warmup included).
fn accesses(stats: &HierarchyStats) -> u64 {
    stats.l1d.demand_accesses()
}

/// LLC operations (demand and prefetch) a cell performs.
fn llc_accesses(stats: &HierarchyStats) -> u64 {
    stats.llc.demand_accesses() + stats.llc.prefetch_hits + stats.llc.prefetch_fills
}

/// Per-policy cost accumulator for the `mc.*` metrics.
#[derive(Default)]
struct McCosts {
    ns: [u64; 4],
    accesses: [u64; 4],
    llc_accesses: u64,
}

impl McCosts {
    fn add(&mut self, p: usize, ns: u64, stats: &HierarchyStats) {
        self.ns[p] += ns;
        self.accesses[p] += accesses(stats);
        self.llc_accesses += llc_accesses(stats);
    }

    fn report(&self) -> Report {
        let mut r = Report::default();
        for (p, span) in SPANS.iter().enumerate() {
            r.add(
                format!("{span}.ns_per_access"),
                self.ns[p] as f64 / self.accesses[p] as f64,
                "ns",
            );
        }
        r.add(
            "mc.llc_accesses_per_access",
            self.llc_accesses as f64 / self.accesses.iter().sum::<u64>() as f64,
            "events/access",
        );
        r
    }
}

/// The `mc.*` metrics from one run of every policy on `mixes`.
pub fn probe(mixes: &[Mix]) -> Report {
    let params = MpParams {
        warmup: WARMUP,
        measure: MEASURE,
    };
    let mut costs = McCosts::default();
    for mix in mixes {
        for (p, name) in POLICIES.iter().enumerate() {
            let start = Instant::now();
            let (_, stats) = sim_cell(mix, name, params);
            costs.add(p, start.elapsed().as_nanos() as u64, &stats);
        }
    }
    costs.report()
}

struct Passes {
    mixes: Vec<Mix>,
    params: MpParams,
    /// Trace accesses per cell, once known.
    accesses: HashMap<(usize, usize), u64>,
}

impl Passes {
    fn new(seed: u64, scale: u64) -> Self {
        Passes {
            mixes: mixes(seed),
            params: MpParams {
                warmup: WARMUP / scale,
                measure: MEASURE / scale,
            },
            accesses: HashMap::new(),
        }
    }

    fn run(&self, checker: &mut Checker, timing: &mut Timing) {
        for (m, mix) in self.mixes.iter().enumerate() {
            for (p, name) in POLICIES.iter().enumerate() {
                let start = Instant::now();
                let result = run_cell(mix, name, self.params);
                timing.op(op_index(m, p), start.elapsed().as_secs_f64() * 1e3);
                let ok = invariants(&result, self.params.measure);
                checker.op(&cell_id(m, mix, name), check::multicore(&result), ok);
            }
        }
    }

    fn run_traced(
        &mut self,
        tracer: &mut Tracer,
        checker: &mut Checker,
        costs: &mut McCosts,
    ) -> u64 {
        let mut simulated = 0;
        for (m, mix) in self.mixes.iter().enumerate() {
            for (p, name) in POLICIES.iter().enumerate() {
                let start = Instant::now();
                let (result, stats) = tracer.span(SPANS[p], || sim_cell(mix, name, self.params));
                costs.add(p, start.elapsed().as_nanos() as u64, &stats);
                let ok = invariants(&result, self.params.measure)
                    && self
                        .accesses
                        .get(&(m, p))
                        .is_none_or(|&a| a == accesses(&stats));
                checker.op(&cell_id(m, mix, name), check::multicore(&result), ok);
                self.accesses.insert((m, p), accesses(&stats));
                simulated += accesses(&stats);
            }
        }
        simulated
    }

    /// Trace accesses of one pass, once every cell's count is known.
    fn pass_accesses(&self) -> u64 {
        self.accesses.values().sum()
    }

    /// Every cell again with scalar kernels, built on `MulticoreSim` the
    /// way the runner builds it — a scalar-vs-SIMD cross-check of the
    /// predictor cells (LRU and Hawkeye use no kernel, so for them it
    /// only catches nondeterminism; `expected.tsv` is the gate). Also
    /// records each cell's access count.
    fn reference(&mut self, checker: &mut Checker, options: RuntimeOptions) {
        RuntimeOptions::from_env().no_simd(true).install();
        for (m, mix) in self.mixes.iter().enumerate() {
            for (p, name) in POLICIES.iter().enumerate() {
                let (result, stats) = sim_cell(mix, name, self.params);
                checker.reference(&cell_id(m, mix, name), check::multicore(&result));
                let known = *self.accesses.entry((m, p)).or_insert(accesses(&stats));
                if known != accesses(&stats) {
                    let reason = format!("{known} accesses, reference {}", accesses(&stats));
                    checker.fail_cell(&cell_id(m, mix, name), reason);
                }
            }
        }
        options.install();
    }
}

/// Set-up: draw the mixes and run the first one under every policy, so
/// lazy initialisation and first-touch page faults land before timing.
/// The untraced run repeats it before every pass.
fn setup(seed: u64) -> f64 {
    let start = Instant::now();
    let mut warm = Passes::new(seed, 1);
    warm.mixes.truncate(1);
    warm.run(&mut Checker::new(HashMap::new()), &mut Timing::default());
    start.elapsed().as_secs_f64()
}

pub fn end_to_end(cfg: &RunConfig, checker: &mut Checker) -> Report {
    let mut timing = Timing::default();
    let mut passes = Passes::new(cfg.seed, 1);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        timing.setup_s.push(setup(cfg.seed));
        passes.run(checker, &mut timing);
    }
    timing.peak_rss_mb = crate::report::peak_rss_mb();
    passes.reference(checker, cfg.options);
    for (&(m, p), &accesses) in &passes.accesses {
        timing.accesses(op_index(m, p), accesses);
    }
    timing.end_to_end()
}

pub fn traced(cfg: &RunConfig, checker: &mut Checker) -> Report {
    setup(cfg.seed);
    let mut passes = Passes::new(cfg.seed, 1);
    let mut tracer = Tracer::new();
    let mut costs = McCosts::default();
    let (mut plain_s, mut plain_passes, mut traced_s, mut traced_acc) = (0.0, 0u64, 0.0, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds || traced_acc == 0 {
        let t = Instant::now();
        passes.run(checker, &mut Timing::default());
        plain_s += t.elapsed().as_secs_f64();
        plain_passes += 1;
        let t = Instant::now();
        traced_acc += passes.run_traced(&mut tracer, checker, &mut costs);
        traced_s += t.elapsed().as_secs_f64();
    }
    tracer.write_summary("mc-mix traced passes");
    let plain_acc = plain_passes * passes.pass_accesses();

    let first = &passes.mixes[0];
    let streams = Streams {
        items: first
            .workloads()
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w, first.seed().wrapping_add(i as u64)))
            .collect(),
        config: HierarchyConfig::multi_core(),
        warmup: WARMUP,
        measure: MEASURE,
    };
    let (mut r, _) = layers::stream_probe(&streams);
    r.extend(costs.report());
    r.add("trace.ns_per_access", mix_fill_ns(&passes), "ns");
    let cells: u64 = SPANS.iter().map(|s| tracer.totals()[s].total_ns).sum();
    r.add(
        "unattributed_frac",
        1.0 - cells as f64 / (traced_s * 1e9),
        "fraction",
    );
    r.add(
        "tracing_overhead_frac",
        1.0 - (traced_acc as f64 / traced_s) / (plain_acc as f64 / plain_s),
        "fraction",
    );
    r.extend(crate::fleet::probe(cfg));
    passes.reference(checker, cfg.options);
    r
}

/// Generator cost alone: every mix's four core traces filled for as
/// many accesses as its LRU cell consumed, split evenly across cores.
fn mix_fill_ns(passes: &Passes) -> f64 {
    let (mut ns, mut filled) = (0u64, 0u64);
    let mut buf = Vec::new();
    for (m, mix) in passes.mixes.iter().enumerate() {
        let per_core = (passes.accesses[&(m, 0)] / 4) as usize;
        for (i, w) in mix.workloads().iter().enumerate() {
            let mut trace = w.trace(mix.seed().wrapping_add(i as u64));
            buf.clear();
            let start = Instant::now();
            trace.fill(per_core, &mut buf);
            ns += start.elapsed().as_nanos() as u64;
            filled += buf.len() as u64;
            std::hint::black_box(&buf);
        }
    }
    ns as f64 / filled as f64
}

/// Fingerprints of one pass at `seed`, in `expected.tsv` form.
pub fn fingerprints(seed: u64) -> Vec<(String, u64)> {
    let passes = Passes::new(seed, 1);
    let mut out = Vec::new();
    for (m, mix) in passes.mixes.iter().enumerate() {
        for name in POLICIES {
            let result = run_cell(mix, name, passes.params);
            out.push((cell_id(m, mix, name), check::multicore(&result)));
        }
    }
    out
}
