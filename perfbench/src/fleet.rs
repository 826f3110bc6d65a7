//! `fleet`: the `mrp-serve` fleet as a closed loop.
//!
//! 16 tenants with MPPPB engines and confidence tracking, sharded over
//! as many shards as `mrp-runtime` threads (at most 2, and at most
//! `nproc`). The next round starts when the last one finishes. Set-up is
//! `Fleet::new` plus the warmup rounds. An operation is one round; the
//! rate is wall time around the measured rounds only.
//!
//! A pass serves [`FLEETS`] fleets in turn, each built afresh for
//! [`ROUNDS`] measured rounds, with traffic seeds derived from the run's
//! seed; passes repeat until the time is up, so every round is repeated.
//! A pass samples many fleets for a few rounds each rather than one
//! fleet for long (see [`fleet_seed`]). Their set-ups are the run's
//! set-up samples.

use std::time::Instant;

use mrp_core::RuntimeOptions;
use mrp_obs::FleetManifest;
use mrp_serve::{Fleet, FleetConfig, TenantTraffic};
use mrp_trace::Mix;

use crate::check::{self, Checker};
use crate::layers::{self, Streams};
use crate::report::{Report, Timing};
use crate::spans::Tracer;
use crate::RunConfig;

/// Tenants in the fleet.
pub const TENANTS: usize = 16;
/// Rounds run during set-up, excluded from the measurement.
pub const WARMUP_ROUNDS: u64 = 2;
/// Fleets served per pass.
pub const FLEETS: u64 = 32;
/// Measured rounds per fleet and pass. Short passes give every round
/// many repeats in a run.
pub const ROUNDS: u64 = 4;
/// Fleets of a run replayed by the one-shard reference.
const REFERENCE_FLEETS: u64 = 2;
/// Rounds the one-shard reference fleets replay after the warmup.
pub const REFERENCE_ROUNDS: u64 = 4;
/// Measured rounds of the fleet probe other workloads' traced runs use.
const PROBE_ROUNDS: u64 = 32;
/// Rounds of traffic the generator probe replays.
const TRAFFIC_PROBE_ROUNDS: u64 = 32;

fn config(seed: u64, shards: usize, options: RuntimeOptions) -> FleetConfig {
    let mut config = FleetConfig::new(TENANTS, shards, seed);
    config.options = options;
    config
}

/// Traffic seed of fleet `k` of a run at `seed`: the first seed of a
/// sequence drawn from `seed` whose most popular tenant runs suite trace
/// `k` and bursts in the measured rounds exactly when `k % 4 == 0` (the
/// traffic model's burst odds). That tenant carries about a third of
/// the traffic and sets the round latency, so fixing its trace and burst
/// state per fleet keeps the seed from deciding how costly a pass is;
/// the other tenants, every stream and every later burst still follow
/// `seed`.
fn fleet_seed(seed: u64, k: u64) -> u64 {
    let suite = mrp_trace::workloads::suite().len();
    let bursting = k.is_multiple_of(4);
    (0u64..)
        .map(|i| splitmix(seed ^ splitmix(k << 32 | i)))
        .find(|&candidate| {
            let traffic = config(candidate, 1, RuntimeOptions::default()).traffic;
            let whale = traffic.tenant_specs()[0];
            whale.workload == k as usize % suite
                && (traffic.quota(&whale, WARMUP_ROUNDS) > whale.base_quota) == bursting
        })
        .expect("a seed matching every fleet exists")
}

/// SplitMix64 finalizer.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn round_id(k: u64, round: u64) -> String {
    format!("fleet{k}/round-{round}")
}

/// Builds a fleet on traffic seed `traffic_seed` and runs its warmup
/// rounds; returns it with the set-up time.
fn setup(cfg: &RunConfig, traffic_seed: u64) -> (Fleet, f64) {
    let start = Instant::now();
    let mut fleet = Fleet::new(config(traffic_seed, cfg.threads, cfg.options));
    fleet.run_rounds(WARMUP_ROUNDS);
    (fleet, start.elapsed().as_secs_f64())
}

/// Runs one measured round of fleet `k` and checks it. Returns (wall
/// ns, accesses).
fn round(fleet: &mut Fleet, k: u64, checker: &mut Checker) -> (u64, u64) {
    let round = fleet.rounds();
    let start = Instant::now();
    let processed = fleet.run_round();
    let ns = start.elapsed().as_nanos() as u64;
    let snapshots = fleet.tenant_snapshots();
    let traffic = fleet.config().traffic;
    let quota: u64 = traffic
        .tenant_specs()
        .iter()
        .map(|spec| traffic.quota(spec, round))
        .sum();
    let ok = processed == quota
        && snapshots.iter().map(|s| s.processed).sum::<u64>() == fleet.processed()
        && snapshots.iter().all(|s| {
            s.llc.demand_accesses() == s.processed
                && s.confidence
                    .as_ref()
                    .is_some_and(|c| c.iter().sum::<u64>() == s.processed)
        });
    checker.op(&round_id(k, round + 1), check::engines(&snapshots), ok);
    (ns, processed)
}

/// The per-round results of one-shard fleets with scalar kernels and
/// window delivery off: sharding and kernels must not change them.
fn reference(cfg: &RunConfig, checker: &mut Checker, fleets: u64) {
    let options = RuntimeOptions::from_env().no_simd(true).no_window(true);
    for k in 0..fleets {
        let mut fleet = Fleet::new(config(fleet_seed(cfg.seed, k), 1, options));
        fleet.run_rounds(WARMUP_ROUNDS);
        for _ in 0..REFERENCE_ROUNDS {
            fleet.run_round();
            let fp = check::engines(&fleet.tenant_snapshots());
            checker.reference(&round_id(k, fleet.rounds()), fp);
        }
    }
    cfg.options.install();
}

/// Warns when the wall rate exceeds per-core drain x threads, which
/// would mean the drain clock under-counts.
fn check_drain_clock(fleet: &Fleet, wall_rate: f64, threads: usize) {
    let per_core = fleet.drain_accesses_per_sec();
    if wall_rate > per_core * threads as f64 {
        eprintln!(
            "# WARNING fleet wall rate {wall_rate:.0}/s exceeds per-core drain {per_core:.0}/s x {threads} threads: the drain clock under-counts"
        );
    }
}

/// Generator cost alone: fresh tenant streams filled for the quotas of
/// `rounds` rounds starting at `first`, through `TenantTraffic::fill`.
fn traffic_ns_per_access(fleet: &Fleet, first: u64, rounds: u64) -> f64 {
    let traffic = fleet.config().traffic;
    let (mut ns, mut filled) = (0u64, 0u64);
    let mut buf = Vec::new();
    for spec in traffic.tenant_specs() {
        let mut tenant = TenantTraffic::open(spec);
        for round in first..first + rounds {
            buf.clear();
            let start = Instant::now();
            filled += tenant.fill(&traffic, round, &mut buf);
            ns += start.elapsed().as_nanos() as u64;
            std::hint::black_box(&buf);
        }
    }
    ns as f64 / filled as f64
}

/// Drain-side figures over a measurement window, from the fleet's own
/// shard clocks and counters.
struct Window {
    /// Per-shard busy seconds inside `submit_batch`.
    busy_s: Vec<f64>,
    processed: u64,
    bypassed: u64,
}

fn window(start: &FleetManifest, end: &FleetManifest) -> Window {
    let mut w = Window {
        busy_s: Vec::new(),
        processed: 0,
        bypassed: 0,
    };
    for (a, b) in start.shards.iter().zip(&end.shards) {
        let processed = b.processed - a.processed;
        w.busy_s.push(if b.accesses_per_sec > 0.0 {
            processed as f64 / b.accesses_per_sec
        } else {
            0.0
        });
        w.processed += processed;
        w.bypassed += b.bypassed - a.bypassed;
    }
    w
}

/// The `serve.*` metrics for rounds measured since `start` (taken right
/// after `reset_drain_window`), with `wall_s` the summed round walls.
/// Returns them with the traffic and busy seconds they attribute.
fn serve_metrics(
    fleet: &Fleet,
    start: &FleetManifest,
    first_round: u64,
    wall_s: f64,
    threads: usize,
) -> (Report, f64, f64) {
    let w = window(start, &fleet.manifest());
    let rounds = (fleet.rounds() - first_round).min(TRAFFIC_PROBE_ROUNDS);
    let traffic_ns = traffic_ns_per_access(fleet, first_round, rounds);
    let traffic_s = traffic_ns * w.processed as f64 / 1e9;
    let busy_s: f64 = w.busy_s.iter().sum();
    let per_core = fleet.drain_accesses_per_sec();
    check_drain_clock(fleet, w.processed as f64 / wall_s, threads);
    let mut r = Report::default();
    r.add("serve.traffic.ns_per_access", traffic_ns, "ns");
    r.add(
        "serve.drain_per_core_maccess_per_s",
        per_core / 1e6,
        "Maccess/s",
    );
    r.add(
        "serve.parallel_efficiency",
        (traffic_s + busy_s) / (wall_s * threads as f64),
        "fraction",
    );
    let mean = busy_s / w.busy_s.len() as f64;
    let max = w.busy_s.iter().copied().fold(0.0, f64::max);
    r.add("serve.shard_imbalance", max / mean, "ratio");
    r.add(
        "serve.bypass_frac",
        w.bypassed as f64 / w.processed as f64,
        "fraction",
    );
    (r, traffic_s, busy_s)
}

/// The `serve.*` metrics of a fleet at the run's seed, for the traced
/// runs of workloads that do not serve.
pub fn probe(cfg: &RunConfig) -> Report {
    let (mut fleet, _) = setup(cfg, fleet_seed(cfg.seed, 0));
    fleet.reset_drain_window();
    let start = fleet.manifest();
    let first = fleet.rounds();
    let t = Instant::now();
    fleet.run_rounds(PROBE_ROUNDS);
    serve_metrics(
        &fleet,
        &start,
        first,
        t.elapsed().as_secs_f64(),
        cfg.threads,
    )
    .0
}

pub fn end_to_end(cfg: &RunConfig, checker: &mut Checker) -> Report {
    let mut timing = Timing::default();
    let seeds: Vec<u64> = (0..FLEETS).map(|k| fleet_seed(cfg.seed, k)).collect();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        for (k, &traffic_seed) in (0..FLEETS).zip(&seeds) {
            let (mut fleet, secs) = setup(cfg, traffic_seed);
            timing.setup_s.push(secs);
            fleet.reset_drain_window();
            let (mut wall_ns, mut accesses) = (0u64, 0u64);
            for r in 0..ROUNDS {
                let (ns, processed) = round(&mut fleet, k, checker);
                let op = (k * ROUNDS + r) as usize;
                timing.op(op, ns as f64 / 1e6);
                timing.accesses(op, processed);
                wall_ns += ns;
                accesses += processed;
            }
            check_drain_clock(&fleet, accesses as f64 / wall_ns as f64 * 1e9, cfg.threads);
        }
    }
    timing.peak_rss_mb = crate::report::peak_rss_mb();
    reference(cfg, checker, REFERENCE_FLEETS);
    timing.end_to_end()
}

/// Traces the first fleet of the run.
pub fn traced(cfg: &RunConfig, checker: &mut Checker) -> Report {
    let (mut fleet, _) = setup(cfg, fleet_seed(cfg.seed, 0));
    fleet.reset_drain_window();
    let start_manifest = fleet.manifest();
    let first = fleet.rounds();
    let mut tracer = Tracer::new();
    let (mut plain_ns, mut plain_acc, mut traced_ns, mut traced_acc) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds || traced_acc == 0 {
        let (ns, n) = round(&mut fleet, 0, checker);
        plain_ns += ns;
        plain_acc += n;
        let (ns, n) = tracer.span("serve.round", || round(&mut fleet, 0, checker));
        traced_ns += ns;
        traced_acc += n;
    }
    let phase_s = start.elapsed().as_secs_f64();
    tracer.write_summary("fleet traced rounds");
    let wall_s = (plain_ns + traced_ns) as f64 / 1e9;
    let (mut r, traffic_s, busy_s) =
        serve_metrics(&fleet, &start_manifest, first, wall_s, cfg.threads);
    let traffic_ns = r
        .get("serve.traffic.ns_per_access")
        .expect("traffic metric");

    let specs = fleet.config().traffic.tenant_specs();
    let streams = Streams {
        items: specs[..4].iter().map(|s| (s.workload(), s.seed)).collect(),
        config: mrp_cache::HierarchyConfig::single_thread(),
        warmup: crate::st_sweep::WARMUP,
        measure: crate::st_sweep::MEASURE,
    };
    let (probe, _) = layers::stream_probe(&streams);
    r.extend(probe);
    r.add("trace.ns_per_access", traffic_ns, "ns");
    r.add("engine.build_us", tenant_build_us(&fleet), "us");
    let ids = [0, 1, 2, 3].map(|i| specs[i].workload().id());
    r.extend(crate::mc_mix::probe(&[Mix::new(ids, cfg.seed)]));
    // Work on pool threads is attributed in thread-seconds.
    r.add(
        "unattributed_frac",
        1.0 - (traffic_s + busy_s) / (phase_s * cfg.threads as f64),
        "fraction",
    );
    r.add(
        "tracing_overhead_frac",
        1.0 - (traced_acc as f64 / traced_ns as f64) / (plain_acc as f64 / plain_ns as f64),
        "fraction",
    );
    drop(fleet);
    reference(cfg, checker, 1);
    r
}

/// Microseconds to build one tenant engine the way `Fleet::new` does.
fn tenant_build_us(fleet: &Fleet) -> f64 {
    let c = fleet.config();
    let mut samples = Vec::new();
    for tenant in 0..TENANTS {
        let start = Instant::now();
        let engine = c
            .policy
            .engine(c.llc)
            .label(format!("tenant-{tenant}"))
            .track_confidence(c.track_confidence)
            .build();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(engine.snapshot());
    }
    crate::report::median(&samples)
}

/// Per-round fingerprints of every measured round of a pass at `seed`,
/// in `expected.tsv` form.
pub fn fingerprints(seed: u64) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for k in 0..FLEETS {
        let config = config(fleet_seed(seed, k), 1, RuntimeOptions::from_env());
        let mut fleet = Fleet::new(config);
        fleet.run_rounds(WARMUP_ROUNDS);
        for _ in 0..ROUNDS {
            fleet.run_round();
            let fp = check::engines(&fleet.tenant_snapshots());
            out.push((round_id(k, fleet.rounds()), fp));
        }
    }
    out
}
