//! Layer probes for the traced run.
//!
//! Each probe times calls into one layer from the benchmark's own code.
//! Every traced run reports every per-layer metric: a layer the workload
//! runs itself is measured on its own operations (see the workload
//! modules), and the others are probed here on the workload's inputs —
//! its trace streams, a mix of them, and a fleet at its seed.

use std::time::Instant;

use mrp_cache::{Cache, HierarchyConfig, LlcRecording};
use mrp_core::EngineConfig;
use mrp_cpu::replay_single;
use mrp_trace::workloads::Trace;
use mrp_trace::{MemoryAccess, Workload};

use crate::report::{median, Report};
use crate::spans::Tracer;
use crate::st_sweep::{policy, POLICIES};

/// Accesses generated per `Trace::fill` call.
const FILL_CHUNK: usize = 4096;
/// Host seconds a stream probe keeps repeating its passes for.
const PROBE_SECONDS: f64 = 3.0;

/// An access iterator that pre-fills through `Trace::fill` in chunks and
/// times each fill, so the generator's cost can be separated from the
/// private levels that consume the accesses.
pub struct Prefill {
    trace: Trace,
    buf: Vec<MemoryAccess>,
    pos: usize,
    /// Host time spent inside `Trace::fill`.
    fill_ns: u64,
    /// Accesses generated.
    filled: u64,
}

impl Prefill {
    pub fn new(trace: Trace) -> Self {
        Prefill {
            trace,
            buf: Vec::with_capacity(FILL_CHUNK),
            pos: 0,
            fill_ns: 0,
            filled: 0,
        }
    }

    /// Accesses handed out so far (generated minus still buffered).
    pub fn consumed(&self) -> u64 {
        self.filled - (self.buf.len() - self.pos) as u64
    }
}

impl Iterator for Prefill {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let start = Instant::now();
            self.trace.fill(FILL_CHUNK, &mut self.buf);
            self.fill_ns += start.elapsed().as_nanos() as u64;
            self.filled += self.buf.len() as u64;
        }
        let access = self.buf[self.pos];
        self.pos += 1;
        Some(access)
    }
}

/// Records `workload`'s stream inside a `record` span whose `trace`
/// child holds the generator's share. Returns the recording and the
/// number of trace accesses it consumed.
pub fn traced_record(
    tracer: &mut Tracer,
    workload: &Workload,
    seed: u64,
    config: &HierarchyConfig,
    warmup: u64,
    measure: u64,
) -> (LlcRecording, u64) {
    let mut prefill = Prefill::new(workload.trace(seed));
    tracer.begin("record");
    let rec = LlcRecording::record(workload.name(), &mut prefill, config, warmup, measure);
    tracer.child_elapsed("trace", prefill.fill_ns);
    tracer.end();
    (rec, prefill.consumed())
}

/// Trace streams a probe runs: (workload, trace seed) pairs recorded
/// through one hierarchy at one scale.
pub struct Streams {
    pub items: Vec<(Workload, u64)>,
    pub config: HierarchyConfig,
    pub warmup: u64,
    pub measure: u64,
}

/// Per-unit layer costs of the recorded-stream layers.
pub struct StreamCosts {
    /// `llc.<policy>.ns_per_llc_event`, in [`POLICIES`] order.
    pub llc_ns: Vec<f64>,
    /// `timing.ns_per_event`.
    pub timing_ns: f64,
}

/// Probes the stream layers on `streams` for about [`PROBE_SECONDS`]
/// (at least one pass): trace generation and the private levels while
/// recording, engine construction, `replay_llc` on a fresh engine under
/// every policy, and `replay_single` minus `replay_llc` under LRU for
/// the timing model. Per-pass values are reduced by their median.
pub fn stream_probe(streams: &Streams) -> (Report, StreamCosts) {
    let start = Instant::now();
    let mut trace_ns = Vec::new();
    let mut private_ns = Vec::new();
    let mut build_us = Vec::new();
    let mut llc_ns: Vec<Vec<f64>> = vec![Vec::new(); POLICIES.len()];
    let mut timing_ns = Vec::new();
    let mut events_per_access = 0.0;
    let lru = POLICIES
        .iter()
        .position(|&p| p == "lru")
        .expect("lru listed");
    while trace_ns.is_empty() || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let mut tracer = Tracer::new();
        let mut recs = Vec::new();
        let mut accesses = 0u64;
        for (workload, seed) in &streams.items {
            let (rec, consumed) = traced_record(
                &mut tracer,
                workload,
                *seed,
                &streams.config,
                streams.warmup,
                streams.measure,
            );
            if trace_ns.is_empty() {
                eprintln!(
                    "# record.llc_events_per_access {:<18} {:.6}",
                    workload.name(),
                    rec.llc_len() as f64 / consumed as f64
                );
            }
            accesses += consumed;
            recs.push(rec);
        }
        let llc_events: usize = recs.iter().map(LlcRecording::llc_len).sum();
        let events: usize = recs.iter().map(LlcRecording::len).sum();
        events_per_access = llc_events as f64 / accesses as f64;
        trace_ns.push(tracer.self_ns("trace") as f64 / accesses as f64);
        private_ns.push(tracer.self_ns("record") as f64 / accesses as f64);

        let llc = streams.config.llc;
        let mut builds = 0u64;
        let mut build_total_ns = 0u64;
        let mut lru_single_ns = 0u64;
        for (p, name) in POLICIES.iter().enumerate() {
            let mut ns = 0u64;
            for rec in &recs {
                let t = Instant::now();
                let mut engine = EngineConfig::new(llc)
                    .policy_with(move |g| policy(name, g))
                    .label(rec.name())
                    .build();
                build_total_ns += t.elapsed().as_nanos() as u64;
                builds += 1;
                let t = Instant::now();
                rec.replay_llc(engine.cache_mut());
                ns += t.elapsed().as_nanos() as u64;
                std::hint::black_box(engine.cache().stats());
                if p == lru {
                    let mut cache = Cache::new(llc, policy(name, &llc));
                    let t = Instant::now();
                    std::hint::black_box(replay_single(rec, &mut cache, &streams.config.latencies));
                    lru_single_ns += t.elapsed().as_nanos() as u64;
                }
            }
            llc_ns[p].push(ns as f64 / llc_events as f64);
            if p == lru {
                timing_ns.push((lru_single_ns as f64 - ns as f64) / events as f64);
            }
        }
        build_us.push(build_total_ns as f64 / builds as f64 / 1e3);
    }

    let mut r = Report::default();
    r.add("trace.ns_per_access", median(&trace_ns), "ns");
    r.add("private.ns_per_access", median(&private_ns), "ns");
    r.add(
        "record.llc_events_per_access",
        events_per_access,
        "events/access",
    );
    r.add("engine.build_us", median(&build_us), "us");
    let costs = StreamCosts {
        llc_ns: llc_ns.iter().map(|v| median(v)).collect(),
        timing_ns: median(&timing_ns),
    };
    for (name, ns) in POLICIES.iter().zip(&costs.llc_ns) {
        r.add(format!("llc.{name}.ns_per_llc_event"), *ns, "ns");
    }
    let mpppb = POLICIES
        .iter()
        .position(|&p| p == "mpppb")
        .expect("mpppb listed");
    r.add(
        "predictor.ns_per_llc_event",
        costs.llc_ns[mpppb] - costs.llc_ns[lru],
        "ns",
    );
    r.add("timing.ns_per_event", costs.timing_ns, "ns");
    (r, costs)
}
