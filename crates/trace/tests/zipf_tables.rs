//! The process-wide Zipf table interner is invisible in the traces: a
//! trace built on an interned table equals one built on a fresh table, and
//! concurrent builds of equal or different keys agree with serial ones.
//!
//! This binary runs in its own process and every test here holds
//! [`serial`], so no other code touches the interner while a test runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use mrp_trace::generators::ZipfSampler;
use mrp_trace::workloads::{suite, Trace};
use mrp_trace::{MemoryAccess, Workload};

const SEED: u64 = 20_261_017;
const ACCESSES: usize = 10_000;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drops every interned table nothing holds: a miss on a key no earlier
/// call used evicts all unreferenced entries before it inserts its own.
fn evict_unheld() {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let theta = 100.0 + NEXT.fetch_add(1, Ordering::Relaxed) as f64;
    drop(ZipfSampler::new(1, theta));
}

fn head(workload: &Workload) -> Vec<MemoryAccess> {
    let mut out = Vec::with_capacity(ACCESSES);
    workload.trace(SEED).fill(ACCESSES, &mut out);
    out
}

fn workload(name: &str) -> Workload {
    suite()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("no suite workload {name}"))
}

#[test]
fn interned_and_fresh_tables_give_identical_suite_traces() {
    let _serial = serial();
    let workloads = suite();
    // Every table each of these traces builds is a miss.
    let fresh: Vec<Vec<MemoryAccess>> = workloads
        .iter()
        .map(|w| {
            evict_unheld();
            head(w)
        })
        .collect();
    // Held side by side, traces whose keys differ only in θ (2^18 ranks
    // at 1.2, 0.5 and 0.9) must not share a table...
    evict_unheld();
    let mut held: Vec<Trace> = workloads.iter().map(|w| w.trace(SEED)).collect();
    for ((w, want), trace) in workloads.iter().zip(&fresh).zip(&mut held) {
        // ...and, while `held` holds every table, these builds all hit.
        let mut interned = w.trace(SEED);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        trace.fill(ACCESSES, &mut a);
        interned.fill(ACCESSES, &mut b);
        assert_eq!(want, &a, "{}", w.name());
        assert_eq!(want, &b, "{}", w.name());
    }
}

#[test]
fn concurrent_builds_match_serial_builds() {
    let _serial = serial();
    // Two threads race on each key, and the two keys race each other.
    let names = ["zipf.hot", "zipf.hot", "btree.probe", "btree.probe"];
    let workloads: Vec<Workload> = names.iter().map(|name| workload(name)).collect();
    let expected: Vec<Vec<MemoryAccess>> = workloads
        .iter()
        .map(|w| {
            evict_unheld();
            head(w)
        })
        .collect();
    for _round in 0..3 {
        evict_unheld();
        let barrier = Barrier::new(workloads.len());
        let got: Vec<Vec<MemoryAccess>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workloads
                .iter()
                .map(|w| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        head(w)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("builder thread panicked"))
                .collect()
        });
        for ((name, want), got) in names.iter().zip(&expected).zip(&got) {
            assert_eq!(want, got, "{name}");
        }
    }
}
