//! Metric values, the statistics behind them, and the result line.

use mrp_obs::Json;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn extend(&mut self, other: Report) {
        for (name, value, unit) in other.metrics {
            self.add(name, value, unit);
        }
    }

    /// Prints one `name value unit` line per metric on stdout.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>16.6} {unit}");
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::F64(*value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, and its value: nearest rank `n - 10`, the eleventh-largest
/// sample. A fixed ladder of percentiles would jump from one rung to the
/// next as the sample count crosses a threshold; this moves smoothly.
/// Falls back to the maximum below eleven samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (100.0, v[n - 1]);
    }
    let rank = n - TAIL_BEYOND;
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// The process's resident-memory high-water mark in MiB, from
/// `/proc/self/status` (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank upper decile of `values`.
pub fn upper_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "decile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(9 * v.len()).div_ceil(10) - 1]
}

/// Latency samples of one operation and the trace accesses it simulates.
#[derive(Debug, Default)]
struct Op {
    ms: Vec<f64>,
    accesses: Option<u64>,
}

/// What a workload's untraced run measured.
///
/// A run repeats a fixed list of operations in passes until its time is
/// up. The host alternates between a steady contended state and
/// erratic faster bursts lasting seconds, and how much of a run falls in
/// the bursts differs from run to run. So each operation's latency is
/// the upper decile of its repeats, which reads the steady state
/// whenever it holds a tenth of the run, and every figure is built from
/// those per-operation latencies.
#[derive(Debug, Default)]
pub struct Timing {
    /// One sample per repeated set-up.
    pub setup_s: Vec<f64>,
    ops: Vec<Op>,
    /// Timed work of a pass that is not an operation (the `st-sweep`
    /// recordings), by step.
    steps: Vec<Vec<f64>>,
    /// Resident-memory high-water mark after the timed phase.
    pub peak_rss_mb: f64,
}

impl Timing {
    /// Records one run of operation `index`.
    pub fn op(&mut self, index: usize, ms: f64) {
        if self.ops.len() <= index {
            self.ops.resize_with(index + 1, Op::default);
        }
        self.ops[index].ms.push(ms);
    }

    /// Sets the trace accesses operation `index` simulates.
    pub fn accesses(&mut self, index: usize, accesses: u64) {
        if self.ops.len() <= index {
            self.ops.resize_with(index + 1, Op::default);
        }
        self.ops[index].accesses = Some(accesses);
    }

    /// Records one run of the non-operation step `index`.
    pub fn step(&mut self, index: usize, ms: f64) {
        if self.steps.len() <= index {
            self.steps.resize_with(index + 1, Vec::new);
        }
        self.steps[index].push(ms);
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self) -> Report {
        let latency: Vec<f64> = self.ops.iter().map(|op| upper_decile(&op.ms)).collect();
        let accesses: u64 = self
            .ops
            .iter()
            .map(|op| op.accesses.expect("accesses of every operation"))
            .sum();
        let steps_ms: f64 = self.steps.iter().map(|s| upper_decile(s)).sum();
        let pass_ms = latency.iter().sum::<f64>() + steps_ms;
        let repeats = self.ops.iter().map(|op| op.ms.len()).min().unwrap_or(0);
        eprintln!(
            "# {} operations, each repeated at least {repeats} times; a pass at their upper-decile latencies takes {pass_ms:.1} ms",
            latency.len()
        );
        let mut r = Report::default();
        r.add(
            "sim_maccess_per_s",
            accesses as f64 / pass_ms / 1e3,
            "Maccess/s",
        );
        r.add("op_ms_p50", median(&latency), "ms");
        let (p, value) = tail(&latency);
        eprintln!("# op_ms_tail is p{p:.2} of {} operations", latency.len());
        r.add("op_ms_tail", value, "ms");
        r.add("setup_s", median(&self.setup_s), "s");
        r.add("peak_rss_mb", self.peak_rss_mb, "MiB");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        // 250 samples: rank 240 (p96) leaves exactly ten beyond it.
        assert_eq!(tail(&v), (96.0, 240.0));
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&v), (100.0, 5.0));
    }

    #[test]
    fn upper_decile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(upper_decile(&v), 18.0);
        assert_eq!(upper_decile(&[4.0, 1.0, 3.0, 2.0]), 4.0);
        assert_eq!(upper_decile(&[7.0]), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
