//! Analytic out-of-order core timing model.

/// Pipeline parameters (paper §4.1: 4-wide, 128-entry window, 8 stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreModelConfig {
    /// Instructions issued/retired per cycle.
    pub width: u32,
    /// Instruction window (ROB) capacity.
    pub window: u32,
}

impl Default for CoreModelConfig {
    fn default() -> Self {
        CoreModelConfig {
            width: 4,
            window: 128,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct InFlight {
    completes_at: u64,
    instructions: u32,
}

/// Trace-granularity out-of-order timing approximation.
///
/// The model charges three constraints, taking the binding one:
///
/// 1. **Issue bandwidth** — the cycle count can never be lower than
///    `instructions / width`.
/// 2. **Window occupancy** — a memory access and its preceding non-memory
///    instructions occupy window slots from issue until the access
///    completes; when the window is full the core stalls until the oldest
///    entry completes (in-order retirement).
/// 3. **Dependencies** — an access flagged `dependent` cannot issue before
///    the previous access's data returns.
///
/// Together these reproduce the first-order behavior the paper's
/// experiments measure: independent misses overlap up to the window limit
/// (memory-level parallelism), dependent misses serialize, and IPC
/// degrades smoothly with MPKI.
///
/// The window is a fixed ring of in-flight entries. Every retire carries
/// at least one instruction (an access plus its `non_memory_before`
/// gap, 1–256, clamped to the window), and entries leave before their
/// instructions would overfill the window, so at most `window` entries
/// are ever in flight.
#[derive(Debug)]
pub struct CoreModel {
    config: CoreModelConfig,
    /// `log2(width)` when the width is a power of two — the
    /// bandwidth-floor division on the retire path becomes a shift.
    width_shift: Option<u32>,
    cycle: u64,
    issued_instructions: u64,
    /// In-flight entries, oldest at `head`; capacity is a power of two
    /// of at least `window`.
    ring: Box<[InFlight]>,
    head: usize,
    len: usize,
    window_occupancy: u32,
    previous_completion: u64,
}

impl CoreModel {
    /// Creates an idle core.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero width or window.
    pub fn new(config: CoreModelConfig) -> Self {
        assert!(config.width > 0, "width must be nonzero");
        assert!(config.window > 0, "window must be nonzero");
        CoreModel {
            config,
            width_shift: config
                .width
                .is_power_of_two()
                .then(|| config.width.trailing_zeros()),
            cycle: 0,
            issued_instructions: 0,
            ring: vec![InFlight::default(); (config.window as usize).next_power_of_two()]
                .into_boxed_slice(),
            head: 0,
            len: 0,
            window_occupancy: 0,
            previous_completion: 0,
        }
    }

    #[inline]
    fn front(&self) -> InFlight {
        self.ring[self.head]
    }

    #[inline]
    fn pop_front(&mut self) {
        self.window_occupancy -= self.ring[self.head].instructions;
        self.head = (self.head + 1) & (self.ring.len() - 1);
        self.len -= 1;
    }

    /// Accounts one memory access that completed with `latency` cycles,
    /// representing `instructions` total retired instructions (the access
    /// plus preceding non-memory work); `dependent` serializes it behind
    /// the previous access.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero: every retire carries the access
    /// itself, and the fixed window ring relies on it.
    pub fn retire_access(&mut self, instructions: u32, latency: u64, dependent: bool) {
        assert!(instructions > 0, "a retire carries at least the access");
        let instructions = instructions.min(self.config.window);
        self.issued_instructions += u64::from(instructions);

        // Retire already-completed entries for free.
        while self.len > 0 && self.front().completes_at <= self.cycle {
            self.pop_front();
        }

        // Stall for window space (in-order retirement).
        while self.window_occupancy + instructions > self.config.window {
            debug_assert!(self.len > 0, "occupancy implies entries");
            self.cycle = self.cycle.max(self.front().completes_at);
            self.pop_front();
        }

        // Issue-bandwidth floor.
        let bandwidth_floor = match self.width_shift {
            Some(shift) => self.issued_instructions >> shift,
            None => self.issued_instructions / u64::from(self.config.width),
        };
        self.cycle = self.cycle.max(bandwidth_floor);

        // Dependency serialization.
        let issue_at = if dependent {
            self.cycle.max(self.previous_completion)
        } else {
            self.cycle
        };

        let completes_at = issue_at + latency;
        self.previous_completion = completes_at;
        // At most `window` one-or-more-instruction entries fit.
        debug_assert!(self.len < self.ring.len(), "window ring overflow");
        let tail = (self.head + self.len) & (self.ring.len() - 1);
        self.ring[tail] = InFlight {
            completes_at,
            instructions,
        };
        self.len += 1;
        self.window_occupancy += instructions;
    }

    /// Cycle count if the core drained its window now.
    pub fn drained_cycles(&self) -> u64 {
        let last = if self.len == 0 {
            self.cycle
        } else {
            self.ring[(self.head + self.len - 1) & (self.ring.len() - 1)].completes_at
        };
        last.max(self.cycle)
            .max(self.issued_instructions / u64::from(self.config.width))
    }

    /// The core-local clock *without* draining (used for multi-core
    /// interleaving order).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions issued so far.
    pub fn instructions(&self) -> u64 {
        self.issued_instructions
    }

    /// Instructions per cycle over everything retired so far.
    pub fn ipc(&self) -> f64 {
        let cycles = self.drained_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.issued_instructions as f64 / cycles as f64
        }
    }

    /// Resets the clock and counters but keeps the configuration — used
    /// at the warmup/measurement boundary.
    pub fn reset_counters(&mut self) {
        self.cycle = 0;
        self.issued_instructions = 0;
        self.head = 0;
        self.len = 0;
        self.window_occupancy = 0;
        self.previous_completion = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CoreModel {
        CoreModel::new(CoreModelConfig::default())
    }

    #[test]
    fn all_hits_run_at_pipeline_width() {
        let mut m = model();
        for _ in 0..1000 {
            m.retire_access(4, 4, false);
        }
        let ipc = m.ipc();
        assert!(ipc > 3.5, "hit-only IPC should approach width: {ipc}");
    }

    #[test]
    fn independent_misses_overlap() {
        let mut serial = model();
        let mut overlapped = model();
        for _ in 0..200 {
            overlapped.retire_access(4, 254, false);
            serial.retire_access(4, 254, true);
        }
        assert!(
            overlapped.drained_cycles() * 4 < serial.drained_cycles(),
            "window should overlap independent misses: {} vs {}",
            overlapped.drained_cycles(),
            serial.drained_cycles()
        );
    }

    #[test]
    fn dependent_misses_serialize_fully() {
        let mut m = model();
        const N: u64 = 100;
        const LAT: u64 = 254;
        for _ in 0..N {
            m.retire_access(4, LAT, true);
        }
        assert!(
            m.drained_cycles() >= N * LAT,
            "cycles: {}",
            m.drained_cycles()
        );
    }

    #[test]
    fn window_bounds_mlp() {
        // 32-instruction window, accesses of 8 instructions => at most 4
        // concurrent misses.
        let mut m = CoreModel::new(CoreModelConfig {
            width: 4,
            window: 32,
        });
        const N: u64 = 100;
        const LAT: u64 = 200;
        for _ in 0..N {
            m.retire_access(8, LAT, false);
        }
        let cycles = m.drained_cycles();
        // With MLP 4: ~ N/4 * LAT.
        assert!(cycles >= N / 4 * LAT, "cycles too low: {cycles}");
        assert!(cycles <= N / 4 * LAT + 2 * LAT, "cycles too high: {cycles}");
    }

    #[test]
    fn higher_latency_lowers_ipc() {
        let mut fast = model();
        let mut slow = model();
        for _ in 0..500 {
            fast.retire_access(4, 16, true);
            slow.retire_access(4, 254, true);
        }
        assert!(fast.ipc() > slow.ipc());
    }

    #[test]
    fn reset_clears_state() {
        let mut m = model();
        m.retire_access(4, 100, false);
        m.reset_counters();
        assert_eq!(m.instructions(), 0);
        assert_eq!(m.drained_cycles(), 0);
    }

    #[test]
    fn ipc_of_idle_core_is_zero() {
        assert_eq!(model().ipc(), 0.0);
    }
}
