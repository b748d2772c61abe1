//! Energy-kernel work accounting: how much arithmetic the exact stride
//! kernel behind `PowerSystem::advance` (qz-energy) spent.
//!
//! Like [`HorizonStats`](crate::HorizonStats) these are deterministic
//! counts, no clocks: they repeat exactly across machines and thread
//! counts, so a kernel change can be judged by them exactly where wall
//! time is noisy. The kernel counts only into an enabled
//! [`PhaseProfiler`](crate::PhaseProfiler), which carries them.

use qz_types::json::{WriteJson, Writer};

/// Work counts of the energy kernel, summed over `advance` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// `advance` calls.
    pub calls: u64,
    /// Single-tick evaluations: probes and stride certificates alike.
    pub ticks: u64,
    /// Stride jumps committed (runs of more than one tick).
    pub strides: u64,
    /// Strides whose last tick failed its certificate, so the jump was
    /// bisected.
    pub bisections: u64,
    /// Of those, the ones whose last tick failed only the stop
    /// predicate. The kernel caps a stride before its stop crossing, so
    /// this reads 0 unless that cap is wrong.
    pub stop_only_bisections: u64,
    /// Calls that ended on a stop crossing.
    pub crossings: u64,
    /// Ledger sums (`repeat_add` calls).
    pub repeat_adds: u64,
}

impl KernelStats {
    /// Folds another run's counts into these (fleet and campaign merges).
    pub fn merge(&mut self, other: &KernelStats) {
        self.calls += other.calls;
        self.ticks += other.ticks;
        self.strides += other.strides;
        self.bisections += other.bisections;
        self.stop_only_bisections += other.stop_only_bisections;
        self.crossings += other.crossings;
        self.repeat_adds += other.repeat_adds;
    }

    /// One summary line for `qz profile`.
    pub fn render_line(&self) -> String {
        format!(
            "energy kernel: {} call(s), {} tick evaluation(s), {} stride(s), {} bisection(s) \
             ({} stop-only), {} stop crossing(s), {} repeat_add(s)\n",
            self.calls,
            self.ticks,
            self.strides,
            self.bisections,
            self.stop_only_bisections,
            self.crossings,
            self.repeat_adds,
        )
    }
}

/// The seven counts as one JSON object, keyed by field name.
impl WriteJson for KernelStats {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("calls", self.calls)
                .field("ticks", self.ticks)
                .field("strides", self.strides)
                .field("bisections", self.bisections)
                .field("stop_only_bisections", self.stop_only_bisections)
                .field("crossings", self.crossings)
                .field("repeat_adds", self.repeat_adds);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_counter_and_the_line_names_them() {
        let one = KernelStats {
            calls: 1,
            ticks: 2,
            strides: 3,
            bisections: 4,
            stop_only_bisections: 5,
            crossings: 6,
            repeat_adds: 7,
        };
        let mut sum = one;
        sum.merge(&one);
        assert_eq!(
            sum,
            KernelStats {
                calls: 2,
                ticks: 4,
                strides: 6,
                bisections: 8,
                stop_only_bisections: 10,
                crossings: 12,
                repeat_adds: 14,
            }
        );
        assert_eq!(
            one.render_line(),
            "energy kernel: 1 call(s), 2 tick evaluation(s), 3 stride(s), 4 bisection(s) \
             (5 stop-only), 6 stop crossing(s), 7 repeat_add(s)\n"
        );
    }
}
