//! Sensing-environment presets (paper Table 1).
//!
//! The evaluation varies event activity across three environments by
//! capping the maximum event duration: **More Crowded** (600 s),
//! **Crowded** (60 s) and **Less Crowded** (20 s). The MSP430 experiment
//! (Fig. 13) uses a 10 s cap. Longer events mean more consecutive
//! "different" frames, a higher arrival rate λ into the input buffer, and
//! therefore more IBO pressure.

use crate::events::{EventTrace, EventTraceBuilder};
use crate::solar::{SolarTrace, SolarTraceBuilder};
use core::fmt;
use qz_types::SimDuration;

/// The named sensing environments from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EnvironmentKind {
    /// Maximum event duration 600 s — the heaviest IBO pressure.
    MoreCrowded,
    /// Maximum event duration 60 s — the paper's middle environment.
    Crowded,
    /// Maximum event duration 20 s — the lightest of the Apollo 4 set.
    LessCrowded,
    /// Maximum event duration 10 s with short interarrival gaps — the
    /// busier short-event scene used for the MSP430 experiment
    /// (Table 1's second block).
    Short,
    /// Maximum event duration 5 s with two-minute mean gaps — a sparse
    /// scene outside the paper's table, dominated by quiescent recharge
    /// and idle spans. Used to benchmark the fast-forward engine where
    /// it helps most.
    Quiet,
    /// Alternating storms and lulls: events capped at 2 s arriving in
    /// dense bursts separated by ~10 s quiet gaps. Outside the paper's
    /// table; built to exercise the mixed regime where the engine
    /// switches between bulk-advanced quiescent spans and busy
    /// reference ticks most often.
    Burst,
}

impl EnvironmentKind {
    /// All environments used in the Apollo 4 simulation study
    /// (Figs. 9–12), ordered most to least crowded as in the paper's
    /// x-axes.
    pub const APOLLO_SET: [EnvironmentKind; 3] = [
        EnvironmentKind::MoreCrowded,
        EnvironmentKind::Crowded,
        EnvironmentKind::LessCrowded,
    ];

    /// Maximum event duration for this environment (Table 1).
    pub fn max_event_duration(self) -> SimDuration {
        match self {
            EnvironmentKind::MoreCrowded => SimDuration::from_secs(600),
            EnvironmentKind::Crowded => SimDuration::from_secs(60),
            EnvironmentKind::LessCrowded => SimDuration::from_secs(20),
            EnvironmentKind::Short => SimDuration::from_secs(10),
            EnvironmentKind::Quiet => SimDuration::from_secs(5),
            EnvironmentKind::Burst => SimDuration::from_secs(2),
        }
    }

    /// Mean interarrival gap between events for this environment. The
    /// Apollo set shares one gap; the MSP430 short-event scene is busier
    /// and the Quiet scene far sparser.
    pub fn mean_gap(self) -> SimDuration {
        match self {
            EnvironmentKind::Short => SimDuration::from_secs(6),
            EnvironmentKind::Quiet => SimDuration::from_secs(120),
            EnvironmentKind::Burst => SimDuration::from_secs(10),
            _ => SimDuration::from_secs(20),
        }
    }

    /// Short label used in result tables ("More", "Crowded", "Less", …).
    pub fn label(self) -> &'static str {
        match self {
            EnvironmentKind::MoreCrowded => "MoreCrowded",
            EnvironmentKind::Crowded => "Crowded",
            EnvironmentKind::LessCrowded => "LessCrowded",
            EnvironmentKind::Short => "Short",
            EnvironmentKind::Quiet => "Quiet",
            EnvironmentKind::Burst => "Burst",
        }
    }

    /// Every environment, in declaration order.
    pub const ALL: [EnvironmentKind; 6] = [
        EnvironmentKind::MoreCrowded,
        EnvironmentKind::Crowded,
        EnvironmentKind::LessCrowded,
        EnvironmentKind::Short,
        EnvironmentKind::Quiet,
        EnvironmentKind::Burst,
    ];

    /// Stable command-line spelling (`qz --env`), as repro lines print it.
    pub fn token(self) -> &'static str {
        match self {
            EnvironmentKind::MoreCrowded => "more-crowded",
            EnvironmentKind::Crowded => "crowded",
            EnvironmentKind::LessCrowded => "less-crowded",
            EnvironmentKind::Short => "short",
            EnvironmentKind::Quiet => "quiet",
            EnvironmentKind::Burst => "burst",
        }
    }

    /// Parses a [`token`](Self::token), case-insensitively; `more`,
    /// `morecrowded`, `less` and `lesscrowded` are accepted aliases.
    pub fn parse(s: &str) -> Option<EnvironmentKind> {
        let kind = match s.to_ascii_lowercase().as_str() {
            "more" | "morecrowded" => EnvironmentKind::MoreCrowded,
            "less" | "lesscrowded" => EnvironmentKind::LessCrowded,
            other => *Self::ALL.iter().find(|k| k.token() == other)?,
        };
        Some(kind)
    }
}

impl fmt::Display for EnvironmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully generated sensing environment: event activity plus harvestable
/// power, covering the same horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct SensingEnvironment {
    kind: EnvironmentKind,
    events: EventTrace,
    solar: SolarTrace,
}

impl SensingEnvironment {
    /// Generates the environment with `event_count` events from the given
    /// seed. The solar trace covers the full event horizon (plus a drain
    /// margin) and is derived from the same seed so experiments are fully
    /// reproducible from `(kind, event_count, seed)`. The trace is
    /// generated, not sampled here: its samples are drawn as a
    /// [`SolarCursor`](crate::SolarCursor) reads them.
    pub fn generate(kind: EnvironmentKind, event_count: usize, seed: u64) -> SensingEnvironment {
        let events = EventTraceBuilder::new()
            .event_count(event_count)
            .max_duration(kind.max_event_duration())
            .mean_gap(kind.mean_gap())
            .seed(seed)
            .build();
        // Cover the event horizon plus a drain margin for in-flight work.
        let horizon = events.end() + SimDuration::from_secs(600);
        let solar = SolarTraceBuilder::new()
            .duration(SimDuration::from_millis(horizon.as_millis()))
            .seed(seed ^ 0x50_1A_12)
            .build();
        SensingEnvironment {
            kind,
            events,
            solar,
        }
    }

    /// Assembles an environment from explicit parts — useful for
    /// sensitivity studies that hold events fixed while swapping the
    /// power trace (or vice versa).
    pub fn with_parts(
        kind: EnvironmentKind,
        events: EventTrace,
        solar: SolarTrace,
    ) -> SensingEnvironment {
        SensingEnvironment {
            kind,
            events,
            solar,
        }
    }

    /// Which named environment this is.
    #[inline]
    pub fn kind(&self) -> EnvironmentKind {
        self.kind
    }

    /// The sensing-event activity trace.
    #[inline]
    pub fn events(&self) -> &EventTrace {
        &self.events
    }

    /// The harvestable-power trace.
    #[inline]
    pub fn solar(&self) -> &SolarTrace {
        &self.solar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_duration_caps() {
        assert_eq!(
            EnvironmentKind::MoreCrowded.max_event_duration(),
            SimDuration::from_secs(600)
        );
        assert_eq!(
            EnvironmentKind::Crowded.max_event_duration(),
            SimDuration::from_secs(60)
        );
        assert_eq!(
            EnvironmentKind::LessCrowded.max_event_duration(),
            SimDuration::from_secs(20)
        );
        assert_eq!(
            EnvironmentKind::Short.max_event_duration(),
            SimDuration::from_secs(10)
        );
        assert_eq!(EnvironmentKind::Short.mean_gap(), SimDuration::from_secs(6));
        assert_eq!(
            EnvironmentKind::Quiet.max_event_duration(),
            SimDuration::from_secs(5)
        );
        assert_eq!(
            EnvironmentKind::Quiet.mean_gap(),
            SimDuration::from_secs(120)
        );
        assert_eq!(
            EnvironmentKind::Crowded.mean_gap(),
            SimDuration::from_secs(20)
        );
        assert_eq!(
            EnvironmentKind::Burst.max_event_duration(),
            SimDuration::from_secs(2)
        );
        assert_eq!(
            EnvironmentKind::Burst.mean_gap(),
            SimDuration::from_secs(10)
        );
    }

    #[test]
    fn every_kind_round_trips_through_its_token() {
        for kind in EnvironmentKind::ALL {
            assert_eq!(EnvironmentKind::parse(kind.token()), Some(kind));
            assert_eq!(
                EnvironmentKind::parse(&kind.token().to_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(
            EnvironmentKind::parse("more"),
            Some(EnvironmentKind::MoreCrowded)
        );
        assert_eq!(
            EnvironmentKind::parse("LessCrowded"),
            Some(EnvironmentKind::LessCrowded)
        );
        assert_eq!(EnvironmentKind::parse("mars"), None);
    }

    #[test]
    fn crowding_orders_activity() {
        let more = SensingEnvironment::generate(EnvironmentKind::MoreCrowded, 100, 1);
        let mid = SensingEnvironment::generate(EnvironmentKind::Crowded, 100, 1);
        let less = SensingEnvironment::generate(EnvironmentKind::LessCrowded, 100, 1);
        assert!(more.events().activity_fraction() > mid.events().activity_fraction());
        assert!(mid.events().activity_fraction() > less.events().activity_fraction());
    }

    #[test]
    fn solar_covers_event_horizon() {
        let env = SensingEnvironment::generate(EnvironmentKind::Crowded, 50, 2);
        assert!(env.solar().duration().as_millis() >= env.events().end().as_millis());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SensingEnvironment::generate(EnvironmentKind::Crowded, 50, 3);
        let b = SensingEnvironment::generate(EnvironmentKind::Crowded, 50, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(EnvironmentKind::MoreCrowded.to_string(), "MoreCrowded");
        assert_eq!(EnvironmentKind::APOLLO_SET.len(), 3);
        let env = SensingEnvironment::generate(EnvironmentKind::Short, 10, 4);
        assert_eq!(env.kind(), EnvironmentKind::Short);
    }
}
