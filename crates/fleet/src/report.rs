//! Fleet run reports: per-device rows, channel accounting, and
//! cross-fleet percentile aggregates, with JSON/CSV/text renderers.
//!
//! The JSON renderer streams through `qz_types::json::Writer`. All three
//! renderers exclude anything non-deterministic — wall-clock time,
//! thread count, hostnames — so a report is byte-identical for a given
//! `(FleetConfig)` at any `--threads` value. That property is what the
//! determinism test in `tests/fleet_determinism.rs` pins down.

use crate::channel::ChannelStats;
use qz_obs::MetricsRegistry;
use qz_sim::Metrics;
use qz_types::json::{DecimalU64, Writer};
use std::fmt::Write as _;

/// One device's outcome within a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device index (also the seed-stream index).
    pub device: usize,
    /// Label of the environment this device sensed.
    pub env: String,
    /// The full single-device metrics, uplink counters included.
    pub metrics: Metrics,
}

impl DeviceReport {
    /// Capture rate: interesting inputs reported over interesting
    /// inputs produced (0 when the environment produced none).
    pub fn capture_rate(&self) -> f64 {
        if self.metrics.interesting_total == 0 {
            0.0
        } else {
            self.metrics.interesting_reported() as f64 / self.metrics.interesting_total as f64
        }
    }

    /// This device's time-on-air as a fraction of its simulated time.
    pub fn airtime_fraction(&self) -> f64 {
        let t = self.metrics.sim_time.as_millis();
        if t == 0 {
            0.0
        } else {
            self.metrics.tx_airtime.as_millis() as f64 / t as f64
        }
    }
}

/// Five-number summary (plus mean) over a per-device series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Smallest value.
    pub min: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Percentiles {
    /// Summary of `values` (all zeros for an empty series). NaNs would
    /// poison the sort and are a bug upstream, so they panic.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn of(values: &[f64]) -> Percentiles {
        if values.is_empty() {
            return Percentiles::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile input must not be NaN"));
        let rank = |q: f64| {
            // Nearest-rank on the sorted series; q in [0, 1].
            let idx = (q * (sorted.len() - 1) as f64).round();
            // Index is bounded by len-1, far below any truncation edge.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            sorted[idx as usize]
        };
        Percentiles {
            min: sorted[0],
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Cross-fleet aggregates: one [`Percentiles`] per headline series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetAggregates {
    /// Per-device capture rate (interesting reported / produced).
    pub capture_rate: Percentiles,
    /// Per-device input-buffer-overflow discards.
    pub ibo_discards: Percentiles,
    /// Per-device mean capture-to-delivery latency, seconds.
    pub delivery_latency_s: Percentiles,
    /// Per-device airtime fraction of simulated time.
    pub airtime_fraction: Percentiles,
}

/// The complete outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// System label (e.g. `QZ`).
    pub system: String,
    /// Master seed the run derived every stream from.
    pub fleet_seed: u64,
    /// Per-device rows, ordered by device index.
    pub devices: Vec<DeviceReport>,
    /// Fleet-wide channel outcome (sum over every gateway's shard).
    pub channel: ChannelStats,
    /// Gateways the fleet was sharded across.
    pub gateways: usize,
    /// Per-gateway channel outcomes, ordered by shard index. With one
    /// gateway this holds a single entry equal to [`channel`].
    ///
    /// [`channel`]: FleetReport::channel
    pub shards: Vec<ChannelStats>,
    /// Cross-fleet percentile summaries.
    pub aggregates: FleetAggregates,
}

impl FleetReport {
    /// Computes the cross-fleet aggregates from the device rows.
    /// Called by the runner once the rows are final.
    pub fn aggregate(&mut self) {
        let series =
            |f: &dyn Fn(&DeviceReport) -> f64| self.devices.iter().map(f).collect::<Vec<_>>();
        self.aggregates = FleetAggregates {
            capture_rate: Percentiles::of(&series(&DeviceReport::capture_rate)),
            ibo_discards: Percentiles::of(&series(&|d| d.metrics.ibo_discards as f64)),
            delivery_latency_s: Percentiles::of(&series(&|d| d.metrics.mean_delivery_latency_s())),
            airtime_fraction: Percentiles::of(&series(&DeviceReport::airtime_fraction)),
        };
    }

    /// The report as a JSON document in the [`Writer::report`] layout.
    /// Keys are emitted in a fixed order; floats use six decimals —
    /// byte-identical across thread counts by construction.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        Writer::report(&mut s).obj(|w| {
            w.field("system", &self.system)
                .field("fleet_seed", DecimalU64(self.fleet_seed))
                .field("devices", self.devices.len());
            let c = &self.channel;
            w.key("channel").obj(|w| {
                w.field("slot_ms", c.slot_ms)
                    .field("horizon_slots", c.horizon_slots)
                    .field("clean_slots", c.clean_slots)
                    .field("collision_slots", c.collision_slots)
                    .field("idle_slots", c.idle_slots())
                    .field("total_tx", c.total_tx)
                    .field("collided_tx", c.collided_tx)
                    .field("airtime_slots", c.airtime_slots)
                    .field("utilization", c.utilization())
                    .field("collision_rate", c.collision_rate());
            });
            // Shard detail only matters (and only appears) with multiple
            // gateways, keeping single-gateway reports byte-stable across
            // releases.
            if self.gateways > 1 {
                w.field("gateways", self.gateways).key("shards").arr(|w| {
                    for (i, c) in self.shards.iter().enumerate() {
                        w.obj(|w| {
                            w.field("shard", i)
                                .field("clean_slots", c.clean_slots)
                                .field("collision_slots", c.collision_slots)
                                .field("total_tx", c.total_tx)
                                .field("collided_tx", c.collided_tx)
                                .field("airtime_slots", c.airtime_slots);
                        });
                    }
                });
            }
            let a = &self.aggregates;
            w.key("aggregates").obj(|w| {
                for (name, p) in [
                    ("capture_rate", &a.capture_rate),
                    ("ibo_discards", &a.ibo_discards),
                    ("delivery_latency_s", &a.delivery_latency_s),
                    ("airtime_fraction", &a.airtime_fraction),
                ] {
                    w.key(name).obj(|w| {
                        w.field("min", p.min)
                            .field("p50", p.p50)
                            .field("p90", p.p90)
                            .field("p99", p.p99)
                            .field("max", p.max)
                            .field("mean", p.mean);
                    });
                }
            });
            w.key("per_device").arr(|w| {
                for d in &self.devices {
                    let m = &d.metrics;
                    w.obj(|w| {
                        w.field("device", d.device)
                            .field("env", &d.env)
                            .field("capture_rate", d.capture_rate())
                            .field("interesting_total", m.interesting_total)
                            .field("interesting_reported", m.interesting_reported())
                            .field("ibo_discards", m.ibo_discards)
                            .field("reports", m.total_reports())
                            .field("tx_grants", m.tx_grants)
                            .field("tx_busy_backoffs", m.tx_busy_backoffs)
                            .field("tx_duty_deferrals", m.tx_duty_deferrals)
                            .field("backoff_wait_ms", m.tx_backoff_wait.as_millis())
                            .field("airtime_ms", m.tx_airtime.as_millis())
                            .field("delivery_latency_mean_s", m.mean_delivery_latency_s())
                            .field(
                                "delivery_latency_max_s",
                                m.delivery_latency_max.as_seconds().0,
                            )
                            .field("power_failures", m.power_failures)
                            .field("off_fraction", m.off_fraction());
                    });
                }
            });
        });
        s.push('\n');
        s
    }

    /// The per-device rows as CSV (one header, one row per device).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "device,env,capture_rate,interesting_total,interesting_reported,ibo_discards,\
             reports,tx_grants,tx_busy_backoffs,tx_duty_deferrals,backoff_wait_ms,airtime_ms,\
             delivery_latency_mean_s,delivery_latency_max_s,power_failures,off_fraction\n",
        );
        for d in &self.devices {
            let m = &d.metrics;
            let _ = writeln!(
                s,
                "{},{},{:.6},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{},{:.6}",
                d.device,
                d.env,
                d.capture_rate(),
                m.interesting_total,
                m.interesting_reported(),
                m.ibo_discards,
                m.total_reports(),
                m.tx_grants,
                m.tx_busy_backoffs,
                m.tx_duty_deferrals,
                m.tx_backoff_wait.as_millis(),
                m.tx_airtime.as_millis(),
                m.mean_delivery_latency_s(),
                m.delivery_latency_max.as_seconds().0,
                m.power_failures,
                m.off_fraction(),
            );
        }
        s
    }

    /// A human-oriented summary for the terminal.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fleet: {} devices running {} (seed {:#x})",
            self.devices.len(),
            self.system,
            self.fleet_seed
        );
        let c = &self.channel;
        let _ = writeln!(
            s,
            "channel: {:.1}% utilized, {} tx ({} collided, {:.1}% loss), {} clean / {} collision / {} idle slots",
            c.utilization() * 100.0,
            c.total_tx,
            c.collided_tx,
            c.collision_rate() * 100.0,
            c.clean_slots,
            c.collision_slots,
            c.idle_slots(),
        );
        let rows = [
            ("capture rate", &self.aggregates.capture_rate),
            ("IBO discards", &self.aggregates.ibo_discards),
            ("delivery lat (s)", &self.aggregates.delivery_latency_s),
            ("airtime frac", &self.aggregates.airtime_fraction),
        ];
        let _ = writeln!(
            s,
            "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "metric", "min", "p50", "p90", "p99", "max", "mean"
        );
        for (name, p) in rows {
            let _ = writeln!(
                s,
                "{name:<18} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                p.min, p.p50, p.p90, p.p99, p.max, p.mean
            );
        }
        s
    }

    /// The fleet outcome as a [`MetricsRegistry`], joining the qz-obs
    /// metrics surface (counters for channel totals, gauges for
    /// aggregate rates, a histogram of per-device IBO counts).
    pub fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let c = &self.channel;
        reg.counter_add("fleet_devices", self.devices.len() as u64);
        reg.counter_add("fleet_tx_total", c.total_tx);
        reg.counter_add("fleet_tx_collided", c.collided_tx);
        reg.counter_add("fleet_clean_slots", c.clean_slots);
        reg.counter_add("fleet_collision_slots", c.collision_slots);
        reg.counter_add("fleet_airtime_slots", c.airtime_slots);
        reg.gauge_set("fleet_channel_utilization", c.utilization());
        reg.gauge_set("fleet_collision_rate", c.collision_rate());
        reg.gauge_set("fleet_capture_rate_p50", self.aggregates.capture_rate.p50);
        reg.gauge_set(
            "fleet_delivery_latency_p50_s",
            self.aggregates.delivery_latency_s.p50,
        );
        for d in &self.devices {
            reg.histogram_record("fleet_device_ibo_discards", d.metrics.ibo_discards);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Percentiles of a constant series are that constant, exactly.
    #[allow(clippy::float_cmp)]
    fn percentiles_of_constant_series() {
        let p = Percentiles::of(&[2.0; 10]);
        assert_eq!(p.min, 2.0);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.p99, 2.0);
        assert_eq!(p.max, 2.0);
        assert_eq!(p.mean, 2.0);
    }

    #[test]
    #[allow(clippy::float_cmp)]
    fn percentiles_pick_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&values);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.p50, 51.0); // round(0.5 * 99) = 50 → value 51
        assert_eq!(p.p90, 90.0);
        assert_eq!(p.max, 100.0);
        assert!((p.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_all_zero() {
        assert_eq!(Percentiles::of(&[]), Percentiles::default());
    }

    fn tiny_report() -> FleetReport {
        let mut devices = Vec::new();
        for device in 0..3 {
            let metrics = Metrics {
                interesting_total: 10,
                reports_interesting_high: 4 + device as u64,
                ibo_discards: device as u64,
                sim_time: qz_types::SimDuration::from_secs(100),
                ..Metrics::default()
            };
            devices.push(DeviceReport {
                device,
                env: "crowded".into(),
                metrics,
            });
        }
        let channel = ChannelStats {
            slot_ms: 100,
            horizon_slots: 1000,
            clean_slots: 40,
            collision_slots: 4,
            total_tx: 15,
            collided_tx: 2,
            airtime_slots: 48,
        };
        let mut report = FleetReport {
            system: "QZ".into(),
            fleet_seed: 7,
            devices,
            channel: channel.clone(),
            gateways: 1,
            shards: vec![channel],
            aggregates: FleetAggregates::default(),
        };
        report.aggregate();
        report
    }

    #[test]
    fn json_is_stable_and_parses_shape() {
        let report = tiny_report();
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"devices\": 3"));
        assert!(a.contains("\"collision_rate\": 0.133333"));
        assert!(a.contains("\"capture_rate\": 0.400000"));
        // Balanced braces: cheap well-formedness proxy without a parser.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn single_gateway_json_hides_the_shard_section() {
        let report = tiny_report();
        let json = report.to_json();
        assert!(!json.contains("\"gateways\""));
        assert!(!json.contains("\"shards\""));
    }

    #[test]
    fn multi_gateway_json_lists_every_shard() {
        let mut report = tiny_report();
        report.gateways = 2;
        report.shards = vec![
            ChannelStats {
                clean_slots: 30,
                ..report.channel.clone()
            },
            ChannelStats {
                clean_slots: 10,
                ..report.channel.clone()
            },
        ];
        let json = report.to_json();
        assert!(json.contains("\"gateways\": 2"));
        assert!(json.contains("{\"shard\": 0, \"clean_slots\": 30,"));
        assert!(json.contains("{\"shard\": 1, \"clean_slots\": 10,"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_has_header_plus_row_per_device() {
        let report = tiny_report();
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("device,env,capture_rate"));
    }

    #[test]
    fn aggregates_and_registry_agree() {
        let report = tiny_report();
        assert!((report.aggregates.capture_rate.p50 - 0.5).abs() < 1e-12);
        let reg = report.registry();
        assert_eq!(reg.counter("fleet_devices"), 3);
        assert_eq!(reg.counter("fleet_tx_collided"), 2);
        let hist = reg
            .histogram("fleet_device_ibo_discards")
            .expect("histogram");
        assert_eq!(hist.count(), 3);
        assert!(report.render_text().contains("capture rate"));
    }
}
