//! Multi-seed aggregation: mean ± standard deviation across repeated
//! experiment runs.
//!
//! The paper reports single runs over 1000 events; this module
//! strengthens the reproduction's claims by repeating each figure over
//! several environment seeds and reporting the spread (see the
//! `fig09_multiseed` figure and EXPERIMENTS.md).

use crate::figures::ResultRow;

/// Mean/spread of a metric across seeds for one (system, environment)
/// cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// System label.
    pub system: String,
    /// Environment label.
    pub environment: String,
    /// Number of seeds aggregated.
    pub runs: usize,
    /// Mean of `interesting_discarded`.
    pub mean_discarded: f64,
    /// Sample standard deviation of `interesting_discarded`.
    pub sd_discarded: f64,
    /// Minimum observed `interesting_discarded`.
    pub min_discarded: u64,
    /// Maximum observed `interesting_discarded`.
    pub max_discarded: u64,
    /// Mean fraction of interesting inputs discarded.
    pub mean_discarded_fraction: f64,
    /// Mean high-quality report fraction.
    pub mean_high_quality: f64,
}

/// Aggregates repeated runs (one `Vec<ResultRow>` per seed) into per-cell
/// means and spreads. Cells are keyed by `(system, environment)` and
/// returned in the order they first appear in the first run.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn aggregate(runs: &[Vec<ResultRow>]) -> Vec<Aggregate> {
    assert!(!runs.is_empty(), "need at least one run to aggregate");
    let template = &runs[0];
    template
        .iter()
        .map(|cell| {
            let samples: Vec<&ResultRow> = runs
                .iter()
                .filter_map(|run| {
                    run.iter()
                        .find(|r| r.system == cell.system && r.environment == cell.environment)
                })
                .collect();
            let discarded: Vec<f64> = samples
                .iter()
                .map(|r| r.metrics.interesting_discarded() as f64)
                .collect();
            let n = discarded.len();
            let mean = discarded.iter().sum::<f64>() / n as f64;
            let var = if n > 1 {
                discarded.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1) as f64
            } else {
                0.0
            };
            Aggregate {
                system: cell.system.clone(),
                environment: cell.environment.clone(),
                runs: n,
                mean_discarded: mean,
                sd_discarded: var.sqrt(),
                min_discarded: samples
                    .iter()
                    .map(|r| r.metrics.interesting_discarded())
                    .min()
                    .unwrap_or(0),
                max_discarded: samples
                    .iter()
                    .map(|r| r.metrics.interesting_discarded())
                    .max()
                    .unwrap_or(0),
                mean_discarded_fraction: samples
                    .iter()
                    .map(|r| r.metrics.interesting_discarded_fraction())
                    .sum::<f64>()
                    / n as f64,
                mean_high_quality: samples
                    .iter()
                    .map(|r| r.metrics.high_quality_fraction())
                    .sum::<f64>()
                    / n as f64,
            }
        })
        .collect()
}

/// The mean improvement ratio of `qz` over `base` per environment,
/// computed on mean discards.
pub fn mean_improvement(aggregates: &[Aggregate], qz: &str, base: &str) -> Vec<(String, f64)> {
    let mut envs: Vec<&str> = aggregates.iter().map(|a| a.environment.as_str()).collect();
    envs.dedup();
    envs.into_iter()
        .filter_map(|env| {
            let find = |sys: &str| {
                aggregates
                    .iter()
                    .find(|a| a.environment == env && a.system == sys)
            };
            let (q, b) = (find(qz)?, find(base)?);
            Some((env.to_owned(), b.mean_discarded / q.mean_discarded.max(1.0)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qz_sim::Metrics;

    fn row(system: &str, env: &str, discarded: u64) -> ResultRow {
        ResultRow {
            system: system.into(),
            environment: env.into(),
            metrics: Metrics {
                interesting_total: 100,
                ibo_interesting: discarded,
                reports_interesting_high: 10,
                reports_interesting_low: 10,
                ..Metrics::default()
            },
        }
    }

    #[test]
    fn aggregates_mean_and_spread() {
        let runs = vec![
            vec![row("QZ", "E", 10), row("NA", "E", 40)],
            vec![row("QZ", "E", 14), row("NA", "E", 44)],
            vec![row("QZ", "E", 12), row("NA", "E", 48)],
        ];
        let agg = aggregate(&runs);
        assert_eq!(agg.len(), 2);
        let qz = &agg[0];
        assert_eq!(qz.system, "QZ");
        assert_eq!(qz.runs, 3);
        assert!((qz.mean_discarded - 12.0).abs() < 1e-12);
        assert!((qz.sd_discarded - 2.0).abs() < 1e-12);
        assert_eq!(qz.min_discarded, 10);
        assert_eq!(qz.max_discarded, 14);
        assert!((qz.mean_high_quality - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_ratios() {
        let runs = vec![vec![row("QZ", "E", 10), row("NA", "E", 40)]];
        let agg = aggregate(&runs);
        let imp = mean_improvement(&agg, "QZ", "NA");
        assert_eq!(imp.len(), 1);
        assert!((imp[0].1 - 4.0).abs() < 1e-12);
    }

    #[test]
    // A single run's standard deviation must be exactly 0.0 (no
    // arithmetic happened), so the strict comparison is the point.
    #[allow(clippy::float_cmp)]
    fn single_run_has_zero_spread() {
        let runs = vec![vec![row("QZ", "E", 10)]];
        let agg = aggregate(&runs);
        assert_eq!(agg[0].sd_discarded, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_runs_panic() {
        aggregate(&[]);
    }
}
