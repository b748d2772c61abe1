//! Terminal sparkline rendering for telemetry timelines.
//!
//! `qz run --plot` renders the recorded telemetry as block-character
//! sparklines — enough to *see* the Fig. 2a story in a terminal: power
//! drops, the buffer fills, the device degrades, IBOs accumulate.

use qz_sim::Telemetry;

/// Unicode block characters from empty to full.
const BLOCKS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a series as a sparkline of `width` characters, downsampling
/// by taking the maximum within each bucket (peaks matter more than
/// means when watching a buffer).
///
/// Values are scaled into `[lo, hi]`; out-of-range values clamp.
pub fn sparkline(values: &[f64], width: usize, lo: f64, hi: f64) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let span = (hi - lo).max(1e-12);
    let bucket_len = values.len().div_ceil(width);
    let mut out = String::with_capacity(width * 3);
    for bucket in values.chunks(bucket_len) {
        let peak = bucket.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let norm = ((peak - lo) / span).clamp(0.0, 1.0);
        // norm is clamped to [0, 1], so the product is a small
        // non-negative index.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = (norm * (BLOCKS.len() - 1) as f64).round() as usize;
        out.push(BLOCKS[idx.min(BLOCKS.len() - 1)]);
    }
    out
}

/// Renders the standard telemetry panel: irradiance, stored energy,
/// buffer occupancy and cumulative IBOs, over the full run.
pub fn telemetry_panel(telemetry: &Telemetry, width: usize) -> String {
    let samples = telemetry.samples();
    if samples.is_empty() {
        return "(no telemetry)".into();
    }
    let irr: Vec<f64> = samples.iter().map(|s| s.irradiance).collect();
    let stored: Vec<f64> = samples.iter().map(|s| s.stored.value()).collect();
    let occ: Vec<f64> = samples.iter().map(|s| f64::from(s.occupancy)).collect();
    let ibo: Vec<f64> = samples.iter().map(|s| s.ibo_discards as f64).collect();

    let max_stored = stored.iter().copied().fold(0.0f64, f64::max).max(1e-9);
    let max_occ = occ.iter().copied().fold(0.0f64, f64::max).max(1.0);
    let max_ibo = ibo.iter().copied().fold(0.0f64, f64::max).max(1.0);
    let minutes = samples
        .last()
        .map(|s| s.t.as_millis() as f64 / 60_000.0)
        .unwrap_or(0.0);

    format!(
        "irradiance   |{}| 0..1\n\
         stored energy|{}| 0..{:.0} mJ\n\
         buffer occ.  |{}| 0..{:.0}\n\
         IBOs (cum.)  |{}| 0..{:.0}\n\
         {:<13}^ {:.0} min of device time\n",
        sparkline(&irr, width, 0.0, 1.0),
        sparkline(&stored, width, 0.0, max_stored),
        max_stored * 1e3,
        sparkline(&occ, width, 0.0, max_occ),
        max_occ,
        sparkline(&ibo, width, 0.0, max_ibo),
        max_ibo,
        "",
        minutes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs() {
        assert_eq!(sparkline(&[], 10, 0.0, 1.0), "");
        assert_eq!(sparkline(&[1.0], 0, 0.0, 1.0), "");
    }

    #[test]
    fn extremes_map_to_extreme_blocks() {
        let s = sparkline(&[0.0, 1.0], 2, 0.0, 1.0);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], ' ');
        assert_eq!(chars[1], '█');
    }

    #[test]
    fn clamps_out_of_range() {
        let s = sparkline(&[-5.0, 10.0], 2, 0.0, 1.0);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], ' ');
        assert_eq!(chars[1], '█');
    }

    #[test]
    fn downsamples_with_peaks() {
        // 10 values into 5 buckets of 2; the peak in each bucket wins.
        let values = [0.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0];
        let s = sparkline(&values, 5, 0.0, 1.0);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 5);
        assert_eq!(chars[0], '█', "bucket peak 1.0");
        assert_eq!(chars[1], ' ', "bucket of zeros");
        assert_eq!(chars[4], '█');
    }

    #[test]
    fn monotone_values_render_monotone_blocks() {
        let values: Vec<f64> = (0..=8).map(|i| i as f64 / 8.0).collect();
        let s = sparkline(&values, 9, 0.0, 1.0);
        let chars: Vec<char> = s.chars().collect();
        for pair in chars.windows(2) {
            let a = BLOCKS.iter().position(|&b| b == pair[0]).unwrap();
            let b = BLOCKS.iter().position(|&b| b == pair[1]).unwrap();
            assert!(a <= b, "sparkline must be non-decreasing: {s}");
        }
    }

    #[test]
    fn panel_handles_empty_telemetry() {
        let t = Telemetry::default();
        assert_eq!(telemetry_panel(&t, 40), "(no telemetry)");
    }
}
