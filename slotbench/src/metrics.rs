//! Metric names, units and the small statistics the benchmark reports.

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("window_cal_p50", "cal"),
    ("window_cal_p95", "cal"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("delay_mean_slots", "slots"),
    ("delay_p99_slots", "slots"),
    ("throughput_frac", "frac"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit).
pub const PER_LAYER: [(&str, &str); 28] = [
    ("traffic.ns_per_slot", "ns"),
    ("traffic.arrivals_per_slot", "pkts/slot"),
    ("queues.ns_per_slot", "ns"),
    ("queues.backlog_mean_pkts", "pkts"),
    ("queues.pq_drops", "count"),
    ("request.ns_per_slot", "ns"),
    ("request.bits_per_slot", "bits/slot"),
    ("sched.ns_per_call", "ns"),
    ("sched.share_of_step", "frac"),
    ("sched.match_size_mean", "pairs"),
    ("sched.match_ratio_vs_max", "frac"),
    ("sched.lcf_dist_rr.ns_per_call", "ns"),
    ("sched.lcf_dist.ns_per_call", "ns"),
    ("sched.pim.ns_per_call", "ns"),
    ("sched.islip.ns_per_call", "ns"),
    ("transfer.ns_per_slot", "ns"),
    ("transfer.delivered_per_slot", "pkts/slot"),
    ("stats.ns_per_slot", "ns"),
    ("step.ns_per_slot", "ns"),
    ("step.unattributed_share", "frac"),
    ("host.slots_per_s", "slot/s"),
    ("host.window_ms_p50", "ms"),
    ("serve.solo_window_ms", "ms"),
    ("serve.coord_share", "frac"),
    ("serve.merge_us", "us"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.drain_slots", "slots"),
    ("trace.overhead_share", "frac"),
];

/// Measured values by name; the unit comes from the tables above.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Linear-interpolation quantile of unsorted samples (`q` in [0, 1]).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile range over the median: the run-to-run spread measure the
/// benchmark's bounds are stated in.
pub fn spread(samples: &[f64]) -> f64 {
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / median(samples)
}

/// Quantile `q` of an integer delay histogram given as its CDF points
/// `(value, cumulative fraction)`, interpolated linearly between occupied
/// values so that it moves continuously with the distribution.
pub fn cdf_quantile(points: &[(u64, f64)], q: f64) -> f64 {
    let mut prev = (0.0, 0.0);
    for &(value, frac) in points {
        if frac >= q {
            let (v0, f0) = prev;
            return v0 + (value as f64 - v0) * (q - f0) / (frac - f0);
        }
        prev = (value as f64, frac);
    }
    prev.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    /// BENCHMARK.json declares exactly the metrics this program prints,
    /// with the same units, and no metric it does not print.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(spread(&xs), 2.0 / 3.0);
        let cdf = [(1, 0.5), (3, 1.0)];
        assert_eq!(cdf_quantile(&cdf, 0.75), 2.0);
        assert_eq!(cdf_quantile(&cdf, 0.25), 0.5);
    }
}
