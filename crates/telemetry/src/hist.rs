//! Integer-valued histograms with explicit overflow accounting.
//!
//! This is the shared histogram used by both the simulator's latency
//! statistics and the telemetry metrics registry. Compared to a naive
//! bucket array it makes two guarantees that matter for honest reporting:
//!
//! * **Overflow is explicit.** Samples beyond the bucket range are counted,
//!   and every read-out that touches them says so: [`Histogram::cdf`] marks
//!   its final point, [`Histogram::quantile`] returns
//!   [`Quantile::Overflow`] instead of silently reporting the bucket range
//!   as if it were an observed value.
//! * **Histograms merge.** [`Histogram::merge`] combines two histograms of
//!   the same range so that per-shard collectors (e.g. one per sweep
//!   configuration) aggregate exactly as if every sample had been recorded
//!   into one histogram.

/// A quantile read-out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quantile {
    /// The quantile falls in a regular bucket: the exact recorded value.
    Exact(u64),
    /// The quantile falls among overflowed samples; only a lower bound is
    /// known (the bucket range).
    Overflow {
        /// All overflowed samples are `>= at_least`.
        at_least: u64,
    },
}

impl Quantile {
    /// The exact value, or the lower bound for overflowed quantiles —
    /// the legacy scalar read-out.
    pub fn value(self) -> u64 {
        match self {
            Quantile::Exact(v) => v,
            Quantile::Overflow { at_least } => at_least,
        }
    }

    /// Whether the quantile is only a lower bound.
    pub fn is_overflow(self) -> bool {
        matches!(self, Quantile::Overflow { .. })
    }
}

/// One point of the empirical CDF.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CdfPoint {
    /// The bucket value (or the bucket range, for the overflow point).
    pub value: u64,
    /// Cumulative fraction of samples `<= value` (or 1.0 for overflow).
    pub fraction: f64,
    /// True for the final overflow point: `value` is a lower bound on the
    /// samples it covers, not an observed value.
    pub overflow: bool,
}

/// The error returned when merging histograms of different ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeMismatch {
    /// Bucket range of the receiving histogram.
    pub ours: usize,
    /// Bucket range of the histogram being merged in.
    pub theirs: usize,
}

impl std::fmt::Display for RangeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot merge histograms of ranges {} and {}",
            self.ours, self.theirs
        )
    }
}

impl std::error::Error for RangeMismatch {}

/// Integer-valued histogram for values `0..range`, with a saturating
/// overflow bucket for everything else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram for values `0..range` (larger values land in the
    /// overflow bucket).
    pub fn new(range: usize) -> Self {
        assert!(range > 0, "histogram needs at least one bucket");
        Histogram {
            buckets: vec![0; range],
            overflow: 0,
            total: 0,
        }
    }

    /// Records a value.
    pub fn add(&mut self, value: u64) {
        if (value as usize) < self.buckets.len() {
            self.buckets[value as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of values that exceeded the bucket range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The bucket range: values `0..range` are recorded exactly.
    pub fn range(&self) -> usize {
        self.buckets.len()
    }

    /// Merges `other` into `self`; afterwards `self` is exactly the
    /// histogram that would have recorded both sample streams. Fails if the
    /// bucket ranges differ (overflowed samples of the narrower histogram
    /// could not be re-bucketed faithfully).
    pub fn merge(&mut self, other: &Histogram) -> Result<(), RangeMismatch> {
        if self.buckets.len() != other.buckets.len() {
            return Err(RangeMismatch {
                ours: self.buckets.len(),
                theirs: other.buckets.len(),
            });
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        Ok(())
    }

    /// The empirical CDF, one [`CdfPoint`] per occupied bucket. If any
    /// sample overflowed, the final point has `overflow: true` and carries
    /// the bucket range as a *lower bound* — it is never conflated with an
    /// observed value.
    pub fn cdf(&self) -> Vec<CdfPoint> {
        let mut points = Vec::new();
        if self.total == 0 {
            return points;
        }
        let mut cum = 0u64;
        for (value, &count) in self.buckets.iter().enumerate() {
            if count > 0 {
                cum += count;
                points.push(CdfPoint {
                    value: value as u64,
                    fraction: cum as f64 / self.total as f64,
                    overflow: false,
                });
            }
        }
        if self.overflow > 0 {
            points.push(CdfPoint {
                value: self.buckets.len() as u64,
                fraction: 1.0,
                overflow: true,
            });
        }
        points
    }

    /// Value at quantile `q ∈ [0, 1]`. Returns [`Quantile::Overflow`] when
    /// the rank falls among overflowed samples, [`Quantile::Exact`]`(0)` for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> Quantile {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return Quantile::Exact(0);
        }
        // The smallest value whose cumulative fraction reaches q, with the
        // fraction computed exactly as `cdf()` computes it — so the two
        // read-outs can never disagree by a rounding ulp.
        let mut seen = 0u64;
        for (value, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen as f64 / self.total as f64 >= q {
                return Quantile::Exact(value as u64);
            }
        }
        Quantile::Overflow {
            at_least: self.buckets.len() as u64,
        }
    }

    /// The legacy scalar quantile: exact value, or the bucket range as a
    /// lower bound for overflowed quantiles.
    pub fn quantile_lower_bound(&self, q: f64) -> u64 {
        self.quantile(q).value()
    }

    /// Renders the histogram as a JSON value (occupied buckets only):
    /// `{"count":N,"overflow":K,"range":R,"buckets":[[value,count],...]}`.
    pub fn to_value(&self) -> crate::json::Value {
        use crate::json::Value;
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| Value::Seq(vec![Value::U64(v as u64), Value::U64(c)]))
            .collect();
        Value::Obj(vec![
            ("count".into(), Value::U64(self.total)),
            ("overflow".into(), Value::U64(self.overflow)),
            ("range".into(), Value::U64(self.buckets.len() as u64)),
            ("buckets".into(), Value::Seq(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_exact() {
        let mut h = Histogram::new(100);
        for v in 0..100u64 {
            h.add(v);
        }
        assert_eq!(h.quantile(0.0), Quantile::Exact(0));
        assert_eq!(h.quantile(0.5), Quantile::Exact(49));
        assert_eq!(h.quantile(1.0), Quantile::Exact(99));
        assert_eq!(h.count(), 100);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn overflow_is_marked_not_conflated() {
        let mut h = Histogram::new(4);
        h.add(1);
        h.add(1000);
        assert_eq!(h.overflow(), 1);
        let q = h.quantile(1.0);
        assert_eq!(q, Quantile::Overflow { at_least: 4 });
        assert!(q.is_overflow());
        assert_eq!(q.value(), 4, "lower bound preserved for legacy read-out");
        let cdf = h.cdf();
        assert_eq!(cdf.len(), 2);
        assert!(!cdf[0].overflow);
        assert!(cdf[1].overflow, "final point must be flagged");
        assert_eq!(cdf[1].value, 4);
        assert_eq!(cdf[1].fraction, 1.0);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(4);
        assert_eq!(h.quantile(0.99), Quantile::Exact(0));
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn merge_is_concatenation() {
        let mut a = Histogram::new(8);
        let mut b = Histogram::new(8);
        let mut c = Histogram::new(8);
        for v in [0u64, 1, 1, 9] {
            a.add(v);
            c.add(v);
        }
        for v in [2u64, 7, 100] {
            b.add(v);
            c.add(v);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn merge_rejects_range_mismatch() {
        let mut a = Histogram::new(8);
        let b = Histogram::new(16);
        assert_eq!(
            a.merge(&b),
            Err(RangeMismatch {
                ours: 8,
                theirs: 16
            })
        );
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new(4);
        h.add(2);
        h.add(2);
        h.add(9);
        assert_eq!(
            h.to_value().to_json(),
            r#"{"count":3,"overflow":1,"range":4,"buckets":[[2,2]]}"#
        );
    }
}
