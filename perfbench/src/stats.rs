//! Sample statistics and the metric list a run prints.

/// Linear-interpolated percentile (`p` in 0..=100) of `values`; 0 when
/// empty. Sorts a copy, so callers keep their sample order.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples lying strictly above the `p`-th percentile: a tail percentile
/// is only reported where this is at least ten.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// Named metric values, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Exactly the listed `(name, unit)` metrics, in order, with their
    /// values; a metric this run did not measure reads 0.
    pub fn select(&self, list: &[(&'static str, &'static str)]) -> Vec<Listed> {
        list.iter()
            .map(|&(name, unit)| (name, unit, self.get(name).unwrap_or(0.0)))
            .collect()
    }
}

/// A metric's name, unit and value.
pub type Listed = (&'static str, &'static str, f64);

/// The `metrics` object of the result line.
pub fn to_json(metrics: &[Listed]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A finite JSON number with all its digits (non-finite values, which
/// no metric should produce, render as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(beyond(&v, 50.0), 2);
        assert_eq!(median(&[]), 0.0);
    }
}
