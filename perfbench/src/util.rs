//! Small helpers shared by the benchmark modules: a seeded generator,
//! quantiles, and the parsing of response lines.

use noc_json::Value;

/// SplitMix64: the benchmark's own seeded generator, so request
/// generation depends on nothing inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule;
/// `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Parses one response line; `None` when it is not JSON.
pub fn parse_line(line: &str) -> Option<Value> {
    noc_json::parse(line).ok()
}

/// Whether a response line ends its request: a single-line answer, an
/// error, or the `"done"` summary line of a stream.
pub fn ends_response(line: &Value) -> bool {
    line.get("seq").is_none()
}

/// Why a response counts as failed, or `None` when it is a plain success.
pub fn response_fault(line: &Value) -> Option<String> {
    match line.get("ok").and_then(Value::as_bool) {
        Some(true) => {}
        Some(false) => {
            let code = line
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("?");
            return Some(format!("error response: {code}"));
        }
        None => return Some("response without \"ok\"".into()),
    }
    let degraded = line
        .get("result")
        .and_then(|r| r.get("degraded"))
        .and_then(Value::as_bool)
        .unwrap_or(false);
    degraded.then(|| "degraded answer".to_string())
}

pub fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

pub fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_usize)
        .ok_or_else(|| format!("missing integer {key:?}"))
}

/// Reads a `[[a, b], ...]` link list.
pub fn links_of(v: &Value, key: &str) -> Result<Vec<(usize, usize)>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing link list {key:?}"))?;
    arr.iter()
        .map(|pair| match pair.as_array() {
            Some([a, b]) => Ok((
                a.as_usize().ok_or("bad link endpoint")?,
                b.as_usize().ok_or("bad link endpoint")?,
            )),
            _ => Err("link is not a pair".to_string()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn generator_repeats_from_its_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(9), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(9), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(10).next_u64());
    }
}
