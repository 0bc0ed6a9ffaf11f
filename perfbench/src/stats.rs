//! Order statistics, operation accounting, and the metric record the
//! benchmark prints as its last line.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `v` and return its nearest-rank median.
pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    percentile(v, 50.0)
}

/// Nearest-rank percentile of unsorted samples; 0 when there are none (a
/// span that never ran, a session set that failed before its first sample).
pub fn pct(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    sort(&mut v);
    percentile(&v, p)
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Metric names: `[A-Za-z0-9_.-]+`, starting with a letter or digit, at
/// most 64 characters — the grammar the result consumers accept.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics `BENCHMARK.json` declares under `key` (`end_to_end` or
/// `per_layer`), as `(name, unit)` in declaration order.
pub fn declared(key: &str) -> Vec<(String, String)> {
    let spec =
        trace::json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let list = spec
        .get(key)
        .and_then(|v| v.as_arr())
        .expect("BENCHMARK.json lists the metrics");
    list.iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(|v| v.as_str())
                    .expect("metric name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Operations attempted and failed in one run. A failure is logged to
/// stderr with its reason; the run goes on.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("[perfbench] FAILED {what}: {why}");
    }
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.0.iter().all(|(n, ..)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// `(name, unit)` of every metric, in insertion order.
    pub fn names(&self) -> Vec<(String, String)> {
        self.0
            .iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Names and units are checked against the grammar on insertion, so
    /// nothing here needs escaping.
    pub fn result_line(&self, tally: &Tally, correct: bool) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // Ranks round up: 20 % of 4 samples is rank 0.8 -> the 1st sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 20.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 26.0), 2.0);
        let mut m = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(median(&mut m), 2.0, "even count takes the lower middle");
        assert_eq!(pct(&[3.0, 1.0, 2.0], 100.0), 3.0);
        assert_eq!(pct(&[], 50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn percentile_rejects_unsorted_input() {
        percentile(&[2.0, 1.0], 50.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["cpu_s", "sctp.per_path_pkts.0", "tcp-rtt", "2v1", "A.b_c-d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "-x",
            "rtt µs",
            "a b",
            "a/b",
            "a\"b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("cpu_s", 1.25, "s");
        m.put("setup_s", 0.5, "s");
        let t = Tally {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            m.result_line(&t, true),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"cpu_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_is_well_formed() {
        let spec = trace::json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for key in ["end_to_end", "per_layer"] {
            for (name, unit) in declared(key) {
                assert!(valid_name(&name), "{name}");
                assert!(unit_ok(&unit), "{name}: unit {unit}");
                assert!(seen.insert(name.clone()), "{name} declared twice");
            }
        }
        let e2e = spec
            .get("end_to_end")
            .and_then(|v| v.as_arr())
            .expect("end_to_end");
        let bound = |m: &trace::json::JVal| m.get("bound").and_then(|b| b.as_f64()).expect("bound");
        assert!(e2e.iter().all(|m| bound(m) > 0.0 && bound(m) <= 0.25));
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(|n| n.as_str()) == Some("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
        assert_eq!(setup.get("better").and_then(|u| u.as_str()), Some("lower"));
        assert!(
            e2e.iter().all(|m| bound(m) <= bound(setup)),
            "setup_s has the largest bound"
        );
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().put("rtt us", 1.0, "us");
    }
}
