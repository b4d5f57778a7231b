//! The run's result: correctness counts, metrics with units, and the
//! input/environment record printed beside them.

use std::fmt::Write as _;

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and how many of them were wrong, errored or
    /// refused as busy.
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few, for the log).
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The workload's user-facing figures under their own names
    /// (`cold_s`, `query_p99_ms`, …), printed in the record line.
    pub named: Vec<(String, f64, &'static str)>,
    /// Inputs and configuration, so results from different inputs or
    /// settings are never read as a change.
    pub record: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    pub fn record_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.record.push((key.to_string(), value.to_string()));
    }

    pub fn record_str(&mut self, key: &str, value: &str) {
        self.record.push((key.to_string(), json_string(value)));
    }

    /// Counts one checked operation; `Err` carries why it was wrong.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Puts the metrics in table order, adding 0 for every metric of the
    /// table the workload does not exercise. Panics on a metric or unit
    /// missing from the table (a bug in this benchmark).
    pub fn complete(&mut self, trace: bool) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, _, unit) in &self.metrics {
            assert!(
                table.iter().any(|(n, u)| n == name && u == unit),
                "metric {name} [{unit}] is not in the table"
            );
        }
        let measured = std::mem::take(&mut self.metrics);
        for (name, unit) in table {
            let value = measured
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |m| m.1);
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The record line: `{"record": {...}}`, ending with the workload's
    /// named figures and `failed_frac` (failed / attempted).
    pub fn record_line(&self) -> String {
        let mut s = String::from("{\"record\": {");
        for (k, v) in &self.record {
            let _ = write!(s, "{}: {v}, ", json_string(k));
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let mut named = self.named.clone();
        named.push(("failed_frac".to_string(), failed_frac, "frac"));
        s.push_str("\"workload_metrics\": ");
        s.push_str(&metrics_json(&named));
        s.push_str("}}");
        s
    }

    /// The result line, printed last: correctness counts and the metrics.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        );
    }
    s.push('}');
    s
}

/// Every end-to-end metric with its unit, in print order. Each workload
/// measures every one of them (see README.md for what each means there).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Every per-layer metric with its unit, in print order. A layer the
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cfront.pp.busy_s", "s"),
    ("cfront.pp.mb_per_s", "MB/s"),
    ("cfront.pp.macro_expansions", "count"),
    ("cfront.parse.busy_s", "s"),
    ("cfront.parse.mtok_per_s", "Mtok/s"),
    ("ir.lower.busy_s", "s"),
    ("ir.lower.kassigns_per_s", "kassign/s"),
    ("cladb.link.busy_s", "s"),
    ("cladb.link.symbols_merged", "count"),
    ("cladb.encode.busy_s", "s"),
    ("cladb.encode.mb_per_s", "MB/s"),
    ("cladb.object_mb", "MB"),
    ("cladb.open.busy_s", "s"),
    ("cladb.load.block_fetches", "count"),
    ("cladb.load.assigns_loaded_ratio", "ratio"),
    ("core.fixpoint.busy_s", "s"),
    ("core.fixpoint.passes", "count"),
    ("core.fixpoint.cache_hit_ratio", "ratio"),
    ("core.fixpoint.dfs_visits", "count"),
    ("core.fixpoint.unifications", "count"),
    ("core.fixpoint.edges_added", "count"),
    ("core.seal.busy_s", "s"),
    ("core.seal.sets_shared", "count"),
    ("core.extract.busy_s", "s"),
    ("core.relations", "count"),
    ("hub.dispatch.resident_ms", "ms"),
    ("serve.json.decode_ms", "ms"),
    ("serve.json.encode_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("hub.transport_ms", "ms"),
    ("hub.dispatch.rehydrate_p50_ms", "ms"),
    ("hub.dispatch.rehydrate_p99_ms", "ms"),
    ("snap.load_ms", "ms"),
    ("hub.rehydrations_per_kreq", "1/kreq"),
    ("hub.evictions_per_kreq", "1/kreq"),
    ("hub.busy_frac", "frac"),
    ("serve.reload_ms", "ms"),
    ("snap.save_ms", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile (`q` in 0..=1) of `v`; 0 when `v` is empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Process peak resident set size in MB (Linux `VmHWM`; 0 elsewhere).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS mark to the current RSS (Linux `clear_refs` 5), so
/// the peak covers the measured part and not the set-up. Free heap pages
/// are returned to the system first, so memory an earlier step freed but
/// the allocator kept does not count as this step's.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases free memory held by the allocator; it is safe to call
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// FNV-1a 64 over a stream of `u32`s.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }

    #[test]
    fn result_line_keys() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
