//! What one run reports: the metric catalogue, the correctness ledger and
//! the machine-readable result line.
//!
//! Units say which clock a number comes from: `s` is host (wall-clock)
//! seconds, `sim_s` is simulated seconds, `sim_MB/s` is simulated
//! bandwidth. Every workload reports every metric of the mode it runs in;
//! a per-layer metric of a layer the workload never calls reads 0.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("run_s", "s"),
    ("requests_per_s", "1/s"),
    ("p50_sojourn_s", "sim_s"),
    ("p99_sojourn_s", "sim_s"),
    ("request_success", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workload.generate_s", "s"),
    ("cluster.graph_s", "s"),
    ("cluster.graph_edges", "count"),
    ("cluster.linkage_s", "s"),
    ("cluster.clusters", "count"),
    ("core.place_pbp_s", "s"),
    ("core.place_cpp_s", "s"),
    ("core.place_opp_s", "s"),
    ("core.place_self_s", "s"),
    ("sim.run_sampled_s", "s"),
    ("sim.pbp_switches_per_request", "count"),
    ("sim.pbp_bandwidth_mbs", "sim_MB/s"),
    ("sim.seek_plan_s", "s"),
    ("sim.seek_plan_calls", "count"),
    ("sched.catalog_s", "s"),
    ("sched.run_s", "s"),
    ("sched.events", "count"),
    ("sched.events_per_s", "1/s"),
    ("sched.mounts_per_request", "count"),
    ("sched.drive_utilisation", "ratio"),
    ("sched.p99_wait_s", "sim_s"),
    ("des.audit_s", "s"),
    ("obs.overhead_s", "s"),
    ("obs.drive_seek_share", "ratio"),
    ("obs.drive_transfer_share", "ratio"),
    ("obs.drive_exchange_share", "ratio"),
    ("obs.arm_utilisation", "ratio"),
    ("obs.robot_overlap_ratio", "ratio"),
    ("faults.retries", "count"),
    ("faults.failovers", "count"),
    ("faults.lost", "count"),
    ("serve.run_s", "s"),
    ("serve.shed", "count"),
    ("serve.restarts", "count"),
    ("serve.failures", "count"),
    ("serve.snapshots", "count"),
    ("serve.overloaded_share", "ratio"),
    ("serve.drive_availability", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("host.available_parallelism", "count"),
    ("sojourn.samples", "count"),
];

/// The correctness ledger and measured values of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Measured repetitions whose outputs were checked.
    pub attempted: u64,
    /// Repetitions that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable context lines (sample counts, seeds, shapes).
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one checked repetition; `problems` are its failed checks.
    pub fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The `(name, value, unit)` rows of `catalogue`, in its order. Fails
    /// if the workload left an end-to-end metric unset or set a name the
    /// catalogue does not list; unset per-layer metrics read 0.
    pub fn rows(
        &self,
        catalogue: &[(&'static str, &'static str)],
        unset_is_zero: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        if let Some(stray) = self.values.keys().find(|k| {
            !END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| n == *k)
        }) {
            return Err(format!("metric {stray} is not in the catalogue"));
        }
        catalogue
            .iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                Some(v) => Err(format!("metric {name} is not finite ({v})")),
                None if unset_is_zero => Ok((name, 0.0, unit)),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub struct ResultLine<'a> {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: &'a [(&'static str, f64, &'static str)],
}

impl Serialize for ResultLine<'_> {
    fn to_value(&self) -> Value {
        let metrics = self
            .rows
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// Median of `xs` (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Host seconds as a compact list, for the human-readable notes.
pub fn list_secs(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    format!("[{}]", items.join(", "))
}

/// The measuring window of one run: repetitions continue while the next
/// one, at the median length so far, still ends inside `seconds`.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Opens a window of `seconds` host seconds, starting now.
    pub fn start(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to run another repetition, given the lengths of those run
    /// so far. At least two always run, so that their outputs can be
    /// compared.
    pub fn another(&self, done: &[f64]) -> bool {
        done.len() < 2 || self.start.elapsed().as_secs_f64() + median(done) <= self.seconds
    }
}

/// Compares a repetition's simulated outputs with the first one's, bit
/// for bit.
pub fn same_bits(what: &str, first: &[u64], this: &[u64]) -> Vec<String> {
    if first == this {
        Vec::new()
    } else {
        vec![format!(
            "simulated outputs differ from the first repetition ({what}: {first:?} vs {this:?})"
        )]
    }
}

/// The process's peak resident set, MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Benchmark {
        end_to_end: Vec<Entry>,
        per_layer: Vec<Entry>,
    }

    #[derive(Deserialize)]
    struct Entry {
        name: String,
        unit: String,
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let bench: Benchmark = serde_json::from_str(json).expect("BENCHMARK.json parses");
        let listed = |entries: &[Entry]| -> Vec<(String, String)> {
            entries
                .iter()
                .map(|e| (e.name.clone(), e.unit.clone()))
                .collect()
        };
        let ours = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&bench.end_to_end), ours(&END_TO_END));
        assert_eq!(listed(&bench.per_layer), ours(&PER_LAYER));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rows_follow_the_catalogue() {
        let mut r = Report::default();
        r.set("run_s", 1.5);
        assert!(r.rows(&END_TO_END, false).is_err());
        let rows = r.rows(&PER_LAYER, true).expect("per-layer rows");
        assert_eq!(rows.len(), PER_LAYER.len());
        r.set("bogus", 1.0);
        assert!(r.rows(&PER_LAYER, true).is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let rows = [("run_s", 1.25, "s")];
        let line = ResultLine {
            correct: true,
            attempted: 3,
            failed: 0,
            rows: &rows,
        };
        let json = serde_json::to_string(&line).expect("serialize");
        assert_eq!(
            json,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"run_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
