//! The metric registry and the result line.
//!
//! Every run prints every metric of its mode — the end-to-end set without
//! tracing, the per-layer set with it — so parent and child commits are
//! always compared name by name. `BENCHMARK.json` lists the same names and
//! units; a self-test keeps the two in step.

/// End-to-end metrics: `(name, unit)`. Host time throughout.
///
/// Only statistics that stay put when the host's vCPU speed swings
/// within and between runs are gated: an operation's best time, which
/// needs one quiet moment per run. Medians and rates are reported,
/// ungated, by the traced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_best", "ms"),
    ("first_output_ms_best", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Names are
/// prefixed with the layer they measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core.engine, through the timing sink.
    ("slot.empty_ns", "ns"),
    ("slot.singleton_ns", "ns"),
    ("slot.collision_ns", "ns"),
    ("slot.cascade_ns", "ns"),
    ("slots_per_inventory", "count"),
    ("sim.air_ms_per_inventory", "ms"),
    ("estimator.updates", "count"),
    ("allocs_per_slot", "1/slot"),
    // types.hash
    ("hash.transmits_ns", "ns"),
    ("hash.tests_per_inventory", "count"),
    // sim.sampling
    ("sampling.draw_ns", "ns"),
    // core.records, signal.anc, signal.cascade
    ("records.add_record_us", "us"),
    ("records.learn_us", "us"),
    ("anc.synth_us", "us"),
    ("cascade.resolve_us", "us"),
    ("records.created", "count"),
    ("records.usable", "count"),
    ("records.attempts", "count"),
    ("records.failed", "count"),
    ("records.attempts_per_usable", "ratio"),
    // bench.serve, obs.jsonl, obs.stream, sim.shard, sim.population
    ("serve.parse_us", "us"),
    ("serve.accept_ms_p50", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("wire.encode_ns", "ns"),
    ("stream.push_recv_ns", "ns"),
    ("population.generate_us", "us"),
    ("serve.lines_per_request", "count"),
    ("stream.dropped_events", "count"),
    // The traced run against the untraced one.
    ("trace_overhead_frac", "ratio"),
    // Whole-system medians and rates from the traced run's uninstrumented
    // operations: context for the gated set, too host-sensitive to gate.
    ("ungated.op_ms_p50", "ms"),
    ("ungated.first_output_ms_p50", "ms"),
    ("ungated.ops_per_s", "1/s"),
    ("ungated.items_per_s", "1/s"),
];

/// What one run measured: operation counts plus named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Attempted operations that errored or failed the oracle.
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    /// One line per oracle failure, printed to stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a metric; `name` must be in the registry of the run's mode.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the registry"
        );
        assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.values.push((name, value));
    }

    /// Records one oracle failure against an attempted operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Adds `attempted` operations and one failure per message.
    pub fn absorb(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }

    /// Renders the human-readable table and the final JSON line, checking
    /// that exactly the metrics of `registry` were set.
    pub fn render(&self, registry: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut names: Vec<&str> = self.values.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let mut expected: Vec<&str> = registry.iter().map(|(n, _)| *n).collect();
        expected.sort_unstable();
        if names != expected {
            return Err(format!(
                "metric set mismatch: measured {names:?}, registry {expected:?}"
            ));
        }
        let mut text = String::new();
        let mut json = String::new();
        for &(name, unit) in registry {
            let value = self
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .expect("checked above");
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            text.push_str(&format!("{name:<28} {value:>16.6} {unit}\n"));
            if !json.is_empty() {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            ));
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        text.push_str(&format!(
            "{:<28} {failed_frac:>16.6} ({} of {} operations)\n",
            "failed_frac", self.failed, self.attempted
        ));
        text.push_str(&format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ));
        Ok(text)
    }
}

/// The unit a registered metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_bench::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Renders a full outcome for `registry` and returns the metric names
    /// and units of its JSON line.
    fn printed(registry: &[(&'static str, &'static str)]) -> Vec<(String, String)> {
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for &(name, _) in registry {
            outcome.set(name, 1.5);
        }
        let text = outcome.render(registry).expect("complete outcome renders");
        let last = Json::parse(text.lines().last().expect("a last line")).expect("JSON line");
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(metrics)) = last.get("metrics") else {
            panic!("metrics object")
        };
        metrics
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_owned())
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_in_benchmark_json() {
        let json = benchmark_json();
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = listed(&json, key);
            let printed = printed(registry);
            for metric in &printed {
                assert!(listed.contains(metric), "{metric:?} missing from {key}");
            }
            assert_eq!(listed.len(), printed.len(), "{key} lists unprinted metrics");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn incomplete_or_unknown_metrics_are_refused() {
        let mut outcome = Outcome::default();
        outcome.set("setup_s", 1.0);
        assert!(outcome.render(END_TO_END).is_err());
        let unknown = std::panic::catch_unwind(|| Outcome::default().set("nope", 1.0));
        assert!(unknown.is_err());
    }
}
