//! What one run of one workload produces, and how it is printed.

use tc_types::Json;

use crate::spec::{MetricSpec, Spec};

/// Attempted/failed accounting for a run. Everything that can go wrong —
/// a report with violations, a panic, a non-200, a missing or mismatched
/// line, a broken self-consistency check — is one failed attempt.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure counted, for the operator (stderr).
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one attempt; a false `ok` counts it as failed with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(why());
        }
    }
}

/// The named values a run measured, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `name = value`, replacing an earlier value of the same name.
    pub fn put(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// One finished run.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub checks: Checks,
    pub metrics: Metrics,
    /// Extra human-readable lines (`workload key value`), e.g. the house
    /// pin and the full-width fingerprint.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The command's exit code: 0 only for a run with no failed attempt.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    /// The contract's table for this run's mode.
    fn table<'a>(&self, spec: &'a Spec) -> &'a [MetricSpec] {
        if self.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        }
    }

    /// Fails the run for any measured metric the contract does not name,
    /// any end-to-end metric that is missing, and any value that is not a
    /// finite number.
    pub fn validate(&mut self, spec: &Spec) {
        let table = self.table(spec);
        let mut problems = Vec::new();
        for (name, value) in self.metrics.iter() {
            if !table.iter().any(|m| m.name == name) {
                problems.push(format!("metric `{name}` is not in BENCHMARK.json"));
            }
            if !value.is_finite() {
                problems.push(format!("metric `{name}` is not finite: {value}"));
            }
        }
        if !self.trace {
            for m in table {
                if self.metrics.get(&m.name).is_none() {
                    problems.push(format!("end-to-end metric `{}` was not measured", m.name));
                }
            }
        }
        for problem in problems {
            self.checks.check(false, || problem);
        }
    }

    /// Prints every measured metric as `workload metric value unit`, then
    /// the result object as the last line of standard output.
    pub fn print(&self, spec: &Spec) {
        for note in &self.notes {
            println!("{} {note}", self.workload);
        }
        for (name, value) in self.metrics.iter() {
            let unit = spec.metric(name).map_or("?", |m| m.unit.as_str());
            println!("{} {name} {value} {unit}", self.workload);
        }
        for note in &self.checks.notes {
            eprintln!("{} FAILED: {note}", self.workload);
        }
        println!("{}", self.to_json(spec));
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of this mode's table. A
    /// per-layer metric the workload does not exercise reads 0.
    pub fn to_json(&self, spec: &Spec) -> Json {
        let metrics = self
            .table(spec)
            .iter()
            .map(|m| {
                let value = self.metrics.get(&m.name).filter(|v| v.is_finite());
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), number(value.unwrap_or(0.0))),
                        ("unit".to_string(), Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Num(self.checks.attempted.max(1).to_string()),
            ),
            (
                "failed".to_string(),
                Json::Num(self.checks.failed.to_string()),
            ),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// A JSON number with all the digits of `value` (shortest round-trip form).
pub fn number(value: f64) -> Json {
    Json::Num(format!("{value}"))
}
