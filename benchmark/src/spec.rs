//! The benchmark's contract, read from the root `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is the single source of truth for workload names and for
//! every metric's name, unit, direction and regression bound. It is embedded
//! at compile time, so the binary cannot drift from the file it was built
//! next to, and `compare` applies exactly the bounds the file states.

use tc_types::Json;

/// The embedded contract file.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which never gate.
    pub bound: Option<f64>,
}

/// One workload of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The contract this binary was built against.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json is well-formed")
    }

    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}`"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let better = match text_of(item, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: bad `better` {other}")),
                    };
                    let bound = item.get("bound").and_then(Json::as_f64);
                    if bounded != bound.is_some() {
                        return Err(format!("BENCHMARK.json: `{key}` bound presence is wrong"));
                    }
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|item| {
                Ok(WorkloadSpec {
                    name: text_of(item, "name")?,
                    why: text_of(item, "why")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` must be a whole number")?,
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// Looks a metric up by name in either table.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// Whether `name` is one of the contract's workloads.
    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|w| w.name == name)
    }
}
