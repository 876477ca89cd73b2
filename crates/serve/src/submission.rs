//! The submission wire format: JSON in, validated [`ExperimentPoint`]s out.
//!
//! A submission carries the *full* determinism tuple explicitly — every
//! [`SystemConfig`] field per point, the workload by catalog name, the run
//! options, fault and adversary specs as their `Display` strings — so that
//! a served run is reproducible from the submission text alone and the
//! dedup cache can key on exactly what it received. Campaign expansion
//! (`table1` → points) happens client-side in `tc-bench submit`; the server
//! only ever sees explicit point lists.
//!
//! Parsing is strict: unknown protocol/workload/topology names, missing,
//! repeated or unknown members, or a configuration that fails
//! [`SystemConfig::validate`] are rejected with a structured,
//! field-addressed error *before* the job is queued — a malformed
//! submission must never panic a worker, and a misspelt one must never run
//! as something else.

use tc_system::{determinism_key, ExperimentPoint, RunOptions};
use tc_types::{FaultSpec, JobPriority, Json, SystemConfig, Wire, WireError};

/// Hard ceiling on points per submission; a sweep bigger than this should
/// be split into multiple jobs so status stays legible and one job cannot
/// monopolize the queue forever.
pub const MAX_POINTS_PER_SUBMISSION: usize = 65_536;

/// A structured rejection: what was wrong and the dotted path to where,
/// e.g. `points[2].config.protocol`.
pub type SubmitError = WireError;

/// A validated experiment submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Queue priority; higher-priority jobs are dequeued first.
    pub priority: JobPriority,
    /// Campaign-wide run options (per-point faults may override `faults`).
    pub options: RunOptions,
    /// The points to run, in submission order.
    pub points: Vec<ExperimentPoint>,
}

fn point_to_json(point: &ExperimentPoint) -> Json {
    Json::obj([
        ("label", point.label.to_json()),
        ("config", point.config.to_json()),
        ("workload", point.workload.to_json()),
        ("faults", point.faults.to_json()),
    ])
}

/// Reads one point. Layout belongs to the members' own [`Wire`] impls; what
/// is decided here is policy: the configuration must pass
/// [`SystemConfig::validate`], and a point without `faults` injects none.
fn point_from_json(json: &Json, path: &str) -> Result<ExperimentPoint, SubmitError> {
    let label: String = json.member(path, "label")?;
    let config: SystemConfig = json.member(path, "config")?;
    config
        .validate()
        .map_err(|e| SubmitError::new(format!("{path}.config"), e.to_string()))?;
    let point = ExperimentPoint::new(label, config, json.member(path, "workload")?);
    let faults = json.member_opt(path, "faults")?;
    json.only_members(path, &["label", "config", "workload", "faults"])?;
    Ok(point.with_faults(faults.unwrap_or(FaultSpec::none())))
}

impl Submission {
    /// Serializes the submission to the wire form [`Submission::parse`]
    /// accepts. Round-trips exactly: enums by name, floats shortest-form.
    /// A served run cuts no checkpoint, so `options.checkpoint_every` is not
    /// part of the wire form.
    pub fn to_json(&self) -> String {
        let o = &self.options;
        Json::obj([
            ("priority", self.priority.to_json()),
            ("ops_per_node", o.ops_per_node.to_json()),
            ("max_cycles", o.max_cycles.to_json()),
            ("faults", o.faults.to_json()),
            ("adversary", o.adversary.to_json()),
            ("livelock_events_budget", o.livelock_events_budget.to_json()),
            (
                "points",
                Json::Arr(self.points.iter().map(point_to_json).collect()),
            ),
        ])
        .to_string()
    }

    /// Parses and validates a submission from its JSON wire form.
    /// `priority`, `livelock_events_budget` and a point's `faults` may be
    /// left out (their defaults apply).
    ///
    /// # Errors
    ///
    /// Returns a [`SubmitError`] naming the offending field for syntax
    /// errors, missing, repeated or unknown members, unknown
    /// protocol/workload/topology names, out-of-range values,
    /// configurations that fail [`SystemConfig::validate`], fault or
    /// adversary specs outside a point's protocol contract
    /// ([`ProtocolKind::admits`](tc_types::ProtocolKind::admits)), and an
    /// adversary armed with the test-only arbiter sabotage.
    pub fn parse(text: &str) -> Result<Submission, SubmitError> {
        let root = Json::parse(text)
            .map_err(|e| SubmitError::new("body", format!("invalid JSON: {e}")))?;
        if root.as_object().is_none() {
            return Err(SubmitError::new("body", "expected a JSON object"));
        }
        let priority = root.member_opt("", "priority")?.unwrap_or_default();
        let defaults = RunOptions::default();
        let options = RunOptions {
            ops_per_node: root.member("", "ops_per_node")?,
            max_cycles: root.member("", "max_cycles")?,
            faults: root.member("", "faults")?,
            adversary: root.member("", "adversary")?,
            livelock_events_budget: root
                .member_opt("", "livelock_events_budget")?
                .unwrap_or(defaults.livelock_events_budget),
            ..defaults
        };
        // A zero bound would stop the run after its first event: no
        // operations (and a result cached as clean), or a livelock reported
        // that never happened.
        for (field, value) in [
            ("ops_per_node", options.ops_per_node),
            ("max_cycles", options.max_cycles),
            ("livelock_events_budget", options.livelock_events_budget),
        ] {
            if value == 0 {
                return Err(SubmitError::new(field, "must be at least 1"));
            }
        }

        let raw_points = root
            .member_value("", "points")?
            .ok_or_else(|| SubmitError::new("points", "missing required field"))?
            .as_array()
            .ok_or_else(|| SubmitError::new("points", "expected an array"))?;
        if raw_points.is_empty() {
            return Err(SubmitError::new("points", "submission has no points"));
        }
        if raw_points.len() > MAX_POINTS_PER_SUBMISSION {
            return Err(SubmitError::new(
                "points",
                format!(
                    "{} points exceeds the per-submission limit of {MAX_POINTS_PER_SUBMISSION}",
                    raw_points.len()
                ),
            ));
        }
        let points: Vec<ExperimentPoint> = raw_points
            .iter()
            .enumerate()
            .map(|(i, point)| point_from_json(point, &format!("points[{i}]")))
            .collect::<Result<_, _>>()?;
        root.only_members(
            "",
            &[
                "priority",
                "ops_per_node",
                "max_cycles",
                "faults",
                "adversary",
                "livelock_events_budget",
                "points",
            ],
        )?;
        // The sabotage breaks the victim's arbiter on purpose: an oracle
        // trigger for tests, never a result to run and cache for a client.
        if options.adversary.sabotage != 0 {
            let message = "sabotage is a test-only oracle trigger";
            return Err(SubmitError::new("adversary", message));
        }
        // Each point runs inside its protocol's contract, under its own
        // fault spec or else the campaign-wide one.
        for (i, point) in points.iter().enumerate() {
            let run = point.effective_options(&options);
            let refusal = point.config.protocol.admits(&run.faults, &run.adversary);
            refusal.map_err(|r| match r.spec {
                "faults" if !point.faults.is_none() => {
                    SubmitError::new(format!("points[{i}].faults"), r.message)
                }
                spec => SubmitError::new(spec, r.message),
            })?;
        }

        Ok(Submission {
            priority,
            options,
            points,
        })
    }
}

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

/// Derives the dedup-cache key for one point under the given options: the
/// [`determinism_key`] of the point's configuration and workload under its
/// effective options ([`ExperimentPoint::effective_options`]). The *label*
/// is deliberately excluded: the same physical experiment under a
/// different name is still the same experiment, and the served line is
/// re-rendered with the submitted label on a hit.
pub fn cache_key(point: &ExperimentPoint, options: &RunOptions) -> String {
    determinism_key(
        &point.config,
        &point.workload,
        &point.effective_options(options),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{AdversarySpec, ProtocolKind, TopologyKind};
    use tc_workloads::WorkloadProfile;

    fn sample() -> Submission {
        let mut config = SystemConfig::isca03_default().with_nodes(4).with_seed(11);
        config.l2.size_bytes = 256 * 1024;
        let points = vec![
            ExperimentPoint::new("a", config.clone(), WorkloadProfile::specjbb()),
            ExperimentPoint::new(
                "b",
                config.with_protocol(ProtocolKind::Directory),
                WorkloadProfile::oltp(),
            )
            .with_faults(FaultSpec::parse("delay=0.0001@20").unwrap()),
        ];
        Submission {
            priority: JobPriority::High,
            options: RunOptions {
                ops_per_node: 500,
                max_cycles: 10_000_000,
                ..RunOptions::default()
            },
            points,
        }
    }

    #[test]
    fn submission_round_trips_through_json() {
        let sub = sample();
        let text = sub.to_json();
        let parsed = Submission::parse(&text).expect("round trip must parse");
        assert_eq!(parsed.priority, sub.priority);
        assert_eq!(parsed.options, sub.options);
        assert_eq!(parsed.points.len(), sub.points.len());
        for (got, want) in parsed.points.iter().zip(&sub.points) {
            assert_eq!(got.label, want.label);
            assert_eq!(got.config, want.config);
            assert_eq!(got.workload, want.workload);
            assert_eq!(got.faults, want.faults);
        }
        // And the re-serialization is byte-identical.
        assert_eq!(Submission::parse(&text).unwrap().to_json(), text);
    }

    #[test]
    fn adversary_fields_round_trip() {
        let mut sub = sample();
        sub.options.adversary =
            AdversarySpec::parse("reorder=3,seed=9").expect("valid adversary spec");
        let parsed = Submission::parse(&sub.to_json()).unwrap();
        assert_eq!(parsed.options.adversary.reorder_window, 3);
        assert_eq!(parsed.options.adversary.seed, 9);
    }

    #[test]
    fn unknown_protocol_is_a_structured_error() {
        let text = sample().to_json().replace("\"TokenB\"", "\"TokenZ\"");
        let err = Submission::parse(&text).unwrap_err();
        assert_eq!(err.field, "points[0].config.protocol");
        assert!(err.message.contains("TokenZ"), "{}", err.message);
        assert!(err.message.contains("TokenB"), "{}", err.message);
    }

    #[test]
    fn unknown_workload_is_a_structured_error() {
        let text = sample().to_json().replace("\"SPECjbb\"", "\"speccpu\"");
        let err = Submission::parse(&text).unwrap_err();
        assert_eq!(err.field, "points[0].workload");
        assert!(err.message.contains("speccpu"), "{}", err.message);
    }

    #[test]
    fn invalid_configurations_are_rejected_at_parse_time() {
        // Snooping on the torus fails SystemConfig::validate.
        let mut sub = sample();
        sub.points[0].config = sub.points[0]
            .config
            .clone()
            .with_protocol(ProtocolKind::Snooping)
            .with_topology(TopologyKind::Torus);
        let err = Submission::parse(&sub.to_json()).unwrap_err();
        assert_eq!(err.field, "points[0].config");
        assert!(err.message.contains("snooping"), "{}", err.message);
    }

    /// Geometries `System::build` would panic on, alias node ids under, or
    /// abort the process allocating for are refused at the door.
    #[test]
    fn unbuildable_configurations_are_rejected_at_parse_time() {
        let text = sample().to_json();
        for (from, to) in [
            ("\"associativity\":4", "\"associativity\":0"),
            ("\"size_bytes\":262144", "\"size_bytes\":1000"),
            ("\"num_nodes\":4", "\"num_nodes\":70000"),
            (
                "\"size_bytes\":262144",
                "\"size_bytes\":1152921504606846976",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            let err = Submission::parse(&text.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err.field, "points[0].config", "{to}: {err}");
        }
    }

    #[test]
    fn zero_run_bounds_are_refused_by_name() {
        let text = sample().to_json();
        for (from, field) in [
            ("\"ops_per_node\":500", "ops_per_node"),
            ("\"max_cycles\":10000000", "max_cycles"),
            (
                "\"livelock_events_budget\":50000000",
                "livelock_events_budget",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            let zeroed = text.replacen(from, &format!("\"{field}\":0"), 1);
            let err = Submission::parse(&zeroed).unwrap_err();
            assert_eq!(
                (err.field.as_str(), err.message.as_str()),
                (field, "must be at least 1")
            );
        }
    }

    #[test]
    fn faults_outside_a_points_contract_are_refused_by_name() {
        // Point `a` is TokenB, point `b` Directory with its own delay spec.
        let mut sub = sample();
        sub.options.faults = FaultSpec::parse("drop=0.01").unwrap();
        assert!(Submission::parse(&sub.to_json()).is_ok(), "b keeps its own");
        sub.points[1].faults = FaultSpec::none();
        let err = Submission::parse(&sub.to_json()).unwrap_err();
        assert_eq!(err.field, "faults");
        assert!(err.message.starts_with("Directory does not tolerate drop"));
        let mut sub = sample();
        sub.points[1].faults = FaultSpec::parse("dup=0.5").unwrap();
        let err = Submission::parse(&sub.to_json()).unwrap_err();
        assert_eq!(err.field, "points[1].faults");
        assert!(err.message.starts_with("Directory does not tolerate dup"));
    }

    #[test]
    fn integers_are_range_checked_not_truncated() {
        // 2^32 + 4 would narrow to 4 tokens, which a 4-node system accepts.
        let text = sample().to_json().replacen(
            "\"tokens_per_block\":16",
            "\"tokens_per_block\":4294967300",
            1,
        );
        let err = Submission::parse(&text).unwrap_err();
        assert_eq!(err.field, "points[0].config.token.tokens_per_block");
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn optional_members_take_their_defaults() {
        let mut sub = sample();
        sub.priority = JobPriority::Normal;
        sub.points.truncate(1);
        let text = sub.to_json();
        let mut trimmed = text.clone();
        for member in [
            "\"priority\":\"normal\",",
            "\"livelock_events_budget\":50000000,",
            ",\"faults\":\"none\"}",
        ] {
            assert!(trimmed.contains(member), "{member}");
            trimmed = trimmed.replacen(member, if member.ends_with('}') { "}" } else { "" }, 1);
        }
        assert_eq!(Submission::parse(&trimmed).unwrap().to_json(), text);
        let not_object =
            text.replacen("{\"label\"", "[{\"label\"", 1)
                .replacen("\"none\"}", "\"none\"}]", 1);
        let err = Submission::parse(&not_object).unwrap_err();
        assert_eq!(
            (err.field.as_str(), err.message.as_str()),
            ("points[0]", "expected an object")
        );
    }

    #[test]
    fn syntax_and_shape_errors_name_the_field() {
        assert_eq!(Submission::parse("{oops").unwrap_err().field, "body");
        assert_eq!(Submission::parse("[1,2]").unwrap_err().field, "body");
        let no_points = sample().to_json().replace("\"points\"", "\"notpoints\"");
        assert_eq!(Submission::parse(&no_points).unwrap_err().field, "points");
        let err = SubmitError::new("points", "submission has no points");
        assert!(err.to_json().contains("\"field\":\"points\""));
    }

    /// Each of these used to parse and run something other than what was
    /// written: the first of two values, the default priority, no faults,
    /// a configuration without the misspelt knob.
    #[test]
    fn repeated_and_unknown_members_are_refused_where_they_sit() {
        let text = sample().to_json();
        for (from, to, field, message) in [
            (
                "\"ops_per_node\":500",
                "\"ops_per_node\":1,\"ops_per_node\":500",
                "ops_per_node",
                "member given twice",
            ),
            (
                "\"priority\":\"high\"",
                "\"priorty\":\"high\"",
                "priorty",
                "unknown member",
            ),
            (
                ",\"faults\":\"none\"}",
                ",\"fault\":\"drop=0.5\"}",
                "points[0].fault",
                "unknown member",
            ),
            (
                "\"tokens_per_block\":16",
                "\"tokens_per_block\":16,\"tokens\":4",
                "points[0].config.token.tokens",
                "unknown member",
            ),
            (
                "\"tokens_per_block\":16",
                "\"tokens_per_block\":16,\"persistent_latency_multiplier\":10.0",
                "points[0].config.token.persistent_latency_multiplier",
                "unknown member",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            let err = Submission::parse(&text.replacen(from, to, 1)).unwrap_err();
            assert_eq!((err.field.as_str(), err.message.as_str()), (field, message));
        }
    }

    #[test]
    fn cache_key_ignores_label_but_not_physics() {
        let sub = sample();
        let mut renamed = sub.points[0].clone();
        renamed.label = "renamed".to_string();
        assert_eq!(
            cache_key(&sub.points[0], &sub.options),
            cache_key(&renamed, &sub.options)
        );
        let mut reseeded = sub.points[0].clone();
        reseeded.config.seed += 1;
        assert_ne!(
            cache_key(&sub.points[0], &sub.options),
            cache_key(&reseeded, &sub.options)
        );
        let mut longer = sub.options;
        longer.ops_per_node += 1;
        assert_ne!(
            cache_key(&sub.points[0], &sub.options),
            cache_key(&sub.points[0], &longer)
        );
    }

    #[test]
    fn per_point_faults_override_in_the_cache_key() {
        let sub = sample();
        // Point b carries its own fault spec; changing the campaign-wide
        // spec must not change b's key (run_with overrides it), but must
        // change a's.
        let mut faulted = sub.options;
        faulted.faults = FaultSpec::parse("drop=1e-3").unwrap();
        assert_ne!(
            cache_key(&sub.points[0], &sub.options),
            cache_key(&sub.points[0], &faulted)
        );
        assert_eq!(
            cache_key(&sub.points[1], &sub.options),
            cache_key(&sub.points[1], &faulted)
        );
    }
}
