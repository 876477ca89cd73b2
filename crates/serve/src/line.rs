//! The lines of a job's NDJSON stream, declared once for both ends.
//!
//! A `/submit` response is an acknowledgement, then one run line per point
//! in submission order, then a trailer. The run lines are
//! [`run_to_json`](tc_system::run_to_json)'s and pass through both ends
//! verbatim — that is the byte-identity contract — so all this module knows
//! of them is how to tell them apart: a line with a `label` is a run line, a
//! line with `done` is a trailer, anything else must be an acknowledgement.

use tc_types::{JobPriority, Json, Wire, WireError};

/// One line of a job's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JobLine {
    /// `{"job":…,"points":…,"priority":…}`: the job was queued.
    Ack {
        job: String,
        points: usize,
        priority: JobPriority,
    },
    /// One point's run line, as rendered (no trailing newline).
    Run(String),
    /// `{"done":true,"job":…,"ran":…,"cache_hits":…}`: every point was sent.
    Done {
        job: String,
        ran: usize,
        cache_hits: usize,
    },
    /// `{"done":false,"job":…,"error":…}`: a point panicked.
    Failed { job: String, error: String },
}

impl JobLine {
    /// The line as it is sent, newline included.
    pub(crate) fn render(&self) -> String {
        let json = match self {
            JobLine::Run(line) => return format!("{line}\n"),
            JobLine::Ack {
                job,
                points,
                priority,
            } => Json::obj([
                ("job", job.to_json()),
                ("points", points.to_json()),
                ("priority", priority.to_json()),
            ]),
            JobLine::Done {
                job,
                ran,
                cache_hits,
            } => Json::obj([
                ("done", true.to_json()),
                ("job", job.to_json()),
                ("ran", ran.to_json()),
                ("cache_hits", cache_hits.to_json()),
            ]),
            JobLine::Failed { job, error } => Json::obj([
                ("done", false.to_json()),
                ("job", job.to_json()),
                ("error", error.to_json()),
            ]),
        };
        format!("{json}\n")
    }

    /// Reads one received line (without its newline).
    pub(crate) fn parse(line: &str) -> Result<JobLine, WireError> {
        let json = Json::parse(line).map_err(|e| WireError::new("line", e.to_string()))?;
        if json.get("label").is_some() {
            return Ok(JobLine::Run(line.to_string()));
        }
        let job = json.member("", "job")?;
        Ok(match json.member_opt("", "done")? {
            Some(true) => JobLine::Done {
                job,
                ran: json.member("", "ran")?,
                cache_hits: json.member("", "cache_hits")?,
            },
            Some(false) => JobLine::Failed {
                job,
                error: json.member("", "error")?,
            },
            None => JobLine::Ack {
                job,
                points: json.member("", "points")?,
                priority: json.member("", "priority")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes clients in the field already parse.
    #[test]
    fn service_lines_keep_their_bytes_and_read_back() {
        let job = "job-3".to_string();
        for (line, bytes) in [
            (
                JobLine::Ack {
                    job: job.clone(),
                    points: 7,
                    priority: JobPriority::High,
                },
                "{\"job\":\"job-3\",\"points\":7,\"priority\":\"high\"}\n",
            ),
            (
                JobLine::Done {
                    job: job.clone(),
                    ran: 4,
                    cache_hits: 3,
                },
                "{\"done\":true,\"job\":\"job-3\",\"ran\":4,\"cache_hits\":3}\n",
            ),
            (
                JobLine::Failed {
                    job: job.clone(),
                    error: "a \"quoted\" panic".to_string(),
                },
                "{\"done\":false,\"job\":\"job-3\",\"error\":\"a \\\"quoted\\\" panic\"}\n",
            ),
            (
                JobLine::Run("{\"label\":\"p\",\"misses\":1.50}".to_string()),
                "{\"label\":\"p\",\"misses\":1.50}\n",
            ),
        ] {
            assert_eq!(line.render(), bytes);
            assert_eq!(JobLine::parse(bytes.trim_end()), Ok(line));
        }
    }

    #[test]
    fn malformed_lines_are_errors_not_defaults() {
        assert_eq!(JobLine::parse("not json").unwrap_err().field, "line");
        assert_eq!(
            JobLine::parse("[1]").unwrap_err().message,
            "expected an object"
        );
        let short = JobLine::parse("{\"done\":true,\"job\":\"job-1\"}").unwrap_err();
        assert_eq!(short.field, "ran");
        assert_eq!(
            JobLine::parse("{\"draining\":true}").unwrap_err().field,
            "job"
        );
    }
}
