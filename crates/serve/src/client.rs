//! Blocking client for the campaign service: submit (with live line
//! streaming), status, and shutdown. This is what `tc-bench submit` /
//! `status` / `shutdown` call.

use std::fmt;

use tc_types::Json;

use crate::http::roundtrip;
use crate::line::JobLine;
use crate::submission::Submission;

/// A client-side failure: transport errors, non-200 responses (with the
/// server's structured error passed through), and failed jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientError {
    /// Human-readable description; includes the server's `error` (and
    /// `field`, when present) for rejected submissions.
    pub message: String,
}

impl ClientError {
    fn new(message: impl Into<String>) -> Self {
        ClientError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ClientError {}

/// The final accounting of a successful submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Server-assigned job id, e.g. `job-3`.
    pub job: String,
    /// Points in the submission.
    pub points: usize,
    /// Points actually simulated.
    pub ran: usize,
    /// Points served from the dedup cache.
    pub cache_hits: usize,
}

/// Turns a non-200 body (ideally the server's structured error object)
/// into a [`ClientError`].
fn error_from_body(status: u16, body: &[u8]) -> ClientError {
    let text = String::from_utf8_lossy(body);
    if let Ok(parsed) = Json::parse(text.trim()) {
        if let Some(message) = parsed.get("error").and_then(Json::as_str) {
            let detail = match parsed.get("field").and_then(Json::as_str) {
                Some(field) => format!("{message} (field: {field})"),
                None => message.to_string(),
            };
            return ClientError::new(format!("server rejected the request ({status}): {detail}"));
        }
    }
    ClientError::new(format!("server returned {status}: {}", text.trim()))
}

/// Submits to `addr`, streaming each run line to `on_run_line` as it
/// arrives (run lines only — the `job` ack and `done` trailer are consumed
/// here), and returns the final accounting.
///
/// # Errors
///
/// Returns a [`ClientError`] on transport failure, a non-200 response
/// (carrying the server's structured error), or a failed job.
pub fn submit(
    addr: &str,
    submission: &Submission,
    on_run_line: impl FnMut(&str),
) -> Result<SubmitOutcome, ClientError> {
    submit_json(addr, &submission.to_json(), on_run_line)
}

/// Like [`submit`], but takes the submission's JSON wire form directly.
///
/// # Errors
///
/// See [`submit`].
pub fn submit_json(
    addr: &str,
    body: &str,
    mut on_run_line: impl FnMut(&str),
) -> Result<SubmitOutcome, ClientError> {
    let mut job: Option<(String, usize)> = None;
    let mut finished: Option<Result<(usize, usize), String>> = None;
    let response = roundtrip(addr, "POST", "/submit", body.as_bytes(), |line| {
        match JobLine::parse(line) {
            Ok(JobLine::Run(_)) => on_run_line(line),
            Ok(JobLine::Ack {
                job: id, points, ..
            }) => job = Some((id, points)),
            Ok(JobLine::Done {
                ran, cache_hits, ..
            }) => finished = Some(Ok((ran, cache_hits))),
            Ok(JobLine::Failed { error, .. }) => finished = Some(Err(error)),
            Err(_) => {} // tolerate unknown noise on the stream
        }
    })
    .map_err(|e| ClientError::new(format!("transport error talking to {addr}: {e}")))?;

    if response.status != 200 {
        return Err(error_from_body(response.status, &response.body));
    }
    let (job, points) =
        job.ok_or_else(|| ClientError::new("stream ended without a job acknowledgement"))?;
    match finished {
        Some(Ok((ran, cache_hits))) => Ok(SubmitOutcome {
            job,
            points,
            ran,
            cache_hits,
        }),
        Some(Err(message)) => Err(ClientError::new(format!("{job} failed: {message}"))),
        None => Err(ClientError::new(format!(
            "{job}: stream ended before the job finished"
        ))),
    }
}

/// Fetches the plain-text status page.
///
/// # Errors
///
/// Returns a [`ClientError`] on transport failure or a non-200 response.
pub fn status(addr: &str) -> Result<String, ClientError> {
    let response = roundtrip(addr, "GET", "/status", b"", |_| {})
        .map_err(|e| ClientError::new(format!("transport error talking to {addr}: {e}")))?;
    if response.status != 200 {
        return Err(error_from_body(response.status, &response.body));
    }
    String::from_utf8(response.body)
        .map_err(|_| ClientError::new("status page is not UTF-8".to_string()))
}

/// Asks the server to drain and exit (queued jobs still finish).
///
/// # Errors
///
/// Returns a [`ClientError`] on transport failure or a non-200 response.
pub fn shutdown(addr: &str) -> Result<(), ClientError> {
    let response = roundtrip(addr, "POST", "/shutdown", b"", |_| {})
        .map_err(|e| ClientError::new(format!("transport error talking to {addr}: {e}")))?;
    if response.status != 200 {
        return Err(error_from_body(response.status, &response.body));
    }
    Ok(())
}
