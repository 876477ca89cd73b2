//! Job vocabulary for the campaign service: identifiers, priorities, and
//! lifecycle states.
//!
//! These types are the wire vocabulary between `tc-serve` and its clients.
//! A priority and a state travel as their names, declared once each with
//! [`named_enum!`](crate::named_enum); a job id only ever travels outward,
//! as its `Display` form.

use std::fmt;

use crate::named_enum;

/// A server-assigned job identifier, printed as `job-<n>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority of a submitted job. Higher priorities are dequeued
/// first; within a priority, submission order wins (FIFO).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobPriority {
    /// Background work: sweeps nobody is waiting on.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Interactive work: jump the queue.
    High,
}

named_enum!(JobPriority, "priority" {
    Low => "low",
    Normal => "normal",
    High => "high",
});

/// Lifecycle state of a job on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Accepted and waiting in the priority queue.
    Queued,
    /// Claimed by a worker and executing.
    Running,
    /// Every point completed (cached or freshly run).
    Done,
    /// Execution failed (a point panicked); the queue keeps serving.
    Failed,
}

named_enum!(JobState, "job state" {
    Queued => "queued",
    Running => "running",
    Done => "done",
    Failed => "failed",
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::assert_named_enum;

    #[test]
    fn priorities_round_trip_and_order() {
        assert_named_enum(&JobPriority::ALL);
        assert_eq!(JobPriority::by_name("HIGH"), Some(JobPriority::High));
        assert_eq!(JobPriority::by_name("urgent"), None);
        assert!(JobPriority::Low < JobPriority::Normal);
        assert!(JobPriority::Normal < JobPriority::High);
        assert_eq!(JobPriority::default(), JobPriority::Normal);
    }

    #[test]
    fn states_round_trip() {
        assert_named_enum(&JobState::ALL);
        assert_eq!(JobId(17).to_string(), "job-17");
    }
}
