//! Error and invariant-violation types.

use std::error::Error;
use std::fmt;

use tc_sim::snap_enum;

use crate::addr::BlockAddr;
use crate::ids::{Cycle, NodeId};

/// A system configuration was internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with a human-readable explanation.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }

    /// The explanation of what was inconsistent.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// A violation of one of the correctness-substrate invariants (or of the
/// coherence safety property), detected by the verification layer.
///
/// The whole point of Token Coherence is that these can never occur no matter
/// what the performance protocol does; the verification layer exists to check
/// that claim mechanically during simulation and in the test suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The total number of tokens for a block changed (invariant #1').
    TokenConservation {
        /// Block whose tokens were miscounted.
        addr: BlockAddr,
        /// Expected total token count `T`.
        expected: u32,
        /// Observed total token count.
        found: u32,
        /// Time of the audit.
        at: Cycle,
    },
    /// More than one owner token exists for a block (invariant #1').
    DuplicateOwner {
        /// Block with duplicate owner tokens.
        addr: BlockAddr,
        /// Time of the audit.
        at: Cycle,
    },
    /// A node wrote a block without holding all tokens / exclusive permission
    /// (invariant #2').
    WriteWithoutExclusive {
        /// Offending node.
        node: NodeId,
        /// Block that was written.
        addr: BlockAddr,
        /// Tokens (or sharers) held at the time.
        held: u32,
        /// Tokens required.
        required: u32,
        /// Time of the write.
        at: Cycle,
    },
    /// A node read a block without holding a token / valid copy
    /// (invariant #3').
    ReadWithoutToken {
        /// Offending node.
        node: NodeId,
        /// Block that was read.
        addr: BlockAddr,
        /// Time of the read.
        at: Cycle,
    },
    /// A message carried the owner token without data (invariant #4').
    OwnerTokenWithoutData {
        /// Block concerned.
        addr: BlockAddr,
        /// Time the message was sent.
        at: Cycle,
    },
    /// A load observed a value other than the one written by the most recent
    /// store (the single-writer/valid-data safety property).
    StaleDataRead {
        /// Node that performed the load.
        node: NodeId,
        /// Block that was read.
        addr: BlockAddr,
        /// Version of the data the load observed.
        observed_version: u64,
        /// Version the verification layer expected.
        expected_version: u64,
        /// Time of the load.
        at: Cycle,
    },
    /// A request never completed within the starvation bound.
    Starvation {
        /// Node whose request starved.
        node: NodeId,
        /// Block being requested.
        addr: BlockAddr,
        /// Time the request was issued.
        issued_at: Cycle,
        /// Time of the audit that declared starvation.
        at: Cycle,
        /// How long the request had been waiting when starvation was
        /// declared (`at - issued_at`, in cycles). Carried explicitly so
        /// fairness reports need no re-derivation.
        waited: Cycle,
    },
    /// The run made no forward progress for an entire event budget: events
    /// kept flowing (so the drain-limit deadlock detector never fired) but
    /// no operation completed — the livelock the paper's persistent
    /// requests exist to rule out.
    Livelock {
        /// Node whose request was outstanding when the watchdog tripped.
        node: NodeId,
        /// Block that request is for.
        addr: BlockAddr,
        /// Time the stuck request was issued.
        issued_at: Cycle,
        /// Time the watchdog tripped.
        at: Cycle,
        /// Events processed since the last completed operation.
        events_without_progress: u64,
    },
    /// The run hit its drain limit with requests still outstanding: the
    /// protocol wedged (a request was stranded with no message, timer, or
    /// event left that could ever complete it).
    Deadlock {
        /// Node whose request is stuck.
        node: NodeId,
        /// Block the stuck request is for.
        addr: BlockAddr,
        /// Time the stuck request was issued.
        issued_at: Cycle,
        /// Time the drain limit was hit.
        at: Cycle,
    },
}

// Tag 6 was the four-field `Starvation` of snapshot v1, before `waited`;
// tag 9 replaced it. Never reuse 6.
snap_enum!(InvariantViolation, "violation" {
    0 => TokenConservation { addr, expected, found, at },
    1 => DuplicateOwner { addr, at },
    2 => WriteWithoutExclusive { node, addr, held, required, at },
    3 => ReadWithoutToken { node, addr, at },
    4 => OwnerTokenWithoutData { addr, at },
    5 => StaleDataRead { node, addr, observed_version, expected_version, at },
    7 => Livelock { node, addr, issued_at, at, events_without_progress },
    8 => Deadlock { node, addr, issued_at, at },
    9 => Starvation { node, addr, issued_at, at, waited },
});

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::TokenConservation {
                addr,
                expected,
                found,
                at,
            } => write!(
                f,
                "token conservation violated for {addr}: expected {expected} tokens, found {found} at cycle {at}"
            ),
            InvariantViolation::DuplicateOwner { addr, at } => {
                write!(f, "duplicate owner token for {addr} at cycle {at}")
            }
            InvariantViolation::WriteWithoutExclusive {
                node,
                addr,
                held,
                required,
                at,
            } => write!(
                f,
                "{node} wrote {addr} holding {held}/{required} tokens at cycle {at}"
            ),
            InvariantViolation::ReadWithoutToken { node, addr, at } => {
                write!(f, "{node} read {addr} without a token at cycle {at}")
            }
            InvariantViolation::OwnerTokenWithoutData { addr, at } => {
                write!(f, "owner token for {addr} sent without data at cycle {at}")
            }
            InvariantViolation::StaleDataRead {
                node,
                addr,
                observed_version,
                expected_version,
                at,
            } => write!(
                f,
                "{node} read stale data for {addr}: observed v{observed_version}, expected v{expected_version} at cycle {at}"
            ),
            InvariantViolation::Starvation {
                node,
                addr,
                issued_at,
                at,
                waited,
            } => write!(
                f,
                "{node} starved on {addr}: issued at cycle {issued_at}, still incomplete after \
                 waiting {waited} cycles at cycle {at}"
            ),
            InvariantViolation::Livelock {
                node,
                addr,
                issued_at,
                at,
                events_without_progress,
            } => write!(
                f,
                "livelock: {events_without_progress} events without progress; {node} stuck on \
                 {addr} (issued at cycle {issued_at}) when the watchdog tripped at cycle {at} \
                 (rerun with TC_TRACE_BLOCK={} for the causal trace)",
                addr.value()
            ),
            InvariantViolation::Deadlock {
                node,
                addr,
                issued_at,
                at,
            } => write!(
                f,
                "deadlock: {node} stuck on {addr} (issued at cycle {issued_at}) when the drain \
                 limit was hit at cycle {at}"
            ),
        }
    }
}

impl Error for InvariantViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_displays_message() {
        let e = ConfigError::new("bad thing");
        assert_eq!(e.to_string(), "invalid configuration: bad thing");
        assert_eq!(e.message(), "bad thing");
    }

    #[test]
    fn violations_display_useful_context() {
        let v = InvariantViolation::TokenConservation {
            addr: BlockAddr::new(5),
            expected: 16,
            found: 15,
            at: 100,
        };
        let text = v.to_string();
        assert!(text.contains("16"));
        assert!(text.contains("15"));
        assert!(text.contains("cycle 100"));

        let v = InvariantViolation::StaleDataRead {
            node: NodeId::new(2),
            addr: BlockAddr::new(9),
            observed_version: 3,
            expected_version: 4,
            at: 77,
        };
        assert!(v.to_string().contains("stale"));
    }

    #[test]
    fn every_violation_round_trips_and_the_retired_tag_is_corrupt() {
        use tc_sim::{Snap, SnapReader, SnapshotError};
        let (node, addr) = (NodeId::new(3), BlockAddr::new(9));
        for v in [
            InvariantViolation::TokenConservation {
                addr,
                expected: 16,
                found: 15,
                at: 1,
            },
            InvariantViolation::DuplicateOwner { addr, at: 2 },
            InvariantViolation::WriteWithoutExclusive {
                node,
                addr,
                held: 1,
                required: 16,
                at: 3,
            },
            InvariantViolation::ReadWithoutToken { node, addr, at: 4 },
            InvariantViolation::OwnerTokenWithoutData { addr, at: 5 },
            InvariantViolation::StaleDataRead {
                node,
                addr,
                observed_version: 6,
                expected_version: 7,
                at: 8,
            },
            InvariantViolation::Starvation {
                node,
                addr,
                issued_at: 100,
                at: 90_000,
                waited: 89_900,
            },
            InvariantViolation::Livelock {
                node,
                addr,
                issued_at: 9,
                at: 10,
                events_without_progress: 11,
            },
            InvariantViolation::Deadlock {
                node,
                addr,
                issued_at: 12,
                at: 13,
            },
        ] {
            tc_testkit::assert_snap_round_trip(&v);
        }
        // The pre-`waited` Starvation's tag is retired, not reassigned.
        assert_eq!(
            InvariantViolation::load(&mut SnapReader::new(&[6; 29])),
            Err(SnapshotError::Corrupt("violation tag 6".into()))
        );
    }

    #[test]
    fn violations_are_std_errors() {
        fn takes_error(_: &dyn Error) {}
        takes_error(&ConfigError::new("x"));
        takes_error(&InvariantViolation::DuplicateOwner {
            addr: BlockAddr::new(1),
            at: 0,
        });
    }
}
