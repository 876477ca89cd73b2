//! `tc-serve`: a resident campaign service for the Token Coherence
//! simulator — job queue, dedup result cache, live result streaming.
//!
//! A one-shot `tc-bench` campaign pays the full simulation cost every
//! invocation, even when a sweep shares most of its points with the last
//! one. This crate keeps a server resident instead: experiments are
//! submitted as JSON over a hand-rolled HTTP/1.1 server (plain
//! `std::net`, zero dependencies), validated into
//! [`ExperimentPoint`](tc_system::ExperimentPoint)s, run on a priority
//! job queue across a worker pool built on the existing
//! [`Campaign`](tc_system::Campaign) machinery, and streamed back as
//! NDJSON chunks as each point completes.
//!
//! Because runs are deterministic and bit-identical at any thread count,
//! results are *content-addressable*: the dedup cache keys on the full
//! determinism tuple (configuration, workload, run options, fault and
//! adversary specs, seed — label excluded), making repeated sweeps free,
//! and it persists through the engine snapshot plane so a restarted
//! server keeps its history. The serving contract — streamed lines are
//! byte-identical to one-shot `tc-bench --runs-json` output, and
//! identical resubmission is served entirely from cache — is pinned by
//! this crate's integration tests and the CI smoke gate.
//!
//! The binary surface lives in `tc-bench`: `tc-bench serve` hosts this
//! server; `submit`, `status`, and `shutdown` wrap [`client`].

pub mod cache;
pub mod client;
pub mod http;
mod line;
pub mod server;
pub mod submission;

pub use cache::ResultCache;
pub use client::{shutdown, status, submit, submit_json, ClientError, SubmitOutcome};
pub use server::{ServeOptions, ServeStats, Server};
pub use submission::{cache_key, Submission, SubmitError};
