//! Reissue-timeout policy: average-miss-latency tracking and randomized
//! exponential backoff.

use tc_sim::{snap_state, DeterministicRng};
use tc_types::Cycle;

/// Tracks the recent average miss latency with an exponential moving average
/// and derives the TokenB reissue and persistent-request timeouts from it.
///
/// The paper's policy (Section 4.2): reissue a transient request after twice
/// the recent average miss latency plus a small randomized exponential
/// backoff, and invoke a persistent request when a miss has gone unsatisfied
/// for roughly ten average miss times (approximately four reissues).
#[derive(Debug, Clone)]
pub struct MissLatencyTracker {
    average: f64,
    samples: u64,
    reissue_multiplier: f64,
    backoff_fraction: f64,
}

impl MissLatencyTracker {
    /// Initial average used before any misses have completed, chosen as a
    /// generous estimate of a cache-to-cache miss on the torus (a few link
    /// crossings plus controller occupancy).
    pub const INITIAL_AVERAGE_NS: f64 = 200.0;

    /// Creates a tracker using the given reissue multiplier (the paper
    /// uses 2.0).
    pub fn new(reissue_multiplier: f64) -> Self {
        MissLatencyTracker {
            average: Self::INITIAL_AVERAGE_NS,
            samples: 0,
            reissue_multiplier: reissue_multiplier.max(1.0),
            backoff_fraction: 0.25,
        }
    }

    /// Records a completed miss latency.
    pub fn record(&mut self, latency: Cycle) {
        self.samples += 1;
        let sample = latency as f64;
        if self.samples == 1 {
            self.average = sample;
        } else {
            // Exponential moving average weighted toward recent behaviour.
            self.average = 0.9 * self.average + 0.1 * sample;
        }
    }

    /// The current average miss latency estimate, in nanoseconds.
    pub fn average(&self) -> f64 {
        self.average
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The timeout to arm for the `issue_count`-th issue of a transient
    /// request (1 = the first issue). Later issues back off exponentially,
    /// with a small random jitter so that two racing processors do not
    /// reissue in lock step (the "much like ethernet" behaviour).
    pub fn reissue_timeout(&self, issue_count: u32, rng: &mut DeterministicRng) -> Cycle {
        let base = self.reissue_multiplier * self.average;
        let exponent = issue_count.saturating_sub(1).min(8);
        let window = (self.average * self.backoff_fraction) * f64::from(1u32 << exponent);
        let jitter = if window >= 1.0 {
            rng.next_below(window as u64 + 1)
        } else {
            0
        };
        (base as Cycle).max(1) + jitter
    }
}

// The multiplier and backoff fraction are config-derived.
snap_state!(MissLatencyTracker { average, samples });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_replaces_the_initial_guess() {
        let mut t = MissLatencyTracker::new(2.0);
        assert!((t.average() - MissLatencyTracker::INITIAL_AVERAGE_NS).abs() < 1e-9);
        t.record(100);
        assert!((t.average() - 100.0).abs() < 1e-9);
        assert_eq!(t.samples(), 1);
    }

    #[test]
    fn average_tracks_recent_latencies() {
        let mut t = MissLatencyTracker::new(2.0);
        for _ in 0..100 {
            t.record(50);
        }
        assert!((t.average() - 50.0).abs() < 1.0);
        for _ in 0..100 {
            t.record(500);
        }
        assert!(t.average() > 400.0, "average should chase recent samples");
    }

    #[test]
    fn timeout_is_at_least_twice_the_average() {
        let mut t = MissLatencyTracker::new(2.0);
        for _ in 0..10 {
            t.record(80);
        }
        let mut rng = DeterministicRng::new(1);
        for issue in 1..5 {
            let timeout = t.reissue_timeout(issue, &mut rng);
            assert!(timeout >= (2.0 * t.average()) as Cycle);
        }
    }

    #[test]
    fn backoff_window_grows_with_reissues() {
        let mut t = MissLatencyTracker::new(2.0);
        for _ in 0..10 {
            t.record(100);
        }
        let max_over = |issue: u32| {
            let mut rng = DeterministicRng::new(3);
            (0..200)
                .map(|_| t.reissue_timeout(issue, &mut rng))
                .max()
                .unwrap()
        };
        assert!(
            max_over(4) > max_over(1),
            "later issues should back off more"
        );
    }

    #[test]
    fn timeout_is_randomized() {
        let t = MissLatencyTracker::new(2.0);
        let mut rng = DeterministicRng::new(9);
        let values: std::collections::HashSet<_> =
            (0..50).map(|_| t.reissue_timeout(2, &mut rng)).collect();
        assert!(values.len() > 1, "timeouts should not be constant");
    }

    #[test]
    fn degenerate_multiplier_is_clamped() {
        let t = MissLatencyTracker::new(0.0);
        let mut rng = DeterministicRng::new(4);
        assert!(t.reissue_timeout(1, &mut rng) >= MissLatencyTracker::INITIAL_AVERAGE_NS as Cycle);
    }

    #[test]
    fn backoff_exponent_saturates_for_absurd_issue_counts() {
        // A request that has been reissued thousands of times (deep
        // starvation) must not overflow the backoff window computation; the
        // exponent is capped, so the timeout stays finite and the cap equals
        // the value at the cap boundary.
        let mut t = MissLatencyTracker::new(2.0);
        for _ in 0..10 {
            t.record(100);
        }
        let max_at = |issue: u32| {
            let mut rng = DeterministicRng::new(5);
            (0..100)
                .map(|_| t.reissue_timeout(issue, &mut rng))
                .max()
                .unwrap()
        };
        let capped = max_at(9); // exponent cap (8) reached at the 9th issue
        assert_eq!(max_at(u32::MAX), capped);
        assert!(capped < 1_000_000, "backoff must stay bounded");
    }

    /// The starvation-boundary race: the reissue timeout fires in the same
    /// cycle the tokens arrive. Whichever event the queue happens to deliver
    /// first, the miss must complete exactly once, the stale timer (or the
    /// stale reissue the timer broadcast) must be inert, and every token
    /// must be accounted for afterwards.
    mod starvation_boundary {
        use crate::TokenBController;
        use tc_types::{
            Address, BlockAddr, CoherenceController, MemOp, MemOpKind, Message, Outbox,
            ProtocolKind, ReqId, SystemConfig, Timer, TimerKind,
        };

        fn config() -> SystemConfig {
            SystemConfig::isca03_default()
                .with_nodes(4)
                .with_protocol(ProtocolKind::TokenB)
        }

        /// Issues a store miss at node 1 and routes it through the home
        /// (node 0), returning the requester, the armed reissue timer, its
        /// firing time, and the home's token response (held, not delivered).
        fn setup() -> (TokenBController, u64, Timer, Message, TokenBController) {
            let config = config();
            let mut requester = TokenBController::new(1.into(), &config);
            let mut home = TokenBController::new(0.into(), &config);
            let mut out = Outbox::new();
            requester.access(
                0,
                &MemOp::new(ReqId::new(1), Address::new(0), MemOpKind::Store),
                &mut out,
            );
            let (fire_at, reissue) = out
                .timers
                .iter()
                .find(|(_, t)| t.kind == TimerKind::Reissue)
                .copied()
                .expect("reissue timer armed");
            let getm = out.messages[0].clone();
            let mut home_out = Outbox::new();
            home.handle_message(40, &getm, &mut home_out);
            let data = home_out
                .messages
                .iter()
                .find(|m| m.kind.token_count() > 0)
                .cloned()
                .expect("home supplies tokens");
            (requester, fire_at, reissue, data, home)
        }

        fn total_tokens(requester: &TokenBController, home: &TokenBController) -> u32 {
            let block = BlockAddr::new(0);
            requester
                .audit_block(block)
                .iter()
                .chain(home.audit_block(block).iter())
                .map(|a| a.tokens)
                .sum()
        }

        #[test]
        fn tokens_arriving_before_the_same_cycle_timeout_win() {
            let (mut requester, fire_at, reissue, data, home) = setup();
            let mut out = Outbox::new();
            requester.handle_message(fire_at, &data, &mut out);
            assert_eq!(out.completions.len(), 1, "miss completes on the data");
            // The timeout fires in the very same cycle, after the tokens
            // landed: it must not reissue, re-arm, or double-complete.
            let mut stale = Outbox::new();
            requester.handle_timer(fire_at, reissue, &mut stale);
            assert!(stale.messages.is_empty(), "stale timeout must be inert");
            assert!(stale.completions.is_empty());
            assert!(stale.timers.is_empty());
            assert_eq!(requester.substrate().tokens_held(BlockAddr::new(0)), 16);
            assert_eq!(total_tokens(&requester, &home), 16);
        }

        /// The duplicate-delivery fault the fault plane injects: transient
        /// requests are the one message class TokenB lets the fabric
        /// duplicate, so the home may see the *same* GetM twice. It must
        /// supply its tokens exactly once — answering the copy with tokens
        /// would mint them — and the requester still completes exactly once.
        #[test]
        fn duplicated_transient_request_supplies_tokens_exactly_once() {
            let config = config();
            let mut requester = TokenBController::new(1.into(), &config);
            let mut home = TokenBController::new(0.into(), &config);
            let mut out = Outbox::new();
            requester.access(
                0,
                &MemOp::new(ReqId::new(1), Address::new(0), MemOpKind::Store),
                &mut out,
            );
            let getm = out.messages[0].clone();

            // Original delivery: the home gives up all its tokens.
            let mut first = Outbox::new();
            home.handle_message(40, &getm, &mut first);
            let data = first
                .messages
                .iter()
                .find(|m| m.kind.token_count() > 0)
                .cloned()
                .expect("home supplies tokens");

            // The fabric's duplicate lands a few cycles later: bit-identical
            // message, same request id, not even flagged as a reissue. The
            // home has nothing left and must not conjure tokens.
            let mut dup = Outbox::new();
            home.handle_message(43, &getm, &mut dup);
            let mut follow_up = Outbox::new();
            for (at, timer) in dup.timers.clone() {
                home.handle_timer(at, timer, &mut follow_up);
            }
            let minted: u32 = dup
                .messages
                .iter()
                .chain(follow_up.messages.iter())
                .map(|m| m.kind.token_count())
                .sum();
            assert_eq!(minted, 0, "duplicate GetM must not mint tokens");

            // The single real response completes the miss exactly once and
            // conservation holds across both controllers.
            let mut done = Outbox::new();
            requester.handle_message(80, &data, &mut done);
            assert_eq!(done.completions.len(), 1);
            assert_eq!(requester.substrate().tokens_held(BlockAddr::new(0)), 16);
            assert_eq!(total_tokens(&requester, &home), 16);
        }

        /// Injected delay pushes the original response past the reissue
        /// timeout entirely: the timer fires first (reissue goes out), the
        /// data arrives hundreds of cycles later, and then the reissued
        /// request's own response path plays out. The miss must complete
        /// exactly once, no stale timer or stale response may mint tokens,
        /// and the follow-up timeout armed by the reissue must be inert.
        #[test]
        fn delayed_response_arriving_after_the_timeout_completes_exactly_once() {
            let (mut requester, fire_at, reissue, data, mut home) = setup();
            // The timer fires with the data still in flight (delay fault).
            let mut reissued = Outbox::new();
            requester.handle_timer(fire_at, reissue, &mut reissued);
            assert!(reissued.messages.iter().any(|m| m.reissue));

            // The delayed original lands long after the timeout: exactly one
            // completion, full token count.
            let late = fire_at + 500;
            let mut out = Outbox::new();
            requester.handle_message(late, &data, &mut out);
            assert_eq!(out.completions.len(), 1, "late data still completes");
            assert_eq!(requester.substrate().tokens_held(BlockAddr::new(0)), 16);

            // The reissue (also delayed) reaches the token-less home after
            // the miss already completed: no tokens may flow back.
            let mut home_out = Outbox::new();
            for msg in &reissued.messages {
                if msg.dest.includes(0.into()) {
                    home.handle_message(late + 40, msg, &mut home_out);
                }
            }
            let mut supplied = Outbox::new();
            for (at, timer) in home_out.timers.clone() {
                home.handle_timer(at, timer, &mut supplied);
            }
            let stray: u32 = home_out
                .messages
                .iter()
                .chain(supplied.messages.iter())
                .map(|m| m.kind.token_count())
                .sum();
            assert_eq!(stray, 0, "stale reissue answered with tokens");
            assert_eq!(total_tokens(&requester, &home), 16);

            // The reissue re-armed a timeout; with the miss complete it must
            // neither reissue again nor re-arm.
            let (later, follow_up) = reissued
                .timers
                .iter()
                .find(|(_, t)| t.kind == TimerKind::Reissue)
                .copied()
                .expect("reissue re-arms its timeout");
            let mut stale = Outbox::new();
            requester.handle_timer(later.max(late) + 1, follow_up, &mut stale);
            assert!(stale.messages.is_empty(), "stale follow-up must be inert");
            assert!(stale.timers.is_empty());
            assert!(stale.completions.is_empty());
        }

        #[test]
        fn timeout_firing_before_the_same_cycle_tokens_is_absorbed() {
            let (mut requester, fire_at, reissue, data, mut home) = setup();
            // The timer wins the queue race: a reissue goes out.
            let mut reissued = Outbox::new();
            requester.handle_timer(fire_at, reissue, &mut reissued);
            assert!(
                reissued.messages.iter().any(|m| m.reissue),
                "boundary timeout reissues the transient request"
            );
            // The tokens land in the same cycle: exactly one completion.
            let mut out = Outbox::new();
            requester.handle_message(fire_at, &data, &mut out);
            assert_eq!(out.completions.len(), 1);
            assert_eq!(requester.substrate().tokens_held(BlockAddr::new(0)), 16);

            // The stale reissue reaches the home, which has no tokens left;
            // its response path must not conjure tokens from nowhere.
            let mut home_out = Outbox::new();
            for msg in &reissued.messages {
                if msg.dest.includes(0.into()) {
                    home.handle_message(fire_at + 40, msg, &mut home_out);
                }
            }
            let mut supplied = Outbox::new();
            for (at, timer) in home_out.timers.clone() {
                home.handle_timer(at, timer, &mut supplied);
            }
            let stray_tokens: u32 = home_out
                .messages
                .iter()
                .chain(supplied.messages.iter())
                .map(|m| m.kind.token_count())
                .sum();
            assert_eq!(
                stray_tokens, 0,
                "home must not answer a stale reissue with tokens"
            );
            assert_eq!(total_tokens(&requester, &home), 16);

            // The reissue armed a follow-up timer; once the miss is complete
            // it too must be inert.
            let (later, follow_up) = reissued
                .timers
                .iter()
                .find(|(_, t)| t.kind == TimerKind::Reissue)
                .copied()
                .expect("reissue re-arms its timeout");
            let mut stale = Outbox::new();
            requester.handle_timer(later, follow_up, &mut stale);
            assert!(stale.messages.is_empty() && stale.timers.is_empty());
        }
    }
}
