//! A controller-level interleaving pump for TokenB.
//!
//! The system runner delivers messages in simulated-arrival order; real
//! token-conservation bugs tend to hide in orderings a timing model never
//! produces. This pump drives bare [`TokenBController`]s with *adversarial*
//! interleavings instead: every per-node delivery is held in a pool and
//! released in an order drawn from a [`DeterministicRng`], while reissue
//! timers fire as soon as they are due — so deliberately delayed responses
//! cross reissued requests, persistent-request activations, and eviction
//! traffic (a timeout/retry storm).
//!
//! After **every** step the pump audits every touched block: the tokens held
//! across all caches and home memories plus the tokens inside undelivered
//! messages must equal the configured `T`, and exactly one owner token must
//! exist. That is invariant #1' checked continuously under randomized
//! message interleavings, not just at quiescence.
//!
//! [`deliver`] is the deterministic counterpart: one round of deliveries in a
//! fixed order, for controller-level unit tests of any protocol and for the
//! Figure 2 race.

use tc_core::TokenBController;
use tc_sim::DeterministicRng;
use tc_system::verify::token_count_violations;
use tc_types::{
    Address, BlockAddr, BlockAudit, CoherenceController, Cycle, MemOp, MemOpKind, Message, NodeId,
    Outbox, ProtocolKind, ReqId, SystemConfig, Timer,
};

/// Delivers each of `messages` at time `now` to every controller in `nodes`
/// it addresses, and returns the merged outbox. Message-major, node-minor:
/// a message reaches its receivers in the order `nodes` yields them before
/// the next message is delivered (for a snooping broadcast, one fixed
/// global order).
pub fn deliver<'a, C: CoherenceController + 'a>(
    messages: &[Message],
    nodes: impl IntoIterator<Item = &'a mut C>,
    now: Cycle,
) -> Outbox {
    let mut nodes: Vec<&mut C> = nodes.into_iter().collect();
    let mut out = Outbox::new();
    for msg in messages {
        for node in nodes.iter_mut() {
            if msg.dest.includes(node.node()) {
                node.handle_message(now, msg, &mut out);
            }
        }
    }
    out
}

/// Tuning for one pump run.
#[derive(Debug, Clone, Copy)]
pub struct PumpOptions {
    /// Number of nodes (token count follows the configuration default).
    pub num_nodes: usize,
    /// Distinct hot blocks the random operations target.
    pub num_blocks: u64,
    /// Random steps before the drain phase.
    pub steps: u32,
    /// Probability that a step issues a new operation (the rest deliver
    /// pending messages or fire due timers).
    pub issue_chance: f64,
}

impl Default for PumpOptions {
    fn default() -> Self {
        PumpOptions {
            num_nodes: 4,
            num_blocks: 4,
            steps: 2_000,
            issue_chance: 0.25,
        }
    }
}

/// What a pump run observed.
#[derive(Debug, Clone)]
pub struct PumpOutcome {
    /// Operations issued.
    pub issued: u64,
    /// Miss completions observed.
    pub completions: u64,
    /// Conservation audits performed (one per touched block per step).
    pub audits: u64,
    /// Reissue/persistent timer firings delivered.
    pub timer_firings: u64,
}

/// One undelivered per-node message copy.
#[derive(Debug, Clone)]
struct PendingDelivery {
    node: NodeId,
    msg: Message,
}

struct Pump {
    controllers: Vec<TokenBController>,
    pending: Vec<PendingDelivery>,
    timers: Vec<(Cycle, NodeId, Timer)>,
    now: Cycle,
    rng: DeterministicRng,
    expected_tokens: u32,
    touched: Vec<BlockAddr>,
    outcome: PumpOutcome,
}

impl Pump {
    fn new(options: &PumpOptions, seed: u64) -> Self {
        let config = SystemConfig::isca03_default()
            .with_nodes(options.num_nodes)
            .with_protocol(ProtocolKind::TokenB)
            .with_seed(seed);
        let controllers = (0..options.num_nodes)
            .map(|n| TokenBController::new(NodeId::new(n), &config))
            .collect();
        Pump {
            controllers,
            pending: Vec::new(),
            timers: Vec::new(),
            now: 0,
            rng: DeterministicRng::new(seed ^ 0x70_6b_6e_73),
            expected_tokens: config.token.tokens_per_block,
            touched: Vec::new(),
            outcome: PumpOutcome {
                issued: 0,
                completions: 0,
                audits: 0,
                timer_firings: 0,
            },
        }
    }

    /// Expands an outbox into per-node pending deliveries and armed timers.
    fn absorb(&mut self, node: NodeId, out: Outbox) {
        self.outcome.completions += out.completions.len() as u64;
        for msg in out.messages {
            for dst in msg.dest.expand(self.controllers.len()) {
                self.pending.push(PendingDelivery {
                    node: dst,
                    msg: msg.clone(),
                });
            }
        }
        for (at, timer) in out.timers {
            self.timers.push((at, node, timer));
        }
    }

    fn issue(&mut self, options: &PumpOptions) {
        let node = NodeId::new(self.rng.next_below(self.controllers.len() as u64) as usize);
        let block = self.rng.next_below(options.num_blocks);
        let write = self.rng.chance(0.5);
        let kind = if write {
            MemOpKind::Store
        } else {
            MemOpKind::Load
        };
        // A miss while the node already has an outstanding miss for the same
        // block merges; an unrelated MSHR conflict would panic inside the
        // controller, so keep the block set small but non-trivial.
        if self.controllers[node.index()].outstanding_misses() < 2 {
            self.outcome.issued += 1;
            let op = MemOp::new(
                ReqId::new(0x7000_0000 + self.outcome.issued),
                Address::new(block * 64),
                kind,
            );
            let mut out = Outbox::new();
            self.controllers[node.index()].access(self.now, &op, &mut out);
            self.absorb(node, out);
            let addr = BlockAddr::new(block);
            if !self.touched.contains(&addr) {
                self.touched.push(addr);
            }
        }
    }

    fn deliver_random(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let index = self.rng.next_below(self.pending.len() as u64) as usize;
        let delivery = self.pending.swap_remove(index);
        let mut out = Outbox::new();
        self.controllers[delivery.node.index()].handle_message(self.now, &delivery.msg, &mut out);
        self.absorb(delivery.node, out);
    }

    fn fire_due_timers(&mut self) {
        let now = self.now;
        let mut due = Vec::new();
        self.timers.retain(|(at, node, timer)| {
            if *at <= now {
                due.push((*node, *timer));
                false
            } else {
                true
            }
        });
        for (node, timer) in due {
            self.outcome.timer_firings += 1;
            let mut out = Outbox::new();
            self.controllers[node.index()].handle_timer(now, timer, &mut out);
            self.absorb(node, out);
        }
    }

    /// The continuous conservation audit: for every touched block, tokens in
    /// caches + home memories + undelivered messages must equal `T`, with
    /// exactly one owner token in the whole system (the system verifier's
    /// [`token_count_violations`], with undelivered messages in flight).
    fn audit(&mut self, context: &str) {
        for &addr in &self.touched {
            self.outcome.audits += 1;
            let audits: Vec<BlockAudit> = self
                .controllers
                .iter()
                .flat_map(|controller| controller.audit_block(addr))
                .collect();
            let mut tokens: u32 = 0;
            let mut owners: u32 = 0;
            if !audits.iter().any(|audit| audit.in_memory) {
                // Home state is stored sparsely: a home that has never
                // responded holds all `T` tokens (owner included) implicitly.
                tokens += self.expected_tokens;
                owners += 1;
            }
            for delivery in &self.pending {
                if delivery.msg.addr == addr {
                    tokens += delivery.msg.kind.token_count();
                    owners += u32::from(delivery.msg.kind.carries_owner_token());
                }
            }
            let violations: Vec<_> = token_count_violations(
                addr,
                &audits,
                tokens,
                owners,
                self.expected_tokens,
                self.now,
            )
            .collect();
            assert!(
                violations.is_empty(),
                "token rule violated for {addr} {context}: {violations:?}"
            );
        }
    }
}

/// Runs the interleaving pump: `steps` random actions followed by a full
/// drain, with the conservation audit after every single step.
///
/// # Panics
///
/// Panics (failing the caller's test) if token conservation or the
/// single-owner-token invariant is ever violated, or if the system fails to
/// quiesce during the drain.
pub fn token_pump(options: PumpOptions, seed: u64) -> PumpOutcome {
    let mut pump = Pump::new(&options, seed);

    for step in 0..options.steps {
        // Advance time in uneven hops so reissue timeouts interleave with
        // (deliberately starved) deliveries.
        pump.now += pump.rng.next_range(1, 120);
        let issue = pump.rng.chance(options.issue_chance);
        if issue {
            pump.issue(&options);
        } else if pump.rng.chance(0.8) {
            pump.deliver_random();
        }
        pump.fire_due_timers();
        pump.audit(&format!("after step {step} (seed {seed})"));
    }

    // Drain: deliver everything and let every timer fire until quiescent.
    let mut rounds = 0;
    while !pump.pending.is_empty() || !pump.timers.is_empty() {
        rounds += 1;
        assert!(
            rounds < 200_000,
            "pump failed to quiesce (seed {seed}): {} pending, {} timers",
            pump.pending.len(),
            pump.timers.len()
        );
        pump.now += 60;
        if !pump.pending.is_empty() {
            pump.deliver_random();
        }
        // Timers only matter while misses are outstanding; once the last
        // response lands, stale timers fire as no-ops and drain away.
        if pump.pending.is_empty() {
            if let Some(&(at, _, _)) = pump.timers.iter().min_by_key(|(at, _, _)| *at) {
                pump.now = pump.now.max(at);
            }
        }
        pump.fire_due_timers();
        pump.audit(&format!("during drain (seed {seed})"));
    }
    pump.audit(&format!("at quiescence (seed {seed})"));
    pump.outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_sim::{SnapReader, SnapWriter, SnapshotError};
    use tc_types::{AccessOutcome, ControllerStats, Destination, MsgKind, Vnet};

    /// Answers every message it receives with a copy sent from itself.
    #[derive(Debug)]
    struct Echo(NodeId);

    impl CoherenceController for Echo {
        fn node(&self) -> NodeId {
            self.0
        }
        fn protocol_name(&self) -> &'static str {
            "Echo"
        }
        fn access(&mut self, _: Cycle, _: &MemOp, _: &mut Outbox) -> AccessOutcome {
            unreachable!()
        }
        fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
            out.send(Message {
                src: self.0,
                sent_at: now,
                ..msg.clone()
            });
        }
        fn handle_timer(&mut self, _: Cycle, _: Timer, _: &mut Outbox) {
            unreachable!()
        }
        fn stats(&self) -> ControllerStats {
            ControllerStats::default()
        }
        fn audit_block(&self, _: BlockAddr) -> Vec<BlockAudit> {
            Vec::new()
        }
        fn audited_blocks(&self) -> Vec<BlockAddr> {
            Vec::new()
        }
        fn outstanding_misses(&self) -> usize {
            0
        }
        fn save_state(&self, _: &mut SnapWriter) {}
        fn load_state(&mut self, _: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
            Ok(())
        }
    }

    #[test]
    fn deliver_addresses_each_message_and_merges_in_message_then_node_order() {
        let mut nodes: Vec<Echo> = (0..4).map(|n| Echo(NodeId::new(n))).collect();
        let sender = NodeId::new(1);
        let messages: Vec<Message> = [
            Destination::Node(NodeId::new(2)),
            Destination::AllBut(NodeId::new(3)),
            Destination::AllBut(sender),
            Destination::All,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, dest)| {
            Message::new(
                sender,
                dest,
                BlockAddr::new(i as u64),
                MsgKind::GetS,
                Vnet::Request,
                0,
            )
        })
        .collect();
        // "message>receiver" for every reply, in the order merged.
        let received = |out: &Outbox| {
            assert!(out.messages.iter().all(|m| m.sent_at == 50));
            let pairs: Vec<String> = out
                .messages
                .iter()
                .map(|m| format!("{}>{}", m.addr.value(), m.src.index()))
                .collect();
            pairs.join(" ")
        };

        // `AllBut(3)` and `All` include the sender, `AllBut(sender)` does not.
        let all = deliver(&messages, &mut nodes, 50);
        assert_eq!(
            received(&all),
            "0>2 1>0 1>1 1>2 2>0 2>2 2>3 3>0 3>1 3>2 3>3"
        );
        // Receivers go in the order they are passed; nodes left out get
        // nothing.
        let [a, b, c, _] = &mut nodes[..] else {
            unreachable!()
        };
        let some = deliver(&messages, [c, a, b], 50);
        assert_eq!(received(&some), "0>2 1>2 1>0 1>1 2>2 2>0 3>2 3>0 3>1");
    }

    #[test]
    fn pump_quiesces_and_audits_continuously() {
        let outcome = token_pump(
            PumpOptions {
                steps: 400,
                ..PumpOptions::default()
            },
            7,
        );
        assert!(outcome.issued > 0);
        assert!(outcome.audits > 0);
    }

    #[test]
    fn pump_is_deterministic() {
        let options = PumpOptions {
            steps: 300,
            ..PumpOptions::default()
        };
        let a = token_pump(options, 11);
        let b = token_pump(options, 11);
        assert_eq!(a.issued, b.issued);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.timer_firings, b.timer_firings);
    }
}
