//! A controller-level explorer for TokenB: every interleaving of a small
//! system ([`Explorer::exhaustive`]) or a seeded random walk through a
//! larger one ([`Explorer::walk`]), sharing one step core.
//!
//! A state is each bare [`TokenBController`]'s `save_state` bytes, the
//! pending deliveries and armed timers, and the operations each node has
//! issued. Time is abstracted away: `now` is always 0 and any armed timer
//! may fire at any step. Every state reached must keep the token rule
//! ([`token_count_violations`], in-flight tokens counted, a home that never
//! responded holding its `T` implicitly), and a fair drain from it (deliver
//! the first pending message, else fire the first timer) must keep the rule
//! at every step and end with no miss outstanding. The search drains from
//! every state, memoised on the states known to drain; the walk at its end.

use std::fmt;

use tc_core::TokenBController;
use tc_sim::{fnv1a64, snap_enum, DeterministicRng, Snap, SnapReader, SnapWriter};
use tc_system::verify::token_count_violations;
use tc_types::{
    BlockAddr, BlockAudit, CoherenceController, FastHashMap, FastHashSet, MemOp, MemOpKind,
    Message, NodeId, Outbox, ReqId, SystemConfig, Timer,
};

/// Steps a drain may take before it counts as stuck.
const DRAIN_LIMIT: usize = 100_000;

/// One move from a state.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// The node issues a load, or a store when the flag is set, to the block.
    Issue(NodeId, BlockAddr, bool),
    /// The message arrives at the node.
    Deliver(Message, NodeId),
    /// A timer the node armed fires.
    Fire(Timer, NodeId),
}

// Pending actions are kept in wire order, deliveries before timers.
snap_enum!(Action, "action" {
    0 => Issue(node, block, write),
    1 => Deliver(message, node),
    2 => Fire(timer, node),
});

/// A state that breaks the token rule or liveness, and the actions that
/// reach it from the initial state.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// A drain got stuck; otherwise the token rule broke.
    pub stuck: bool,
    /// What broke, and how many steps into the drain.
    pub detail: String,
    /// Every action from the initial state, the drain's included.
    pub path: Vec<Action>,
    /// States reached when it was found.
    pub states: usize,
}

/// Which property broke, its detail and the drain's actions.
type Fail = (bool, String, Vec<Action>);

impl Counterexample {
    fn new((stuck, detail, drain): Fail, mut path: Vec<Action>, states: usize) -> Self {
        path.extend(drain);
        Counterexample {
            stuck,
            detail,
            path,
            states,
        }
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.stuck { "stuck" } else { "unsafe" };
        writeln!(f, "{verdict} after {} states: {}", self.states, self.detail)?;
        write!(f, "path from the initial state:")?;
        let mut steps = self.path.iter().enumerate();
        steps.try_for_each(|(i, action)| write!(f, "\n  {:>4}. {action:?}", i + 1))
    }
}

/// Bare TokenB controllers and what is pending between them: the state
/// both modes step through.
pub struct Explorer {
    config: SystemConfig,
    blocks: u64,
    controllers: Vec<TokenBController>,
    /// The deliveries and timers that may come next, in wire order, so
    /// equal states save equal bytes.
    pending: Vec<Action>,
    issued: Vec<u32>,
    /// A node issues while it has issued fewer operations, and has fewer
    /// misses outstanding, than these.
    ops_per_node: u32,
    max_outstanding: usize,
}

/// `value`'s wire bytes.
fn wire<T: Snap>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.save(&mut w);
    w.into_bytes()
}

impl Explorer {
    /// Fresh TokenB controllers of `config` whose operations target blocks
    /// `0..blocks`, with nothing pending.
    pub fn new(config: &SystemConfig, blocks: u64) -> Self {
        let nodes = (0..config.num_nodes).map(NodeId::new);
        Explorer {
            config: config.clone(),
            blocks,
            controllers: nodes.map(|n| TokenBController::new(n, config)).collect(),
            pending: Vec::new(),
            issued: vec![0; config.num_nodes],
            ops_per_node: u32::MAX,
            max_outstanding: usize::MAX,
        }
    }

    /// The controller of `node`, to adjust the initial state with.
    pub fn controller_mut(&mut self, node: usize) -> &mut TokenBController {
        &mut self.controllers[node]
    }

    /// Checks every state reachable with at most `ops` operations per node,
    /// depth first. Returns how many there are, the initial state included,
    /// or `None` once `budget` are reached first.
    ///
    /// # Errors
    ///
    /// The first state found unsafe or stuck, with the path to it.
    pub fn exhaustive(mut self, ops: u32, budget: usize) -> Result<Option<usize>, Counterexample> {
        self.ops_per_node = ops;
        let root = self.save();
        let mut parents: FastHashMap<u64, Option<(u64, Action)>> = FastHashMap::default();
        parents.insert(fnv1a64(&root), None);
        let mut drained = FastHashSet::default();
        let mut stack = vec![(fnv1a64(&root), root)];
        while let Some((key, state)) = stack.pop() {
            self.restore(&state);
            let actions = self.actions();
            if let Err(failed) = self.drain(key, &mut drained) {
                let (mut path, mut at) = (Vec::new(), key);
                while let Some(Some((parent, action))) = parents.get(&at) {
                    path.insert(0, action.clone());
                    at = *parent;
                }
                return Err(Counterexample::new(failed, path, parents.len()));
            }
            for action in actions {
                self.restore(&state);
                self.apply(&action);
                let next = self.save();
                let next_key = fnv1a64(&next);
                if parents.contains_key(&next_key) {
                    continue;
                }
                if parents.len() == budget {
                    return Ok(None);
                }
                parents.insert(next_key, Some((key, action)));
                stack.push((next_key, next));
            }
        }
        Ok(Some(parents.len()))
    }

    /// Takes `steps` random steps, auditing each, then drains, and returns
    /// every action taken. A step issues with a quarter's chance: a load or
    /// store at a random node to a random block, skipped when the node has
    /// two misses outstanding. Otherwise it fires a random timer or delivers
    /// a random message, at even odds when both are pending, so misses
    /// reissue and escalate to persistent requests while responses wait.
    ///
    /// # Errors
    ///
    /// The first state found unsafe, or a stuck drain, with the path.
    pub fn walk(mut self, seed: u64, steps: u32) -> Result<Vec<Action>, Counterexample> {
        self.max_outstanding = 2;
        let mut rng = DeterministicRng::new(seed ^ 0x70_6b_6e_73);
        let mut path = Vec::new();
        for _ in 0..steps {
            let len = self.pending.len();
            let deliveries = self
                .pending
                .iter()
                .filter(|a| matches!(a, Action::Deliver(..)));
            let deliveries = deliveries.count();
            let action = if rng.chance(0.25) {
                let node = NodeId::new(rng.next_below(self.controllers.len() as u64) as usize);
                let block = BlockAddr::new(rng.next_below(self.blocks));
                let write = rng.chance(0.5);
                if !self.may_issue(node) {
                    continue;
                }
                Action::Issue(node, block, write)
            } else if len > 0 {
                // Deliveries come first, then timers.
                let fire = deliveries == 0 || (deliveries < len && rng.chance(0.5));
                let (lo, hi) = if fire {
                    (deliveries, len)
                } else {
                    (0, deliveries)
                };
                self.pending[rng.next_range(lo as u64, hi as u64) as usize].clone()
            } else {
                continue;
            };
            self.apply(&action);
            path.push(action);
            if let Err(detail) = self.audit() {
                let states = path.len() + 1;
                return Err(Counterexample::new((false, detail, vec![]), path, states));
            }
        }
        let states = path.len() + 1;
        match self.drain(fnv1a64(&self.save()), &mut FastHashSet::default()) {
            Ok(drain) => Ok(path.into_iter().chain(drain).collect()),
            Err(failed) => Err(Counterexample::new(failed, path, states)),
        }
    }

    fn may_issue(&self, node: NodeId) -> bool {
        self.issued[node.index()] < self.ops_per_node
            && self.controllers[node.index()].outstanding_misses() < self.max_outstanding
    }

    /// Every distinct action from the live state.
    fn actions(&self) -> Vec<Action> {
        let mut actions = self.pending.clone();
        actions.dedup();
        for node in (0..self.controllers.len()).map(NodeId::new) {
            for block in (0..self.blocks).filter(|_| self.may_issue(node)) {
                let issue = |write| Action::Issue(node, BlockAddr::new(block), write);
                actions.extend([false, true].map(issue));
            }
        }
        actions
    }

    /// The step core: applies `action` to the live state.
    fn apply(&mut self, action: &Action) {
        let (Action::Issue(node, ..) | Action::Deliver(_, node) | Action::Fire(_, node)) = action;
        if let Some(at) = self.pending.iter().position(|pending| pending == action) {
            self.pending.remove(at);
        }
        let (node, mut out) = (*node, Outbox::new());
        let controller = &mut self.controllers[node.index()];
        match action {
            Action::Issue(_, block, write) => {
                self.issued[node.index()] += 1;
                let id = (node.index() as u64) << 32 | u64::from(self.issued[node.index()]);
                let kind = [MemOpKind::Load, MemOpKind::Store][usize::from(*write)];
                let addr = block.base_address(self.config.block_bytes);
                controller.access(0, &MemOp::new(ReqId::new(id), addr, kind), &mut out);
            }
            Action::Deliver(msg, _) => controller.handle_message(0, msg, &mut out),
            Action::Fire(timer, _) => controller.handle_timer(0, *timer, &mut out),
        }
        for msg in out.messages {
            for dest in msg.dest.expand(self.controllers.len()) {
                self.pending.push(Action::Deliver(msg.clone(), dest));
            }
        }
        for (_, timer) in out.timers {
            self.pending.push(Action::Fire(timer, node));
        }
        self.pending.sort_by_cached_key(wire);
    }

    fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.controllers.iter().for_each(|c| c.save_state(&mut w));
        self.pending.save(&mut w);
        self.issued.save(&mut w);
        w.into_bytes()
    }

    fn restore(&mut self, state: &[u8]) {
        let mut r = SnapReader::new(state);
        for controller in &mut self.controllers {
            controller.load_state(&mut r).expect("a saved state loads");
        }
        (self.pending, self.issued) = Snap::load(&mut r).expect("a saved state loads");
    }

    /// Drains the live state, `key`, fairly, auditing every state it
    /// passes, until nothing is pending or it meets a state in `drained`.
    /// Then the states it passed join `drained`, and it returns its actions.
    fn drain(&mut self, mut key: u64, drained: &mut FastHashSet<u64>) -> Result<Vec<Action>, Fail> {
        let (mut path, mut keys) = (Vec::new(), Vec::new());
        while !drained.contains(&key) {
            keys.push(key);
            let steps = path.len();
            if let Err(detail) = self.audit() {
                let detail = format!("{detail}, {steps} steps into the drain");
                return Err((false, detail, path));
            }
            let Some(action) = self.pending.first().cloned() else {
                let busy = self
                    .controllers
                    .iter()
                    .filter(|c| c.outstanding_misses() > 0);
                let waiting: Vec<_> = busy.map(|c| (c.node(), c.outstanding_blocks())).collect();
                if waiting.is_empty() {
                    break;
                }
                let detail = format!("quiescent after {steps} drain steps with misses {waiting:?}");
                return Err((true, detail, path));
            };
            if steps == DRAIN_LIMIT {
                return Err((true, format!("no quiescence in {DRAIN_LIMIT} steps"), path));
            }
            self.apply(&action);
            path.push(action);
            key = fnv1a64(&self.save());
        }
        drained.extend(keys);
        Ok(path)
    }

    /// The token rule on every block of the live state.
    fn audit(&self) -> Result<(), String> {
        let tokens = self.config.token.tokens_per_block;
        let mut violations = Vec::new();
        for addr in (0..self.blocks).map(BlockAddr::new) {
            let holders = self.controllers.iter();
            let audits: Vec<BlockAudit> = holders.flat_map(|c| c.audit_block(addr)).collect();
            // Home state is stored sparsely: a home that has never
            // responded holds all `T` tokens (owner included) implicitly.
            let untouched = u32::from(!audits.iter().any(|audit| audit.in_memory));
            let (mut held, mut owners) = (untouched * tokens, untouched);
            for action in &self.pending {
                if let Action::Deliver(msg, _) = action {
                    if msg.addr == addr {
                        held += msg.kind.token_count();
                        owners += u32::from(msg.kind.carries_owner_token());
                    }
                }
            }
            let found = token_count_violations(addr, &audits, held, owners, tokens, 0);
            violations.extend(found.map(|violation| violation.to_string()));
        }
        let clean = violations.is_empty();
        clean.then_some(()).ok_or_else(|| violations.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two nodes with one-set 256-byte caches.
    fn small() -> SystemConfig {
        let mut config = SystemConfig::isca03_default().with_nodes(2);
        config.l1.size_bytes = 256;
        config.l2.size_bytes = 256;
        config
    }

    #[test]
    fn a_restored_state_saves_the_bytes_it_was_saved_as() {
        let mut explorer = Explorer::new(&small(), 2);
        let mut saved = vec![explorer.save()];
        for step in 0..24 {
            let actions = explorer.actions();
            explorer.apply(&actions[step % actions.len()]);
            saved.push(explorer.save());
        }
        // Newest first, so every load overwrites a later state.
        for state in saved.iter().rev() {
            explorer.restore(state);
            assert_eq!(&explorer.save(), state);
        }
    }

    #[test]
    fn a_miss_with_nothing_pending_is_stuck_and_a_lost_token_is_unsafe() {
        let mut explorer = Explorer::new(&small(), 1);
        explorer.apply(&Action::Issue(NodeId::new(1), BlockAddr::new(0), false));
        let issued = explorer.save();
        // Drop the request and its reissue timer: the requester waits for good.
        explorer.pending.clear();
        let (stuck, detail, _) = explorer.drain(0, &mut FastHashSet::default()).unwrap_err();
        assert!(stuck, "{detail}");
        // Deliver the request; the home's response carries a token, so
        // dropping the response loses one.
        explorer.restore(&issued);
        explorer
            .pending
            .retain(|a| matches!(a, Action::Deliver(..)));
        let request = explorer.pending[0].clone();
        explorer.apply(&request);
        assert_eq!(explorer.audit(), Ok(()));
        explorer
            .pending
            .retain(|a| !matches!(a, Action::Deliver(..)));
        assert!(explorer.audit().unwrap_err().contains("token conservation"));
    }

    #[test]
    fn the_walk_is_deterministic() {
        let config = SystemConfig::isca03_default().with_nodes(3).with_seed(5);
        let walk = Explorer::new(&config, 2).walk(5, 300).unwrap();
        assert_eq!(walk, Explorer::new(&config, 2).walk(5, 300).unwrap());
        assert!(walk.iter().any(|a| matches!(a, Action::Issue(..))));
        assert!(walk.iter().any(|a| matches!(a, Action::Fire(..))));
    }

    #[test]
    fn a_search_past_its_budget_says_so() {
        assert_eq!(Explorer::new(&small(), 1).exhaustive(1, 100).unwrap(), None);
    }
}
