//! The token-counting substrate: who holds a block's tokens, and the rules
//! by which they leave a holder.
//!
//! A block's `T` tokens live in cache lines ([`TokenLine`]), at the home
//! memory ([`MemTokens`]) and in messages ([`TokenTransfer`]). All three are
//! the same kind of token holder, seen through [`Holding`], and tokens leave
//! a holder by exactly two rules: [`Holding::take_all`] and
//! [`Holding::take_for_read`]. Both conserve tokens, move the owner token at
//! most once, and send data whenever the owner token goes (invariant #4').
//! A performance protocol picks the holder, the rule, the time and the
//! destination; it never edits a token count.

use tc_sim::snap_struct;

/// Token state of one cache line.
///
/// Possession of tokens maps directly onto the familiar MOESI states
/// (Section 3.1 of the paper): all `T` tokens is M (or E when clean), the
/// owner token plus some non-owner tokens is O, one or more non-owner tokens
/// is S, and no tokens is I. The *valid-data* bit is distinct from the tag
/// valid bit: with the optimized invariants a component may hold non-owner
/// tokens without data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenLine {
    /// Number of tokens held (including the owner token if `owner`).
    pub tokens: u32,
    /// Whether the owner token is among them.
    pub owner: bool,
    /// Whether the line holds valid data (invariant #3' requires this to
    /// read).
    pub valid_data: bool,
    /// Whether the data differs from the memory copy (needs writeback with
    /// the owner token).
    pub dirty: bool,
    /// Simulated block contents (version number).
    pub version: u64,
}

snap_struct!(TokenLine {
    tokens,
    owner,
    valid_data,
    dirty,
    version,
});

impl TokenLine {
    /// A line with no tokens and no data.
    pub fn empty() -> Self {
        TokenLine::default()
    }

    /// Invariant #3': the processor may read only with at least one token and
    /// valid data.
    pub fn readable(&self) -> bool {
        self.tokens >= 1 && self.valid_data
    }

    /// Invariant #2': the processor may write only while holding all `total`
    /// tokens (and it must have valid data to produce the new block value).
    pub fn writable(&self, total: u32) -> bool {
        self.tokens == total && self.valid_data
    }

    /// This line as a token holder: a cache's copy may be dirty and is
    /// never the memory copy. A line left without tokens must be dropped by
    /// its cache, since nothing keeps its data current any more.
    pub fn holding(&mut self) -> Holding<'_> {
        Holding {
            dirty: self.dirty,
            version: self.version,
            from_memory: false,
            tokens: &mut self.tokens,
            owner: &mut self.owner,
        }
    }

    /// The MOESI state name this token count corresponds to, for traces and
    /// tests.
    pub fn moesi_name(&self, total: u32) -> &'static str {
        if self.tokens == 0 {
            "I"
        } else if self.tokens == total {
            if self.dirty {
                "M"
            } else {
                "E"
            }
        } else if self.owner {
            "O"
        } else {
            "S"
        }
    }
}

/// Token state of the home memory for one block.
///
/// Memory starts out holding all `T` tokens (including the owner token) for
/// every block it homes; because that initial state is implicit, the struct
/// records whether it has been materialized yet (`initialized`). The home
/// controller materializes it the first time the block is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemTokens {
    /// Whether the implicit "all tokens at home" state has been materialized.
    pub initialized: bool,
    /// Tokens currently held by memory.
    pub tokens: u32,
    /// Whether memory holds the owner token.
    pub owner: bool,
}

snap_struct!(MemTokens {
    initialized,
    tokens,
    owner,
});

impl MemTokens {
    /// Materializes the initial state (all `total` tokens at home) if this
    /// entry has never been touched.
    pub fn ensure_initialized(&mut self, total: u32) {
        if !self.initialized {
            self.initialized = true;
            self.tokens = total;
            self.owner = true;
        }
    }

    /// Memory as a token holder for a block whose DRAM copy is `version`,
    /// materializing the initial `total` tokens first. Memory's copy is
    /// never dirty, and it is current exactly while memory holds the owner
    /// token.
    pub fn holding(&mut self, total: u32, version: u64) -> Holding<'_> {
        self.ensure_initialized(total);
        Holding {
            dirty: false,
            version,
            from_memory: true,
            tokens: &mut self.tokens,
            owner: &mut self.owner,
        }
    }
}

/// Tokens in motion between two holders: field for field what
/// `MsgKind::TokenData` (`data` set) and `MsgKind::TokenOnly` carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenTransfer {
    /// Number of tokens moving (including the owner token if `owner`).
    pub tokens: u32,
    /// Whether the owner token is among them.
    pub owner: bool,
    /// Whether the block's data travels along. Invariant #4': it always does
    /// with the owner token.
    pub data: bool,
    /// Whether that data differs from the memory copy; set only with the
    /// owner token, which carries the duty to write it back.
    pub dirty: bool,
    /// The data (meaningful only with `data`).
    pub version: u64,
    /// Whether the data was sourced by the home memory rather than a cache.
    pub from_memory: bool,
}

impl TokenTransfer {
    /// Tokens that arrived where they may not stay (another node's
    /// persistent request is active) are a holder too, so passing them on
    /// obeys the same rule as giving up a cached line.
    pub fn holding(&mut self) -> Holding<'_> {
        Holding {
            dirty: self.dirty,
            version: self.version,
            from_memory: self.from_memory,
            tokens: &mut self.tokens,
            owner: &mut self.owner,
        }
    }
}

/// A borrowed view of one token holder — a cache line, the home memory's
/// entry, or a transfer being passed on — through which tokens leave it.
/// Each rule consumes the view: one decision per look at the holder.
#[derive(Debug)]
pub struct Holding<'a> {
    tokens: &'a mut u32,
    owner: &'a mut bool,
    dirty: bool,
    version: u64,
    from_memory: bool,
}

impl Holding<'_> {
    /// Everything the holder has — the answer to an exclusive request, a
    /// persistent activation, an eviction and a forward. Data goes exactly
    /// when the owner token does; non-owner tokens travel dataless. `None`
    /// when the holder has no tokens.
    #[inline]
    pub fn take_all(self) -> Option<TokenTransfer> {
        let (tokens, owner) = (*self.tokens, *self.owner);
        if tokens == 0 {
            return None;
        }
        *self.tokens = 0;
        *self.owner = false;
        Some(TokenTransfer {
            tokens,
            owner,
            data: owner,
            dirty: owner && self.dirty,
            version: self.version,
            from_memory: self.from_memory,
        })
    }

    /// The answer to a shared request. Only the owner answers (its copy is
    /// the current one): with one non-owner token plus data while it has
    /// one to spare, else with the owner token itself rather than refusing.
    /// With `migratory` set, a holder with all `total` tokens and a dirty
    /// copy hands over everything, passing read/write permission along.
    #[inline]
    pub fn take_for_read(self, total: u32, migratory: bool) -> Option<TokenTransfer> {
        if !*self.owner {
            return None;
        }
        let hand_over = migratory && *self.tokens == total && self.dirty;
        if *self.tokens <= 1 || hand_over {
            return self.take_all();
        }
        *self.tokens -= 1;
        Some(TokenTransfer {
            tokens: 1,
            owner: false,
            data: true,
            dirty: false,
            version: self.version,
            from_memory: self.from_memory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_memory_state_round_trip() {
        tc_testkit::assert_snap_round_trip(&TokenLine {
            tokens: 3,
            owner: true,
            valid_data: true,
            dirty: false,
            version: 9,
        });
        tc_testkit::assert_snap_round_trip(&MemTokens {
            initialized: true,
            tokens: 13,
            owner: false,
        });
    }

    #[test]
    fn empty_line_is_invalid_and_unreadable() {
        let mut line = TokenLine::empty();
        assert_eq!(line.holding().take_all(), None, "nothing to give up");
        assert_eq!(line.holding().take_for_read(16, true), None);
        assert!(!line.readable());
        assert!(!line.writable(16));
        assert_eq!(line.moesi_name(16), "I");
    }

    #[test]
    fn token_counts_map_to_moesi_states() {
        let total = 16;
        let mut line = TokenLine {
            tokens: total,
            owner: true,
            valid_data: true,
            dirty: true,
            version: 1,
        };
        assert_eq!(line.moesi_name(total), "M");
        line.dirty = false;
        assert_eq!(line.moesi_name(total), "E");
        line.tokens = 5;
        assert_eq!(line.moesi_name(total), "O");
        line.owner = false;
        assert_eq!(line.moesi_name(total), "S");
        line.tokens = 0;
        assert_eq!(line.moesi_name(total), "I");
    }

    #[test]
    fn read_needs_token_and_valid_data() {
        let mut line = TokenLine {
            tokens: 1,
            owner: false,
            valid_data: false,
            dirty: false,
            version: 0,
        };
        assert!(!line.readable(), "token without data is not readable");
        line.valid_data = true;
        assert!(line.readable());
    }

    #[test]
    fn write_needs_every_token() {
        let total = 4;
        for tokens in 0..total {
            let line = TokenLine {
                tokens,
                owner: tokens > 0,
                valid_data: true,
                dirty: false,
                version: 0,
            };
            assert!(
                !line.writable(total),
                "{tokens} tokens must not be writable"
            );
        }
        let line = TokenLine {
            tokens: total,
            owner: true,
            valid_data: true,
            dirty: false,
            version: 0,
        };
        assert!(line.writable(total));
    }

    #[test]
    fn memory_initializes_to_all_tokens_once() {
        let mut mem = MemTokens::default();
        assert!(!mem.initialized);
        mem.ensure_initialized(16);
        assert_eq!(mem.tokens, 16);
        assert!(mem.owner);
        mem.tokens = 3;
        mem.owner = false;
        mem.ensure_initialized(16);
        assert_eq!(mem.tokens, 3, "re-initialization must not mint tokens");
        assert!(!mem.owner);
    }

    #[test]
    fn memory_supplies_data_only_with_owner_token() {
        let mut mem = MemTokens::default();
        let shared = mem.holding(8, 5).take_for_read(8, true).unwrap();
        assert!(shared.data && shared.from_memory && !shared.owner);
        assert_eq!((shared.tokens, shared.version, mem.tokens), (1, 5, 7));
        mem.owner = false;
        assert_eq!(mem.holding(8, 5).take_for_read(8, true), None);
        let acks = mem.holding(8, 5).take_all().unwrap();
        assert!(!acks.data, "without the owner token memory's copy is stale");
        mem.owner = true;
        assert_eq!(mem.holding(8, 5).take_for_read(8, true), None);
    }

    #[derive(Debug, Clone, Copy)]
    enum Rule {
        All,
        Read { migratory: bool },
    }

    /// Applies `rule` to a cache line or to memory in the given state and
    /// returns `(tokens, owner)` left behind plus what left.
    fn apply(
        rule: Rule,
        in_memory: bool,
        (tokens, owner, dirty): (u32, bool, bool),
        total: u32,
    ) -> ((u32, bool), Option<TokenTransfer>) {
        let take = |holder: Holding<'_>| match rule {
            Rule::All => holder.take_all(),
            Rule::Read { migratory } => holder.take_for_read(total, migratory),
        };
        if in_memory {
            let mut mem = MemTokens {
                initialized: true,
                tokens,
                owner,
            };
            let out = take(mem.holding(total, 7));
            ((mem.tokens, mem.owner), out)
        } else {
            let mut line = TokenLine {
                tokens,
                owner,
                valid_data: owner,
                dirty,
                version: 7,
            };
            let out = take(line.holding());
            ((line.tokens, line.owner), out)
        }
    }

    #[test]
    fn transfer_rules_hold_on_every_holder_state() {
        let rules = [
            Rule::All,
            Rule::Read { migratory: false },
            Rule::Read { migratory: true },
        ];
        let mut checked = 0;
        for total in 1..=4u32 {
            for tokens in 0..=total {
                for owner in [false, true] {
                    // The owner token is a token; only it can be dirty, and
                    // memory's copy never is.
                    if owner && tokens == 0 {
                        continue;
                    }
                    for (in_memory, dirty) in [(false, false), (false, true), (true, false)] {
                        if dirty && !owner {
                            continue;
                        }
                        for rule in rules {
                            let before = (tokens, owner, dirty);
                            let (after, out) = apply(rule, in_memory, before, total);
                            let ctx =
                                format!("T={total} {before:?} in_memory={in_memory} {rule:?}");
                            let sent = out.map_or((0, false), |t| (t.tokens, t.owner));
                            assert_eq!(after.0 + sent.0, tokens, "conservation: {ctx}");
                            assert_eq!(after.1 as u8 + sent.1 as u8, owner as u8, "owner: {ctx}");
                            assert!(!after.1 || after.0 >= 1, "owner is a token: {ctx}");
                            match (rule, out) {
                                (Rule::All, None) => assert_eq!(tokens, 0, "{ctx}"),
                                (Rule::All, Some(_)) => assert_eq!(after, (0, false), "{ctx}"),
                                (Rule::Read { .. }, None) => {
                                    assert!(!owner, "the owner always answers a read: {ctx}")
                                }
                                (Rule::Read { migratory }, Some(t)) => {
                                    assert!(owner && t.data, "only the owner answers: {ctx}");
                                    let all = tokens == 1 || migratory && dirty && tokens == total;
                                    let want = if all { (tokens, true) } else { (1, false) };
                                    assert_eq!(sent, want, "{ctx}");
                                }
                            }
                            if let Some(t) = out {
                                assert!(t.tokens >= 1, "{ctx}");
                                assert!(!t.owner || t.data, "owner implies data: {ctx}");
                                assert_eq!(
                                    t.dirty,
                                    t.owner && dirty,
                                    "dirty rides the owner token: {ctx}"
                                );
                                assert_eq!(t.from_memory, in_memory, "{ctx}");
                                assert!(!(in_memory && t.dirty), "memory is never dirty: {ctx}");
                                assert_eq!(t.version, 7, "{ctx}");
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        // 5T + 2 holder states per T (2 per non-owner count, 3 per owner
        // count), three requests each.
        assert_eq!(checked, 3 * (7 + 12 + 17 + 22));
    }

    #[test]
    fn a_transfer_passed_on_keeps_its_source_and_drops_borrowed_data() {
        let mut shared = TokenTransfer {
            tokens: 1,
            owner: false,
            data: true,
            dirty: false,
            version: 7,
            from_memory: true,
        };
        let passed = shared.holding().take_all().unwrap();
        assert!(!passed.data && passed.from_memory);
        assert_eq!((passed.tokens, shared.tokens), (1, 0));
        let mut owned = TokenTransfer {
            tokens: 3,
            owner: true,
            dirty: true,
            ..shared
        };
        let sent = owned;
        assert_eq!(owned.holding().take_all(), Some(sent));
    }
}
