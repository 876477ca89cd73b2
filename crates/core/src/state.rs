//! Per-block token state held in caches and at the home memory.

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

    /// Returns `true` if the line holds nothing worth keeping.
    pub fn is_invalid(&self) -> bool {
        self.tokens == 0
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

    /// Returns `true` if memory can source data for a read request: it must
    /// hold the owner token (whose presence guarantees the memory copy is
    /// current).
    pub fn can_supply_data(&self) -> bool {
        self.owner && self.tokens > 0
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
        let line = TokenLine::empty();
        assert!(line.is_invalid());
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
        mem.ensure_initialized(8);
        assert!(mem.can_supply_data());
        mem.owner = false;
        assert!(!mem.can_supply_data());
        mem.owner = true;
        mem.tokens = 0;
        assert!(!mem.can_supply_data());
    }
}
