//! The pluggable protocol registry: construction without a closed `match`.
//!
//! The paper's thesis is that the correctness substrate is independent of
//! the performance protocol, so adding a protocol variant must not require
//! editing the engine. This module replaces the system runner's closed
//! constructor `match` over [`ProtocolKind`] with a table of
//! [`ProtocolFactory`] functions: the runner asks the registry to build each
//! node's controller, and a fifth protocol variant is one
//! [`ProtocolRegistry::register`] call instead of a runner edit.
//!
//! [`ProtocolKind`] itself deliberately stays a closed enum: it is the
//! *configuration* vocabulary — `SystemConfig::validate` uses it to reject
//! impossible systems (for example Snooping on the unordered torus) without
//! knowing anything about controller implementations. The registry opens the
//! *construction* side: several factories may be registered under the same
//! kind (an experimental TokenB variant still validates as TokenB), and the
//! newest registration of a kind is the one built.
//!
//! The four paper protocols are registered in
//! [`ProtocolRegistry::with_defaults`], which also backs the process-wide
//! [`default_registry`] used by `tc_system::System::build`. Custom variants
//! go through an owned registry and `System::build_with`:
//!
//! ```
//! use tc_protocols::registry::ProtocolRegistry;
//! use tc_types::{CoherenceController, NodeId, ProtocolKind, SystemConfig};
//!
//! fn noisy_tokenb(node: NodeId, config: &SystemConfig) -> Box<dyn CoherenceController> {
//!     // A variant would wrap or replace the stock controller here.
//!     Box::new(tc_core::TokenBController::new(node, config))
//! }
//!
//! let mut registry = ProtocolRegistry::with_defaults();
//! registry.register("TokenB-noisy", ProtocolKind::TokenB, noisy_tokenb);
//! // The kind lookup now resolves to the latest registration.
//! assert_eq!(registry.resolve(ProtocolKind::TokenB).unwrap().name, "TokenB-noisy");
//! ```

use std::sync::OnceLock;

use tc_core::TokenBController;
use tc_types::{CoherenceController, NodeId, ProtocolKind, SystemConfig};

use crate::{DirectoryController, HammerController, SnoopingController};

/// Builds one node's coherence controller from the system configuration.
///
/// A plain function pointer rather than a closure: factories carry no state
/// (everything a controller needs is in `SystemConfig`), and `fn` keeps the
/// registry `Copy`-cheap, `Send + Sync`, and trivially cloneable into
/// campaign worker threads.
pub type ProtocolFactory = fn(NodeId, &SystemConfig) -> Box<dyn CoherenceController>;

/// One registered protocol variant.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolEntry {
    /// Unique (case-insensitive) name of the variant, e.g. `"TokenB"`.
    pub name: &'static str,
    /// The configuration kind this variant validates and reports as.
    pub kind: ProtocolKind,
    /// Constructor for one node's controller.
    pub factory: ProtocolFactory,
}

/// A table of protocol constructors keyed by [`ProtocolKind`].
///
/// Registration order matters: [`ProtocolRegistry::resolve`] returns the
/// *most recently registered* entry of a kind, so registering a variant
/// under an existing kind overrides the stock implementation without
/// removing it from the table.
#[derive(Debug, Clone, Default)]
pub struct ProtocolRegistry {
    entries: Vec<ProtocolEntry>,
}

impl ProtocolRegistry {
    /// An empty registry (no protocols constructible).
    pub fn empty() -> Self {
        ProtocolRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry with the four paper protocols registered under their
    /// standard names.
    pub fn with_defaults() -> Self {
        let mut registry = ProtocolRegistry::empty();
        registry.register(ProtocolKind::TokenB.name(), ProtocolKind::TokenB, |n, c| {
            Box::new(TokenBController::new(n, c))
        });
        registry.register(
            ProtocolKind::Snooping.name(),
            ProtocolKind::Snooping,
            |n, c| Box::new(SnoopingController::new(n, c)),
        );
        registry.register(
            ProtocolKind::Directory.name(),
            ProtocolKind::Directory,
            |n, c| Box::new(DirectoryController::new(n, c)),
        );
        registry.register(ProtocolKind::Hammer.name(), ProtocolKind::Hammer, |n, c| {
            Box::new(HammerController::new(n, c))
        });
        registry
    }

    /// Registers (or replaces, matching case-insensitively by name) a
    /// protocol variant. The entry always lands at the *end* of the table —
    /// a replacement is removed from its old position first — so
    /// [`ProtocolRegistry::resolve`]'s most-recently-registered rule holds
    /// even when re-registering an existing name.
    pub fn register(&mut self, name: &'static str, kind: ProtocolKind, factory: ProtocolFactory) {
        self.entries.retain(|e| !e.name.eq_ignore_ascii_case(name));
        self.entries.push(ProtocolEntry {
            name,
            kind,
            factory,
        });
    }

    /// The most recently registered entry of `kind`, if any.
    pub fn resolve(&self, kind: ProtocolKind) -> Option<&ProtocolEntry> {
        self.entries.iter().rev().find(|e| e.kind == kind)
    }

    /// Builds a controller for `node` running `config.protocol`.
    ///
    /// # Panics
    ///
    /// Panics if no factory is registered for `config.protocol` — only
    /// possible with a hand-built registry, never with
    /// [`ProtocolRegistry::with_defaults`].
    pub fn build(&self, node: NodeId, config: &SystemConfig) -> Box<dyn CoherenceController> {
        let entry = self.resolve(config.protocol).unwrap_or_else(|| {
            panic!(
                "no protocol factory registered for {:?} (registered: {:?})",
                config.protocol,
                self.entries.iter().map(|e| e.name).collect::<Vec<_>>()
            )
        });
        (entry.factory)(node, config)
    }
}

/// The process-wide default registry: the four paper protocols. Systems
/// built through `tc_system::System::build` construct their controllers
/// here; custom variants belong in an owned
/// [`ProtocolRegistry::with_defaults`] clone passed to `build_with`.
pub fn default_registry() -> &'static ProtocolRegistry {
    static DEFAULT: OnceLock<ProtocolRegistry> = OnceLock::new();
    DEFAULT.get_or_init(ProtocolRegistry::with_defaults)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_every_protocol_kind() {
        let registry = ProtocolRegistry::with_defaults();
        for kind in ProtocolKind::ALL {
            let entry = registry.resolve(kind).expect("kind registered");
            assert_eq!(entry.kind, kind);
            assert_eq!(entry.name, kind.name());
            let controller = registry.build(
                NodeId::new(0),
                &SystemConfig::isca03_default().with_protocol(kind),
            );
            assert_eq!(controller.protocol_name(), kind.name());
        }
    }

    fn tokenb_variant(node: NodeId, config: &SystemConfig) -> Box<dyn CoherenceController> {
        Box::new(TokenBController::new(node, config))
    }

    #[test]
    fn re_registering_a_name_replaces_it_case_insensitively() {
        let mut registry = ProtocolRegistry::empty();
        registry.register("TokenB-experimental", ProtocolKind::TokenB, tokenb_variant);
        registry.register("tokenb-EXPERIMENTAL", ProtocolKind::Hammer, tokenb_variant);
        // The TokenB entry was replaced, not shadowed.
        assert!(registry.resolve(ProtocolKind::TokenB).is_none());
        assert_eq!(
            registry.resolve(ProtocolKind::Hammer).unwrap().name,
            "tokenb-EXPERIMENTAL"
        );
    }

    #[test]
    fn a_fifth_variant_is_a_registration_not_an_engine_edit() {
        let mut registry = ProtocolRegistry::with_defaults();
        registry.register("TokenB-experimental", ProtocolKind::TokenB, tokenb_variant);
        // Kind lookup now prefers the newest registration, and builds it.
        assert_eq!(
            registry.resolve(ProtocolKind::TokenB).unwrap().name,
            "TokenB-experimental"
        );
        let config = SystemConfig::isca03_default();
        assert_eq!(
            registry.build(NodeId::new(0), &config).protocol_name(),
            "TokenB"
        );
        // A replacement moves to the end of the table, so re-registering the
        // stock name restores it as the kind's most-recent entry.
        registry.register("TokenB", ProtocolKind::TokenB, tokenb_variant);
        assert_eq!(
            registry.resolve(ProtocolKind::TokenB).unwrap().name,
            "TokenB"
        );
    }

    #[test]
    fn empty_registry_reports_nothing() {
        let registry = ProtocolRegistry::empty();
        assert!(registry.resolve(ProtocolKind::TokenB).is_none());
    }

    #[test]
    fn default_registry_is_shared_and_complete() {
        let registry = default_registry();
        for kind in ProtocolKind::ALL {
            assert!(registry.resolve(kind).is_some());
        }
        assert!(std::ptr::eq(registry, default_registry()));
    }
}
