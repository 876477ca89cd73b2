//! `tc_testkit::assert_wire_round_trip` over every `json_struct!` type.
//!
//! An integration test rather than module tests: the helper is written
//! against the `tc_types` that `tc-testkit` links, which a unit-test build
//! of this crate is not.

use tc_testkit::assert_wire_round_trip;
use tc_types::{BandwidthMode, DirectoryMode, ProtocolKind, SystemConfig};

#[test]
fn config_layouts_round_trip() {
    let mut config = SystemConfig::isca03_default()
        .with_protocol(ProtocolKind::Directory)
        .with_bandwidth(BandwidthMode::Unlimited);
    config.directory_mode = DirectoryMode::Perfect;
    config.interconnect.link_bandwidth_bytes_per_ns = 0.1;
    assert_wire_round_trip(&config);
    assert_wire_round_trip(&config.l2);
    assert_wire_round_trip(&config.interconnect);
    assert_wire_round_trip(&config.processor);
    assert_wire_round_trip(&config.token);
}
