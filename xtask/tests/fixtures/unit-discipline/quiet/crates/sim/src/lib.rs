//! Fixture: near-misses that unit-discipline must NOT flag.

/// Suffixed-f64 record fields are a documented rendering boundary.
pub struct RepairPlan {
    pub cross_rack_traffic_tb: f64,
    pub network_time_h: f64,
}

/// Suffixed param with a proper newtype (here stand-in tuple structs).
pub struct Volume(pub f64);
pub struct Bandwidth(pub f64);

pub fn schedule_repair(volume_tb: Volume, bw_mbs: Bandwidth) -> f64 {
    volume_tb.0 / bw_mbs.0
}

/// Non-pub fn with a suffixed bare-f64 param is out of scope (call-site
/// local; the public contract is what the lint guards).
fn helper(span_hours: f64) -> f64 {
    span_hours
}

/// Same-class arithmetic stays legal.
pub fn total_volume() -> f64 {
    let disk_tb = 16.0;
    let spare_tb = 4.0;
    let sum = disk_tb + spare_tb;
    helper(sum)
}

/// Calls and struct-literal fields are not value operands.
pub fn assemble() -> RepairPlan {
    RepairPlan {
        cross_rack_traffic_tb: total_volume(),
        network_time_h: helper(1.0) * 2.0,
    }
}

/// Items only test or Miri builds compile are out of scope.
#[cfg(any(test, miri))]
pub fn test_only() -> f64 {
    let drain_tb = 1200.0;
    let uplink_mbs = 1250.0;
    drain_tb * uplink_mbs
}
