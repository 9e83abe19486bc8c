//! Fixture: every way unit-discipline should fire.

/// Suffixed parameter typed bare f64.
pub fn schedule_repair(volume_tb: f64, streams: u32) -> u32 {
    let _ = volume_tb;
    streams
}

/// Suffixed fn name returning bare f64.
pub fn sojourn_hours() -> f64 {
    42.0
}

/// Raw f64 arithmetic mixing TB with MB/s in one statement.
pub fn mixed_arithmetic() -> f64 {
    let wire_tb = 4400.0;
    let bw_mbs = 250.0;
    wire_tb / bw_mbs
}

/// Mixing a rate with a time span.
pub fn exposure() -> f64 {
    let rate_per_year = 0.01;
    let window_hours = 8766.0;
    rate_per_year * window_hours
}

/// A `not(test)` gate builds the item everywhere but tests: it is scanned.
#[cfg(not(test))]
pub fn production_only() -> f64 {
    let drain_tb = 1200.0;
    let uplink_mbs = 1250.0;
    drain_tb * uplink_mbs
}
