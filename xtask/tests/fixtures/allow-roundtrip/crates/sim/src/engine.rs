//! Fixture: a real violation suppressed by the adjacent allow file.

/// Suffixed fn name returning bare f64.
pub fn horizon_hours() -> f64 {
    8766.0
}
