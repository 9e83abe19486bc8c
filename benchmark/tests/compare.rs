//! The verdicts `compare` gives, on constructed samples.

use mlec_benchmark::compare::{judge, Verdict};
use mlec_benchmark::ledger::MetricDecl;

fn decl(unit: &str, higher_is_better: bool, bound: Option<f64>) -> MetricDecl {
    MetricDecl {
        name: "m".to_string(),
        unit: unit.to_string(),
        higher_is_better,
        bound,
    }
}

fn runs(values: &[f64]) -> Vec<(u64, f64)> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u64, v))
        .collect()
}

#[test]
fn wall_clock_metrics_are_judged_by_bound_and_spread() {
    let rate = decl("1/s", true, Some(0.10));
    let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
    assert_eq!(
        judge(&rate, &a, &runs(&[98.0, 102.0, 100.0, 101.0, 99.0])),
        Verdict::Same
    );
    assert_eq!(
        judge(&rate, &a, &runs(&[80.0, 81.0, 79.0, 80.5, 79.5])),
        Verdict::Worse
    );
    assert_eq!(
        judge(&rate, &a, &runs(&[120.0, 121.0, 119.0, 120.5, 119.5])),
        Verdict::Better
    );
    // Runs spread wider than the bound: no verdict, whatever the medians say.
    assert_eq!(
        judge(&rate, &a, &runs(&[60.0, 140.0, 85.0, 120.0, 70.0])),
        Verdict::Unresolved
    );
    // ... unless every run of b beats every run of a.
    assert_eq!(
        judge(&rate, &a, &runs(&[110.0, 190.0, 130.0, 160.0, 105.0])),
        Verdict::Better
    );
    // Lower-is-better flips the direction.
    let time = decl("s", false, Some(0.10));
    assert_eq!(
        judge(&time, &a, &runs(&[120.0, 121.0, 119.0, 120.5, 119.5])),
        Verdict::Worse
    );
    // A better median within the bound is still `same`.
    assert_eq!(
        judge(&time, &a, &runs(&[95.0, 96.0, 94.0, 95.5, 94.5])),
        Verdict::Same
    );
}

#[test]
fn counts_and_virtual_times_must_repeat_per_seed() {
    let count = decl("virt_us", false, None);
    let a = vec![(42, 1360.0), (43, 1424.0)];
    assert_eq!(
        judge(&count, &a, &[(43, 1424.0), (42, 1360.0)]),
        Verdict::Same
    );
    assert_eq!(judge(&count, &a, &[(42, 1361.0)]), Verdict::Differs);
    // A seed only one side ran cannot be compared.
    assert_eq!(judge(&count, &a, &[(7, 999.0)]), Verdict::Same);
}

#[test]
fn per_layer_wall_clock_metrics_are_reported_not_judged() {
    let layer = decl("ns", false, None);
    assert_eq!(
        judge(&layer, &runs(&[10.0]), &runs(&[1000.0])),
        Verdict::Info
    );
}
