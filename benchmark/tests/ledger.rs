//! `BENCHMARK.json` and the binary agree: every name a workload emits is
//! declared, every declared name is emitted by some workload, and the file
//! keeps to the limits its consumers check.

use mlec_benchmark::ledger::Ledger;
use mlec_benchmark::{run_workload, RunCfg};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn quick(workload: &str, trace: bool) -> RunCfg {
    RunCfg {
        workload: workload.to_string(),
        seed: 42,
        seconds: 1.0,
        trace,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger"),
    }
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn declared_names_and_units_are_well_formed_and_unique() {
    let ledger = Ledger::load();
    let mut seen = BTreeSet::new();
    let metrics = ledger.end_to_end.iter().chain(&ledger.per_layer);
    for name in ledger
        .workloads
        .iter()
        .chain(metrics.clone().map(|m| &m.name))
    {
        assert!(well_formed(name), "malformed name `{name}`");
        assert!(seen.insert(name.clone()), "`{name}` is declared twice");
    }
    for m in metrics {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            m.unit.len() <= 16 && m.unit.chars().all(ok),
            "unit of {}",
            m.name
        );
    }
    assert!((2..=8).contains(&ledger.workloads.len()));
    assert!((1..=60).contains(&ledger.run_seconds));
    for m in &ledger.end_to_end {
        assert!(
            m.bound.is_some_and(|b| (0.0..=0.25).contains(&b)),
            "bound of {}",
            m.name
        );
    }
    let setup = ledger.metric("setup_s").expect("setup_s is declared");
    assert!(setup.unit == "s" && !setup.higher_is_better && setup.bound.is_some());
    assert!(ledger.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn emitted_names_are_exactly_the_declared_ones() {
    let ledger = Ledger::load();
    let mut per_layer = BTreeSet::new();
    for workload in &ledger.workloads {
        let out = run_workload(&quick(workload, false)).expect("untraced quick run");
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
        // Peak memory is read by `main`, once the workload has returned.
        let mut end_to_end: BTreeSet<String> = out.readings.into_keys().collect();
        end_to_end.insert("peak_rss_mb".to_string());
        let declared: BTreeSet<String> = ledger.end_to_end.iter().map(|m| m.name.clone()).collect();
        assert_eq!(end_to_end, declared, "{workload}: end-to-end names");

        let out = run_workload(&quick(workload, true)).expect("traced quick run");
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
        assert!(
            out.readings.contains_key("trace.overhead_share"),
            "{workload}"
        );
        per_layer.extend(out.readings.into_keys());
    }
    let declared: BTreeSet<String> = ledger.per_layer.iter().map(|m| m.name.clone()).collect();
    let undeclared: Vec<_> = per_layer.difference(&declared).collect();
    let never_emitted: Vec<_> = declared.difference(&per_layer).collect();
    assert!(
        undeclared.is_empty(),
        "emitted but not declared: {undeclared:?}"
    );
    assert!(
        never_emitted.is_empty(),
        "declared but emitted by no workload: {never_emitted:?}"
    );
}
