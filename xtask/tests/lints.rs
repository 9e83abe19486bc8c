//! Integration tests for the lint engine: every lint must fire on its
//! `fire` fixture, stay quiet on its near-miss `quiet` fixture, the allow
//! machinery must round-trip, and — the point of the whole exercise — the
//! real workspace must be clean.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lints_at(root: &Path) -> Vec<xtask::diag::Diagnostic> {
    xtask::run_lints(root).expect("engine must not error on fixtures")
}

/// Diagnostics from `fire`, asserting they all belong to `lint`.
fn fire(lint: &str) -> Vec<xtask::diag::Diagnostic> {
    let diags = lints_at(&fixture(&format!("{lint}/fire")));
    assert!(
        !diags.is_empty(),
        "{lint}: fire fixture produced no diagnostics"
    );
    for d in &diags {
        assert_eq!(
            d.lint, lint,
            "{lint}: fire fixture leaked a different lint: {d}"
        );
    }
    diags
}

fn assert_quiet(lint: &str) {
    let diags = lints_at(&fixture(&format!("{lint}/quiet")));
    assert!(
        diags.is_empty(),
        "{lint}: near-miss fixture must stay quiet, got:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// --- L2 no-wall-clock -----------------------------------------------

#[test]
fn wall_clock_fires_on_instant_and_env() {
    let diags = fire("no-wall-clock");
    assert!(diags.iter().any(|d| d.message.contains("`Instant`")));
    assert!(diags.iter().any(|d| d.message.contains("env::var")));
}

#[test]
fn wall_clock_quiet_on_local_var_and_test_timing() {
    assert_quiet("no-wall-clock");
}

// --- L3 deterministic-iteration ---------------------------------------

#[test]
fn det_iter_fires_on_hashmap_in_result_crate() {
    let diags = fire("deterministic-iteration");
    assert!(diags
        .iter()
        .any(|d| d.path == "crates/analysis/src/agg.rs" && d.message.contains("HashMap")));
}

#[test]
fn det_iter_quiet_on_btreemap_tests_and_out_of_scope_crates() {
    assert_quiet("deterministic-iteration");
}

// --- L4 safety-comment -------------------------------------------------

#[test]
fn safety_fires_on_bare_unsafe_and_missing_deny() {
    let diags = fire("safety-comment");
    assert!(
        diags
            .iter()
            .any(|d| d.path == "crates/gf/src/slice.rs" && d.message.contains("SAFETY")),
        "missing-SAFETY-comment diagnostic not found"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.path == "crates/gf/src/lib.rs"
                && d.message.contains("unsafe_op_in_unsafe_fn")),
        "missing-deny-attribute diagnostic not found"
    );
}

#[test]
fn safety_quiet_when_justified_and_denied() {
    assert_quiet("safety-comment");
}

// --- L7 unit-discipline ------------------------------------------------

#[test]
fn unit_discipline_fires_on_bare_f64_and_mixed_arithmetic() {
    let diags = fire("unit-discipline");
    // Signature checks: suffixed param and suffixed return.
    assert!(diags
        .iter()
        .any(|d| d.message.contains("`schedule_repair`") && d.message.contains("`volume_tb`")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("`sojourn_hours`") && d.message.contains("returns bare")));
    // Expression checks: TB-vs-MB/s and rate-vs-span mixing.
    assert!(diags
        .iter()
        .any(|d| d.message.contains("`wire_tb`") && d.message.contains("`bw_mbs`")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("`rate_per_year`") && d.message.contains("`window_hours`")));
}

#[test]
fn unit_discipline_quiet_on_newtypes_fields_and_same_class() {
    assert_quiet("unit-discipline");
}

// --- L8 panic-freedom --------------------------------------------------

#[test]
fn panic_freedom_fires_on_unwrap_expect_and_indexing() {
    let diags = fire("panic-freedom");
    assert!(diags.iter().any(|d| d.message.contains("`.unwrap()`")));
    assert!(diags.iter().any(|d| d.message.contains("`.expect()`")));
    assert!(diags.iter().any(|d| d.message.contains("indexing `xs[")));
}

#[test]
fn panic_freedom_quiet_on_annotated_sites_types_and_tests() {
    assert_quiet("panic-freedom");
}

// --- allow machinery ---------------------------------------------------

#[test]
fn allow_file_suppresses_matching_violation() {
    let diags = lints_at(&fixture("allow-roundtrip"));
    assert!(
        diags.is_empty(),
        "allowlisted violation must be suppressed, got: {diags:?}"
    );
}

#[test]
fn unused_allow_entry_is_reported() {
    let diags = lints_at(&fixture("unused-allow"));
    assert_eq!(
        diags.len(),
        1,
        "expected exactly the unused-allow: {diags:?}"
    );
    assert_eq!(diags[0].lint, "unused-allow");
    assert_eq!(diags[0].path, "lints.allow.toml");
}

#[test]
fn allow_file_above_the_ceiling_is_an_engine_error() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("allow-ceiling");
    std::fs::create_dir_all(&root).unwrap();
    let entry =
        "[[allow]]\nlint = \"no-wall-clock\"\npath = \"crates/x/src/y.rs\"\nreason = \"r\"\n";
    let write = |n: usize| std::fs::write(root.join("lints.allow.toml"), entry.repeat(n)).unwrap();
    // At the ceiling the run goes ahead (reporting each stale entry)...
    write(xtask::allow::ALLOW_CEILING);
    let run = xtask::run_lints_scoped(&root, None).expect("at the ceiling the engine runs");
    assert!(
        run.notes.iter().any(|n| n.contains("ceiling")),
        "{:?}",
        run.notes
    );
    // ...one entry more and the engine refuses to run at all.
    write(xtask::allow::ALLOW_CEILING + 1);
    let err = xtask::run_lints(&root).expect_err("one entry over the ceiling");
    assert!(err.0.contains("ceiling"), "{err}");
}

#[test]
fn allow_file_round_trips_through_canonical_serialization() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../lints.allow.toml"))
            .expect("repo allow file");
    let known = xtask::lints::known_names();
    let parsed = xtask::allow::AllowFile::parse(&text, &known).expect("repo allow file parses");
    let reparsed = xtask::allow::AllowFile::parse(&parsed.to_toml(), &known).unwrap();
    assert_eq!(parsed, reparsed);
    assert!(!parsed.entries.is_empty());
}

// --- the real tree -----------------------------------------------------

#[test]
fn repository_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits in the workspace root")
        .to_path_buf();
    let diags = xtask::run_lints(&root).expect("engine runs on the real tree");
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
