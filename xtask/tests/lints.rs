//! Integration tests for the lint engine: L7 must fire on its `fire`
//! fixture and stay quiet on its near-miss `quiet` fixture, the allow
//! machinery must round-trip, and — the point of the whole exercise — the
//! real workspace must be clean. The invariants retired lints held are
//! pinned where the toolchain now holds them (clippy config, workspace
//! lint levels, the lock file); L8's panic sites are clippy findings, and
//! its unit tests cover the budget and the misplaced suppressions.

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

/// Only a gate that keeps an item out of every non-test build masks it;
/// a `#[cfg(not(test))]` body is production code and is scanned.
#[test]
fn unit_discipline_scans_cfg_not_test_items() {
    let diags = fire("unit-discipline");
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`drain_tb`") && d.message.contains("`uplink_mbs`")),
        "{diags:?}"
    );
}

#[test]
fn unit_discipline_quiet_on_newtypes_fields_and_same_class() {
    assert_quiet("unit-discipline");
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
        "[[allow]]\nlint = \"unit-discipline\"\npath = \"crates/x/src/y.rs\"\nreason = \"r\"\n";
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

// --- invariants the toolchain holds ----------------------------------

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of TOML table `[header]`, up to the next table header.
fn toml_table<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

/// The text of TOML array `key = [ … ]`, up to its closing bracket.
fn toml_array<'a>(text: &'a str, key: &str) -> &'a str {
    let open = text
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml sets no `{key}`"));
    let rest = &text[open..];
    let close = rest.find("\n]").expect("array closes on its own line");
    &rest[..close]
}

/// L2, L3 and L4 retired to clippy: `clippy.toml` bans hash-ordered
/// collections, the wall clock and environment reads in every member
/// (tests included), and the workspace denies unsafe operations outside
/// an `unsafe` block and warns on one without a `// SAFETY:` comment (CI
/// runs clippy with `-D warnings`). L2 also named `thread_rng`, `OsRng`
/// and `from_entropy`; no external crate can provide them while the lock
/// file lists none.
#[test]
fn toolchain_holds_the_retired_determinism_lints() {
    let clippy = repo_file("clippy.toml");
    let types = toml_array(&clippy, "disallowed-types");
    for ty in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
    ] {
        assert!(types.contains(&format!("path = \"{ty}\"")), "{ty}");
    }
    let methods = toml_array(&clippy, "disallowed-methods");
    for method in ["std::env::var", "std::env::var_os"] {
        assert!(
            methods.contains(&format!("path = \"{method}\"")),
            "{method}"
        );
    }
    assert!(clippy
        .lines()
        .any(|l| l.trim() == "check-private-items = true"));

    let root = repo_file("Cargo.toml");
    assert!(
        toml_table(&root, "[workspace.lints.rust]").contains(&"unsafe_op_in_unsafe_fn = \"deny\"")
    );
    assert!(toml_table(&root, "[workspace.lints.clippy]")
        .contains(&"undocumented_unsafe_blocks = \"warn\""));

    let mut members = vec!["Cargo.toml".to_string(), "xtask/Cargo.toml".to_string()];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    for entry in std::fs::read_dir(crates).expect("crates/") {
        let name = entry.expect("crates/ entry").file_name();
        members.push(format!("crates/{}/Cargo.toml", name.to_string_lossy()));
    }
    for member in &members {
        let manifest = repo_file(member);
        assert!(
            toml_table(&manifest, "[lints]").contains(&"workspace = true"),
            "{member} must inherit the workspace lints"
        );
    }

    let lock = repo_file("Cargo.lock");
    assert!(
        !lock.lines().any(|l| l.starts_with("source =")),
        "Cargo.lock lists an external crate"
    );
}

/// L8's sites are clippy findings only while both data-plane crates turn
/// the three panic lints on; a statement's `#[expect]` alone would stay
/// fulfilled with the crate lint gone, and new sites would pass unseen.
#[test]
fn toolchain_holds_the_panic_lints() {
    for lib in ["crates/store/src/lib.rs", "crates/sim/src/lib.rs"] {
        let text: String = repo_file(lib).split_whitespace().collect();
        assert!(
            text.contains(
                "#![cfg_attr(not(test),warn(clippy::indexing_slicing,clippy::unwrap_used,clippy::expect_used))]"
            ),
            "{lib} must warn on the three panic lints outside tests"
        );
    }
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
