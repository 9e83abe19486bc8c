//! JSONL run manifests: an append-only record of what a run was and how far
//! it got, written incrementally so a killed run restarts where it left off.
//!
//! Line 1 is a `header` record naming the run (label, config hash, root
//! seed, batching); every subsequent line is a `checkpoint` with the trial
//! count, the accumulator's bit-exact state, wall-clock, and throughput; a
//! completed run appends a `final` record with the converged summary.
//! Resume validates the header — a manifest written under a different
//! config, seed, or batching refuses to resume rather than silently mixing
//! incompatible runs.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::trial::Summary;

/// Identity of a run; all fields must match for a resume to be legal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestHeader {
    pub label: String,
    pub config_hash: u64,
    pub root_seed: u64,
    pub batch_size: u64,
    pub batches_per_round: u64,
}

impl ManifestHeader {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("header".into())),
            ("label", Json::Str(self.label.clone())),
            ("config_hash", Json::U64(self.config_hash)),
            ("root_seed", Json::U64(self.root_seed)),
            ("batch_size", Json::U64(self.batch_size)),
            ("batches_per_round", Json::U64(self.batches_per_round)),
        ])
    }

    fn from_json(value: &Json) -> Option<ManifestHeader> {
        Some(ManifestHeader {
            label: value.get("label")?.as_str()?.to_string(),
            config_hash: value.get("config_hash")?.as_u64()?,
            root_seed: value.get("root_seed")?.as_u64()?,
            batch_size: value.get("batch_size")?.as_u64()?,
            batches_per_round: value.get("batches_per_round")?.as_u64()?,
        })
    }
}

/// One incremental progress record.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub trials: u64,
    /// Accumulator state as produced by `Accumulator::save`.
    pub acc_state: Json,
    /// Total wall-clock across all sessions of this run, seconds.
    pub elapsed_s: f64,
    pub trials_per_sec: f64,
}

impl Checkpoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("checkpoint".into())),
            ("trials", Json::U64(self.trials)),
            ("acc", self.acc_state.clone()),
            ("elapsed_s", Json::F64(self.elapsed_s)),
            ("trials_per_sec", Json::F64(self.trials_per_sec)),
        ])
    }

    fn from_json(value: &Json) -> Option<Checkpoint> {
        Some(Checkpoint {
            trials: value.get("trials")?.as_u64()?,
            acc_state: value.get("acc")?.clone(),
            elapsed_s: value.get("elapsed_s")?.as_f64()?,
            trials_per_sec: value.get("trials_per_sec")?.as_f64()?,
        })
    }
}

/// An open, append-mode manifest.
#[derive(Debug)]
pub struct Manifest {
    file: File,
    path: PathBuf,
}

/// Result of opening a manifest path: a writable manifest plus the
/// checkpoint to resume from, if a compatible run was already underway.
#[derive(Debug)]
pub struct Opened {
    pub manifest: Manifest,
    pub resume: Option<Checkpoint>,
}

impl Manifest {
    /// Open `path` for this run. A fresh file gets the header written; an
    /// existing file is cut back to its last complete line, then validated
    /// against `header` and scanned for its last checkpoint. A file with no
    /// complete line (killed while writing its header) starts fresh.
    pub fn open(path: &Path, header: &ManifestHeader) -> std::io::Result<Opened> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let resume = if path.exists() && cut_torn_tail(path)? > 0 {
            let existing = read_manifest(path)?;
            let found = existing.header.ok_or_else(|| {
                bad_data(format!("{}: manifest has no header line", path.display()))
            })?;
            if &found != header {
                return Err(bad_data(format!(
                    "{}: manifest belongs to a different run \
                     (found label={:?} config_hash={:#x} root_seed={} batch={}x{}, \
                     expected label={:?} config_hash={:#x} root_seed={} batch={}x{}); \
                     delete it or change --manifest to start fresh",
                    path.display(),
                    found.label,
                    found.config_hash,
                    found.root_seed,
                    found.batch_size,
                    found.batches_per_round,
                    header.label,
                    header.config_hash,
                    header.root_seed,
                    header.batch_size,
                    header.batches_per_round,
                )));
            }
            existing.last_checkpoint
        } else {
            None
        };
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if resume.is_none() && file.metadata()?.len() == 0 {
            writeln!(file, "{}", header.to_json().to_string_compact())?;
            file.flush()?;
        }
        Ok(Opened {
            manifest: Manifest {
                file,
                path: path.to_path_buf(),
            },
            resume,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn checkpoint(&mut self, cp: &Checkpoint) -> std::io::Result<()> {
        writeln!(self.file, "{}", cp.to_json().to_string_compact())?;
        self.file.flush()
    }

    pub fn finalize(
        &mut self,
        summary: &Summary,
        elapsed_s: f64,
        trials_per_sec: f64,
    ) -> std::io::Result<()> {
        let record = Json::obj(vec![
            ("kind", Json::Str("final".into())),
            ("summary", summary.to_json()),
            ("elapsed_s", Json::F64(elapsed_s)),
            ("trials_per_sec", Json::F64(trials_per_sec)),
        ]);
        writeln!(self.file, "{}", record.to_string_compact())?;
        self.file.flush()
    }
}

/// Everything a manifest file currently says.
pub struct ManifestContents {
    pub header: Option<ManifestHeader>,
    pub last_checkpoint: Option<Checkpoint>,
    pub finalized: bool,
}

/// Parse a manifest file. Torn trailing lines (a write cut off mid-kill)
/// are ignored, keeping the last complete checkpoint usable.
pub fn read_manifest(path: &Path) -> std::io::Result<ManifestContents> {
    let reader = BufReader::new(File::open(path)?);
    let mut contents = ManifestContents {
        header: None,
        last_checkpoint: None,
        finalized: false,
    };
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = Json::parse(&line) else {
            continue; // torn write
        };
        match value.get("kind").and_then(Json::as_str) {
            Some("header") => contents.header = ManifestHeader::from_json(&value),
            Some("checkpoint") => {
                if let Some(cp) = Checkpoint::from_json(&value) {
                    contents.last_checkpoint = Some(cp);
                }
            }
            Some("final") => contents.finalized = true,
            _ => {}
        }
    }
    Ok(contents)
}

/// Truncate `path` after its last newline, dropping a tail torn by a kill
/// mid-write so the next append starts a line of its own. Returns the
/// length kept (0 when no line was complete).
fn cut_torn_tail(path: &Path) -> std::io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    if keep < bytes.len() {
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(keep as u64)?;
    }
    Ok(keep as u64)
}

fn bad_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mlec-runner-manifest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn header() -> ManifestHeader {
        ManifestHeader {
            label: "test/run".into(),
            config_hash: 0xdead_beef,
            root_seed: 42,
            batch_size: 64,
            batches_per_round: 8,
        }
    }

    #[test]
    fn fresh_open_writes_header_and_resumes_last_checkpoint() {
        let path = tmp("fresh.jsonl");
        let mut opened = Manifest::open(&path, &header()).unwrap();
        assert!(opened.resume.is_none());
        for trials in [64u64, 128, 192] {
            opened
                .manifest
                .checkpoint(&Checkpoint {
                    trials,
                    acc_state: Json::obj(vec![("n", Json::U64(trials))]),
                    elapsed_s: trials as f64 * 0.1,
                    trials_per_sec: 640.0,
                })
                .unwrap();
        }
        drop(opened);

        let reopened = Manifest::open(&path, &header()).unwrap();
        let cp = reopened.resume.unwrap();
        assert_eq!(cp.trials, 192);
        assert_eq!(cp.acc_state.get("n").unwrap(), &Json::U64(192));
    }

    #[test]
    fn mismatched_header_refuses_resume() {
        let path = tmp("mismatch.jsonl");
        Manifest::open(&path, &header()).unwrap();
        let mut other = header();
        other.root_seed = 43;
        let err = Manifest::open(&path, &other).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_trailing_line_is_ignored() {
        let path = tmp("torn.jsonl");
        let mut opened = Manifest::open(&path, &header()).unwrap();
        opened
            .manifest
            .checkpoint(&Checkpoint {
                trials: 64,
                acc_state: Json::Null,
                elapsed_s: 1.0,
                trials_per_sec: 64.0,
            })
            .unwrap();
        drop(opened);
        // Simulate a kill mid-write.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "{{\"kind\":\"checkpoint\",\"trials\":128,\"acc").unwrap();
        drop(file);

        let mut reopened = Manifest::open(&path, &header()).unwrap();
        assert_eq!(reopened.resume.unwrap().trials, 64);
        // The resumed session's first checkpoint must land on a line of
        // its own, not be glued onto the torn fragment.
        reopened
            .manifest
            .checkpoint(&Checkpoint {
                trials: 128,
                acc_state: Json::Null,
                elapsed_s: 2.0,
                trials_per_sec: 64.0,
            })
            .unwrap();
        drop(reopened.manifest);
        let again = Manifest::open(&path, &header()).unwrap();
        assert_eq!(again.resume.unwrap().trials, 128);
    }

    #[test]
    fn torn_header_starts_fresh() {
        let path = tmp("torn-header.jsonl");
        std::fs::write(&path, "{\"kind\":\"header\",\"lab").unwrap();
        let opened = Manifest::open(&path, &header()).unwrap();
        assert!(opened.resume.is_none());
        drop(opened);
        assert_eq!(read_manifest(&path).unwrap().header, Some(header()));
    }

    #[test]
    fn finalize_marks_manifest() {
        let path = tmp("final.jsonl");
        let mut opened = Manifest::open(&path, &header()).unwrap();
        opened
            .manifest
            .finalize(
                &Summary {
                    trials: 100,
                    mean: 0.25,
                    std_err: 0.01,
                    ci_low: 0.23,
                    ci_high: 0.27,
                    rel_err: 0.04,
                },
                2.0,
                50.0,
            )
            .unwrap();
        let contents = read_manifest(&path).unwrap();
        assert!(contents.finalized);
    }
}
