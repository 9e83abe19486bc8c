//! Plain-text rendering for the figure binaries: aligned tables and
//! log-scale heatmaps that read like the paper's figures in a terminal,
//! plus JSON dumping for machine consumption.

use crate::figures::bursts::Heatmap;
use mlec_runner::ToJson;
use std::path::Path;

/// Render rows as an aligned ASCII table. `headers.len()` must match every
/// row's length.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Render a PDL heatmap with one character per cell on a log10 scale:
/// `.` = PDL ≤ 1e-6, `1`..`6` log-decades up to 0.3, `9` ≥ 0.3, space =
/// impossible cell.
pub fn render_heatmap(map: &Heatmap) -> String {
    let mut out = format!("PDL heatmap: {} (rows: failures, cols: racks)\n", map.label);
    out.push_str("      ");
    for &x in &map.xs {
        out.push_str(&format!("{x:>3}"));
    }
    out.push('\n');
    for (yi, &y) in map.ys.iter().enumerate() {
        out.push_str(&format!("y={y:>3} "));
        for v in &map.pdl[yi] {
            let c = pdl_char(*v);
            out.push_str(&format!("  {c}"));
        }
        out.push('\n');
    }
    out.push_str("scale: ' '=n/a  .=<1e-6  1..6 = 1e-6..1e-1 (log10)  9=>0.3\n");
    out
}

fn pdl_char(v: f64) -> char {
    if v.is_nan() {
        ' '
    } else if v >= 0.3 {
        '9'
    } else if v <= 1e-6 {
        '.'
    } else {
        // log10 in (-6, -0.52): map to '1'..='6'.
        let mag = (-v.log10()).clamp(0.0, 6.0);
        let idx = (7.0 - mag).clamp(1.0, 6.0) as u8;
        (b'0' + idx) as char
    }
}

/// Failure to write a JSON artifact: the path attempted plus the
/// underlying I/O error. Callers must surface it (the figure data is the
/// point of a run), not silently drop the artifact.
#[derive(Debug)]
pub struct DumpError {
    /// The artifact path the write targeted.
    pub path: std::path::PathBuf,
    /// The I/O failure.
    pub source: std::io::Error,
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failed to write artifact {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for DumpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Write any [`ToJson`] result as pretty JSON at `<dir>/<name>.json`,
/// creating `dir` (and any missing parents) as needed. Returns the path
/// written.
pub fn dump_json_in<T: ToJson + ?Sized>(
    dir: &Path,
    name: &str,
    value: &T,
) -> Result<std::path::PathBuf, DumpError> {
    let path = dir.join(format!("{name}.json"));
    let write = |p: &Path| -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(p, value.to_json().to_string_pretty())
    };
    match write(&path) {
        Ok(()) => Ok(path),
        Err(source) => Err(DumpError { path, source }),
    }
}

/// Format a float with engineering-friendly precision: probabilities in
/// scientific notation, moderate numbers with 1 decimal.
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 1e-3 || v.abs() >= 1e6 {
        format!("{v:.2e}")
    } else if v.abs() < 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_table_alignment() {
        let t = ascii_table(
            &["scheme", "value"],
            &[
                vec!["C/C".into(), "40".into()],
                vec!["D/D".into(), "1363.6".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("scheme"));
        assert!(lines[3].contains("1363.6"));
    }

    #[test]
    fn heatmap_rendering_characters() {
        let map = Heatmap {
            label: "test".into(),
            xs: vec![1, 2],
            ys: vec![1, 2],
            pdl: vec![vec![0.0, f64::NAN], vec![1e-4, 1.0]],
            trials: 0,
        };
        let s = render_heatmap(&map);
        assert!(s.contains("test"));
        assert!(s.contains('9'));
        assert!(s.contains('.'));
    }

    #[test]
    fn pdl_char_ordering() {
        // Higher PDL must never render as a lower digit.
        let probs = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0];
        let chars: Vec<char> = probs.iter().map(|&p| pdl_char(p)).collect();
        for w in chars.windows(2) {
            assert!(w[0] <= w[1], "{chars:?}");
        }
    }

    #[test]
    fn dump_json_creates_nested_dirs_and_reports_typed_errors() {
        let base = std::env::temp_dir().join(format!("mlec-dump-{}", std::process::id()));
        let nested = base.join("deep").join("figures");
        let map = Heatmap {
            label: "t".into(),
            xs: vec![1],
            ys: vec![1],
            pdl: vec![vec![0.5]],
            trials: 1,
        };
        let path = dump_json_in(&nested, "probe", &map).unwrap();
        assert!(path.ends_with("deep/figures/probe.json"));
        assert!(std::fs::read_to_string(&path).unwrap().contains("\"pdl\""));
        std::fs::remove_dir_all(&base).unwrap();

        // A directory we cannot create (a file in the way) must surface a
        // typed error naming the artifact path.
        let blocker = base.join("blocked");
        std::fs::create_dir_all(&base).unwrap();
        std::fs::write(&blocker, b"not a dir").unwrap();
        let err = dump_json_in(&blocker, "probe", &map).unwrap_err();
        assert!(err.path.ends_with("blocked/probe.json"));
        assert!(err.to_string().contains("probe.json"));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn fmt_value_ranges() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(1e-9), "1.00e-9");
        assert_eq!(fmt_value(1.2345), "1.23");
        assert_eq!(fmt_value(1363.6), "1363.6");
    }
}
