//! CSV export primitives for post-processing in external tools.
//!
//! Deliberately minimal: plain RFC-4180-ish quoting, no dependencies. The
//! experiment binaries use this (via `tcd_repro::report`) when asked to
//! dump raw series next to their printed tables. JSON is emitted through
//! `lossless_obs::json`, the one set of escaping rules in the workspace.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// Quote a CSV field if needed (commas, quotes, newlines).
fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Render rows as CSV text.
pub fn to_csv<R, F>(headers: &[&str], rows: R) -> String
where
    R: IntoIterator<Item = F>,
    F: IntoIterator<Item = String>,
{
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    );
    for row in rows {
        let cells: Vec<String> = row.into_iter().map(|c| quote(&c)).collect();
        let _ = writeln!(out, "{}", cells.join(","));
    }
    out
}

/// Write rows to a CSV file, creating parent directories as needed.
pub fn write_csv<P, R, F>(path: P, headers: &[&str], rows: R) -> io::Result<()>
where
    P: AsRef<Path>,
    R: IntoIterator<Item = F>,
    F: IntoIterator<Item = String>,
{
    if let Some(dir) = path.as_ref().parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv(headers, rows).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_and_rows() {
        let csv = to_csv(
            &["t", "value"],
            vec![
                vec!["1".to_string(), "2.5".to_string()],
                vec!["2".to_string(), "3.5".to_string()],
            ],
        );
        assert_eq!(csv, "t,value\n1,2.5\n2,3.5\n");
    }

    #[test]
    fn quotes_special_fields() {
        let csv = to_csv(
            &["name"],
            vec![vec!["a,b".to_string()], vec!["he said \"hi\"".to_string()]],
        );
        assert_eq!(csv, "name\n\"a,b\"\n\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    fn writes_file_with_parents() {
        let dir = std::env::temp_dir().join("tcd_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub").join("out.csv");
        write_csv(&path, &["a"], vec![vec!["1".to_string()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_rows_ok() {
        let csv = to_csv(&["x"], Vec::<Vec<String>>::new());
        assert_eq!(csv, "x\n");
    }
}
