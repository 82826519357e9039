//! Output under `results/`: aligned tables, CSV persistence, banners, and
//! the locked read-modify-write of the shared JSON documents.
//!
//! Every campaign consumer (and the campaign engine's own determinism
//! tests) shares this one implementation.

use std::ffi::OsString;
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::lock::FileLock;

/// An aligned ASCII table that can also persist itself as CSV.
///
/// # Examples
///
/// ```
/// use campaign::Table;
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(&[&1, &2.5]);
/// t.print();
/// assert_eq!(t.to_csv_string(), "x,y\n1,2.5\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; each cell is rendered with `Display`.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n── {} ──", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        println!("{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
    }

    /// The table rendered as CSV (header line + one line per row).
    #[must_use]
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV under `results/<name>.csv`.
    ///
    /// # Panics
    ///
    /// Panics if the results directory or file cannot be written.
    pub fn write_csv(&self, name: &str) {
        let dir = results_dir();
        let path = dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path).expect("create results csv");
        f.write_all(self.to_csv_string().as_bytes())
            .expect("write csv");
        println!("[csv] {}", path.display());
    }
}

/// The `results/` directory under `$EXPLFRAME_OUT`, or at the workspace
/// root when that is unset (created on demand).
///
/// # Panics
///
/// Panics with a clear diagnostic if `results` exists but is not a
/// directory (e.g. a stray file of that name), or if it cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = resolve_out_root(std::env::var_os(OUT_ENV)).join("results");
    if let Err(e) = ensure_dir(&dir) {
        panic!("cannot use results directory {}: {e}", dir.display());
    }
    dir
}

/// Creates `path` as a directory if needed, failing with a descriptive
/// error when something non-directory already occupies the name (the
/// mistake `create_dir_all` reports as an opaque `NotADirectory`).
fn ensure_dir(path: &std::path::Path) -> std::io::Result<()> {
    match fs::metadata(path) {
        Ok(meta) if meta.is_dir() => Ok(()),
        Ok(_) => Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!(
                "{} exists but is not a directory; move it aside so campaign \
                 artifacts can be written",
                path.display()
            ),
        )),
        Err(_) => fs::create_dir_all(path),
    }
}

/// The experiment-binary reporting epilogue every `exp_*` used to
/// copy-paste: print the table, persist it as `results/<name>.csv`, and
/// record its row count + FNV-1a digest in the summary record (which makes
/// cross-thread-count byte-identity machine-checkable).
///
/// The caller still owns `summary.write(&result)` — one summary typically
/// aggregates several tables.
///
/// # Panics
///
/// Panics if the results directory or the CSV cannot be written.
pub fn persist(name: &str, table: &Table, summary: &mut crate::Summary) {
    table.print();
    table.write_csv(name);
    summary.table(name, table);
}

/// Updates the shared JSON document at `path` (one of `results/*.json`)
/// under its lock `results/.<stem>.lock`: loads it, or starts `{}` when it
/// is missing or unparsable, lets `merge` change it, and writes it back.
///
/// # Panics
///
/// Panics if the document cannot be written.
pub(crate) fn update_json(path: &Path, merge: impl FnOnce(&mut Json)) {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let _lock = FileLock::acquire(&format!(".{stem}.lock"));
    let mut doc = fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .filter(|doc| matches!(doc, Json::Obj(_)))
        .unwrap_or_else(Json::obj);
    merge(&mut doc);
    // Write-then-rename so a killed process never leaves a truncated
    // document behind (which would silently wipe the accumulated records
    // on the next load).
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, doc.pretty()).unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
    fs::rename(&tmp, path).unwrap_or_else(|e| panic!("rename into {}: {e}", path.display()));
}

/// Environment variable naming the directory `results/` is written under.
const OUT_ENV: &str = "EXPLFRAME_OUT";

/// The directory `results/` is written under, for a given value of
/// [`OUT_ENV`]: the named directory when it is set and non-empty, else the
/// workspace root the crate was built in.
fn resolve_out_root(out: Option<OsString>) -> PathBuf {
    match out {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        // This crate lives at <root>/crates/campaign.
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("workspace root")
            .to_path_buf(),
    }
}

/// Prints a standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("==========================================================");
    println!("{id}");
    println!("  {claim}");
    println!("==========================================================");
}

/// FNV-1a hash of a byte string — the digest `summary.json` records per CSV
/// so byte-identity across runs (and thread counts) is machine-checkable.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_root_honours_the_override_and_defaults_to_the_workspace() {
        let root = resolve_out_root(None);
        assert!(root.join("crates/campaign/Cargo.toml").is_file());
        assert_eq!(resolve_out_root(Some(OsString::new())), root);
        assert_eq!(
            resolve_out_root(Some(OsString::from("copy/out"))),
            PathBuf::from("copy/out")
        );
    }

    #[test]
    fn table_rejects_mismatched_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&[&1, &2]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(&[&1]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn ensure_dir_rejects_files_cleanly() {
        let dir = std::env::temp_dir().join(format!("campaign-ensure-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A fresh subdirectory is created...
        let sub = dir.join("results");
        assert!(ensure_dir(&sub).is_ok());
        // ...an existing directory is accepted...
        assert!(ensure_dir(&sub).is_ok());
        // ...and a file squatting on the name fails with a diagnostic
        // instead of an opaque create_dir_all error.
        let file = dir.join("results-file");
        fs::write(&file, b"not a dir").unwrap();
        let err = ensure_dir(&file).unwrap_err();
        assert!(err.to_string().contains("not a directory"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_json_replaces_an_unparsable_document_and_keeps_records() {
        let dir = std::env::temp_dir().join(format!("campaign-update-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        fs::write(&path, b"{ truncated").unwrap();
        update_json(&path, |doc| doc.set("a", 1u64));
        update_json(&path, |doc| doc.set("b", 2u64));
        let doc = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(Json::as_u64), Some(2));
        assert!(!path.with_extension("json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_string_is_stable() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&2, &"y"]);
        assert_eq!(t.to_csv_string(), "a,b\n1,x\n2,y\n");
        assert_eq!(t.row_count(), 2);
        assert_eq!(
            fnv1a(t.to_csv_string().as_bytes()),
            fnv1a(t.clone().to_csv_string().as_bytes())
        );
    }
}
