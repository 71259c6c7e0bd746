//! Atomic snapshot persistence.
//!
//! Telemetry snapshots are rewritten in place every few hundred
//! milliseconds while a campaign runs, and anything may read them then —
//! a script polling `--metrics-out`, or the file left behind when the
//! campaign is killed mid-write. A plain `fs::write` truncates then
//! fills, so a reader can observe a torn document. [`write_atomic`] gives
//! writers the standard fix: write a sibling temp file, then `rename` it
//! over the destination. On POSIX the rename is atomic, so readers see
//! either the old complete document or the new one, never a prefix.

use std::io;
use std::path::Path;

/// Writes `contents` to `path` atomically (temp file + rename).
///
/// The temp file lives next to the destination (`.<name>.tmp`) so the
/// rename never crosses a filesystem boundary.
///
/// # Errors
///
/// Propagates the underlying write or rename failure; the temp file is
/// removed on a failed rename.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nodefz-fsio-{tag}-{}", std::process::id()))
    }

    #[test]
    fn writes_and_replaces_without_leaving_temp_files() {
        let dir = temp_path("dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        write_atomic(&path, "{\"v\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 1}\n");
        write_atomic(&path, "{\"v\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 2}\n");
        // No `.tmp` residue: the only entry is the destination itself.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["snapshot.json".to_string()], "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_pathless_destinations() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }
}
