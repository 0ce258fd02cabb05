//! The harness binaries' one error path: every failure is a one-line
//! message, and the process exits non-zero.

use std::fmt;
use std::path::Path;

/// Why a harness run stopped: a usage error, an output that could not be
/// written, a failed run or a check on its result that did not hold.
pub struct HarnessError(String);

/// The binaries' `main` returns `Result<(), HarnessError>`, and the
/// runtime prints a returned error with `Debug`: that is the one-line
/// message.
impl fmt::Debug for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Any displayable failure (a message, a sweep or stream error) is its
/// message. Coherent because `HarnessError` is not `Display` itself.
impl<E: fmt::Display> From<E> for HarnessError {
    fn from(e: E) -> Self {
        HarnessError(e.to_string())
    }
}

/// `Ok` when `holds`, else an error saying `what`.
pub fn check(holds: bool, what: impl FnOnce() -> String) -> Result<(), HarnessError> {
    if holds {
        Ok(())
    } else {
        Err(HarnessError(what()))
    }
}

/// Write `contents` to `<path>.tmp`, then rename it over `path`: a write
/// that fails part-way leaves neither a partial file nor the temporary.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), HarnessError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    written.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        HarnessError(format!("cannot write {}: {e}", path.display()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_whole_or_leaves_nothing() {
        let dir = std::env::temp_dir().join(format!("h3w-bench-error-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        write_atomic(&path, "first\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        // A target under a regular file cannot be created.
        let bad = path.join("nested.txt");
        let err = write_atomic(&bad, "x").unwrap_err();
        let want = format!("cannot write {}: ", bad.display());
        assert!(err.0.starts_with(&want), "{err:?}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_render_as_one_line() {
        let e = HarnessError::from("unknown experiment 'E99'");
        assert_eq!(format!("{e:?}"), "unknown experiment 'E99'");
        let failed = check(false, || "scores differ".into()).unwrap_err();
        assert_eq!(failed.0, "scores differ");
        assert!(check(true, || unreachable!()).is_ok());
    }
}
