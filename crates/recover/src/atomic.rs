//! Atomic file writes: temp file in the target directory, fsync, rename.
//!
//! A reader concurrent with (or interrupted by) a write observes either
//! the complete previous contents or the complete new contents — never a
//! torn file. [`AtomicFile`] is the one write path for every artifact the
//! workspace produces: [`write_atomic`] writes a buffer whole
//! (checkpoints, CSV/SVG/JSON results, bench reports), and a streamed
//! artifact (a `--trace` JSONL file) is written line by line.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counter distinguishing temp files within one process; combined
/// with the PID it makes concurrent writers (threads or processes) collide
/// only if the OS reuses a PID mid-write.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path_for(path: &Path) -> PathBuf {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let tmp_name = format!(".{name}.tmp.{pid}.{seq}");
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(tmp_name),
        _ => PathBuf::from(tmp_name),
    }
}

/// A file written in pieces that appears at its path only on
/// [`AtomicFile::commit`]: the bytes stream through a buffer into a temp
/// file in the target directory, so a writer of a large artifact never
/// holds it in memory, and a reader never observes a torn one.
///
/// Dropped uncommitted — an early `?` return, a failed write or a panic —
/// it removes the temp file, which would otherwise sit next to the
/// artifact until something sweeps the directory.
#[derive(Debug)]
pub struct AtomicFile {
    file: Option<BufWriter<fs::File>>,
    tmp: PathBuf,
    path: PathBuf,
}

impl AtomicFile {
    /// Creates the temp file that [`AtomicFile::commit`] renames to `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let tmp = temp_path_for(path);
        let file = fs::File::create(&tmp)?;
        Ok(AtomicFile {
            file: Some(BufWriter::new(file)),
            tmp,
            path: path.to_path_buf(),
        })
    }

    /// Flushes and fsyncs the temp file, then renames it to the target
    /// path. The temp file lives in the target's directory so the rename
    /// stays within one filesystem (rename is only atomic within a
    /// mount). The directory fsync afterwards is best-effort (some
    /// platforms/filesystems reject directory handles). Whatever fails —
    /// a full disk at flush or sync time, a rename refused because the
    /// target is a directory — the temp file is removed before the error
    /// propagates.
    pub fn commit(mut self) -> io::Result<()> {
        if let Some(file) = self.file.take() {
            let file = file.into_inner().map_err(io::IntoInnerError::into_error)?;
            file.sync_all()?;
        }
        fs::rename(&self.tmp, &self.path)?;
        self.tmp = PathBuf::new();
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Ok(d) = fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
        }
        Ok(())
    }

    fn file(&mut self) -> io::Result<&mut BufWriter<fs::File>> {
        self.file
            .as_mut()
            .ok_or_else(|| io::Error::other("atomic file already committed"))
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file()?.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file()?.flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        // Close before removing; a committed file has no temp path left.
        self.file = None;
        if !self.tmp.as_os_str().is_empty() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Writes `bytes` to `path` atomically: an [`AtomicFile`] written whole.
///
/// A reader concurrent with (or interrupted by) the write observes either
/// the complete previous contents or the complete new contents.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = AtomicFile::create(path)?;
    file.write_all(bytes)?;
    file.commit()
}

/// Writes a UTF-8 string to `path` atomically. Convenience wrapper over
/// [`write_atomic`].
pub fn write_atomic_str(path: &Path, text: &str) -> io::Result<()> {
    write_atomic(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ge-atomic-test-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_contents() {
        let dir = temp_dir();
        let path = dir.join("out.txt");
        write_atomic(&path, b"hello").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replaces_existing_file() {
        let dir = temp_dir();
        let path = dir.join("out.txt");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new contents");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leaves_no_temp_files() {
        let dir = temp_dir();
        let path = dir.join("out.txt");
        for i in 0..5 {
            write_atomic(&path, format!("round {i}").as_bytes()).unwrap();
        }
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_cleans_up_temp() {
        let dir = temp_dir();
        // Target inside a nonexistent subdirectory: File::create fails.
        let path = dir.join("missing-subdir").join("out.txt");
        assert!(write_atomic(&path, b"x").is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failure_after_temp_creation_removes_temp() {
        // The temp file is created and written successfully; only the
        // final rename fails (the target path is a directory). The temp
        // file must not be leaked next to it. Run it a few times so a
        // leak can't hide behind the per-write temp name.
        let dir = temp_dir();
        let target = dir.join("occupied");
        fs::create_dir(&target).unwrap();
        for _ in 0..3 {
            assert!(write_atomic(&target, b"payload").is_err());
        }
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        // The failing writes must not have clobbered the target either.
        assert!(target.is_dir());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_file_appears_only_on_commit() {
        let dir = temp_dir();
        let path = dir.join("stream.jsonl");
        let mut file = AtomicFile::create(&path).unwrap();
        for i in 0..1000 {
            writeln!(file, "line {i}").unwrap();
        }
        assert!(!path.exists(), "visible before commit");
        file.commit().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1000);
        assert_eq!(text.lines().last(), Some("line 999"));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "temp file left");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_uncommitted_file_leaves_nothing() {
        let dir = temp_dir();
        let path = dir.join("abandoned.jsonl");
        let mut file = AtomicFile::create(&path).unwrap();
        file.write_all(b"partial").unwrap();
        drop(file);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "temp file left");
        fs::remove_dir_all(&dir).ok();
    }
}
