//! # durable — the one durable-storage kernel
//!
//! Every file the workspace keeps across runs is checksummed, published
//! and claimed through this crate (DESIGN.md §13): [`fnv1a64`],
//! [`publish`] / [`publish_new`], the [`envelope`] codec and [`Lease`].
//! It depends on `std` only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
mod lease;

pub use envelope::{decode, encode, Envelope, EnvelopeError};
pub use lease::Lease;

use std::ffi::OsString;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
#[inline]
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Distinguishes the temp files of one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Whether `name` is a temp file of [`publish`] or [`publish_new`],
/// `.<name>.tmp.<pid>.<n>`, as a crash before the commit leaves behind.
pub fn is_temp_name(name: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let mut parts = name.rsplitn(3, '.');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(n), Some(pid), Some(stem)) => {
            digits(n) && digits(pid) && stem.starts_with('.') && stem.ends_with(".tmp")
        }
        _ => false,
    }
}

/// Runs `write` on a fresh temp file beside `path`, so the commit never
/// crosses a filesystem; the temp file is removed if `write` fails.
fn write_temp(path: &Path, write: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<PathBuf> {
    let mut name = OsString::from(".");
    name.push(path.file_name().unwrap_or_default());
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let temp = path.with_file_name(name);
    let mut file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&temp)?;
    write(&mut file).inspect_err(|_| {
        let _ = fs::remove_file(&temp);
    })?;
    Ok(temp)
}

/// Atomically replaces `path` with what `write` puts in a temp file:
/// readers see the old file or the whole new one. Nothing is fsynced; a
/// caller whose data cannot be recomputed ends `write` with `sync_all`.
pub fn publish(path: &Path, write: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
    let temp = write_temp(path, write)?;
    fs::rename(&temp, path).inspect_err(|_| {
        let _ = fs::remove_file(&temp);
    })
}

/// [`publish`] for a whole buffer.
pub fn publish_bytes(path: &Path, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    publish(path, |file| file.write_all(bytes.as_ref()))
}

/// [`publish`] committed with `hard_link`, which never overwrites:
/// `Ok(false)` means `path` already exists and nothing was published.
pub fn publish_new(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<bool> {
    let temp = write_temp(path, write)?;
    let linked = fs::hard_link(&temp, path);
    let _ = fs::remove_file(&temp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "durable-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), FNV1A64_OFFSET);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        for split in 0..=6 {
            let (a, b) = b"foobar".split_at(split);
            assert_eq!(fnv1a64_extend(fnv1a64(a), b), fnv1a64(b"foobar"));
        }
    }

    #[test]
    fn publish_replaces_atomically_and_leaves_no_temp_files() {
        let dir = temp_dir("publish");
        let path = dir.join("out.txt");
        publish_bytes(&path, "first").unwrap();
        publish_bytes(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        assert_eq!(names(&dir), ["out.txt"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_removes_its_temp_file_and_keeps_the_old_one() {
        let dir = temp_dir("fail");
        let path = dir.join("out.txt");
        publish_bytes(&path, "kept").unwrap();
        let err = publish(&path, |file| {
            file.write_all(b"half")?;
            Err(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(fs::read_to_string(&path).unwrap(), "kept");
        assert_eq!(names(&dir), ["out.txt"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_new_never_overwrites() {
        let dir = temp_dir("new");
        let path = dir.join("00000001.rec");
        assert!(publish_new(&path, |f| f.write_all(b"mine")).unwrap());
        assert!(!publish_new(&path, |f| f.write_all(b"theirs")).unwrap());
        assert_eq!(fs::read_to_string(&path).unwrap(), "mine");
        assert_eq!(names(&dir), ["00000001.rec"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_names_are_recognized_exactly() {
        let dir = temp_dir("names");
        let path = dir.join("m3.shard");
        let mut seen = Vec::new();
        for _ in 0..2 {
            publish(&path, |_| {
                seen.extend(names(&dir).into_iter().filter(|n| n != "m3.shard"));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(seen.len(), 2);
        assert_ne!(seen[0], seen[1], "every publish has its own temp file");
        for name in &seen {
            assert!(name.starts_with(".m3.shard.tmp."), "{name}");
            assert!(is_temp_name(name), "{name}");
        }
        for other in [
            "m3.shard",
            ".m3.shard.tmp.1",
            ".m3.shard.tmp.x.2",
            ".m3.shard.tmp.1.",
            "m3.shard.tmp.1.2",
            ".tmp-999-deadbeef",
        ] {
            assert!(!is_temp_name(other), "{other}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
