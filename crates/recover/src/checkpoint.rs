//! Versioned, checksummed checkpoint envelope.
//!
//! On-disk layout (all integers little-endian; documented in DESIGN.md):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  = b"GECKPT\r\n"
//! 8       4     version (u32) = CHECKPOINT_VERSION
//! 12      8     input digest (u64, FNV-1a of the run inputs)
//! 20      8     payload length N (u64)
//! 28      N     payload (codec-encoded simulation state)
//! 28+N    8     checksum (u64, FNV-1a over bytes [0, 28+N))
//! ```
//!
//! The checksum covers the header *and* payload, so header tampering is
//! caught too. Loading a corrupt/truncated/mismatched file is always a
//! typed [`CheckpointError`] — never a panic.

use std::fmt;
use std::io;
use std::path::Path;

use crate::atomic::write_atomic;
use crate::codec::{fnv1a64, CodecError};

/// Magic bytes opening every checkpoint file. The embedded `\r\n` catches
/// accidental newline translation by transfer tools.
pub const MAGIC: [u8; 8] = *b"GECKPT\r\n";

/// Current checkpoint format version. Bump on any payload layout change.
/// Version 4 stores the trace-arrival cursor instead of future arrivals
/// and carries injected jobs in their pending events; version 5 drops
/// the leading crash flag (server liveness is the fleet router's state).
pub const CHECKPOINT_VERSION: u32 = 5;

const HEADER_LEN: usize = 8 + 4 + 8 + 8;
const CHECKSUM_LEN: usize = 8;

/// Typed failure loading or storing a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error reading or writing the checkpoint file.
    Io(io::Error),
    /// The file is shorter than the fixed envelope.
    Truncated {
        /// Actual file size in bytes.
        len: usize,
    },
    /// The magic bytes do not match — not a checkpoint file.
    BadMagic,
    /// The file's format version is not supported by this binary.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The payload length field disagrees with the file size.
    LengthMismatch {
        /// Payload length claimed by the header.
        claimed: u64,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The trailing checksum does not match the file contents.
    BadChecksum {
        /// Checksum expected from the file contents.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// The envelope was intact but the payload failed to decode.
    Codec(CodecError),
    /// The checkpoint was produced from different run inputs (config,
    /// trace, algorithm, or fault schedule) than the resume attempt.
    DigestMismatch {
        /// Digest stored in the checkpoint.
        checkpoint: u64,
        /// Digest of the resume attempt's inputs.
        current: u64,
    },
    /// The decoded state violated a semantic invariant (e.g. a core count
    /// that disagrees with the configuration).
    Invalid(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Truncated { len } => {
                write!(f, "checkpoint file truncated ({len} bytes)")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint version {found} (this binary supports {CHECKPOINT_VERSION})"
            ),
            CheckpointError::LengthMismatch { claimed, actual } => write!(
                f,
                "checkpoint payload length mismatch: header claims {claimed}, file holds {actual}"
            ),
            CheckpointError::BadChecksum { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: computed {expected:#018x}, stored {found:#018x}"
            ),
            CheckpointError::Codec(e) => write!(f, "checkpoint payload decode error: {e}"),
            CheckpointError::DigestMismatch {
                checkpoint,
                current,
            } => write!(
                f,
                "checkpoint was taken from different run inputs \
                 (checkpoint digest {checkpoint:#018x}, current {current:#018x})"
            ),
            CheckpointError::Invalid(reason) => {
                write!(f, "checkpoint state invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// Wraps `payload` in the versioned checksummed envelope.
pub fn seal(input_digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&input_digest.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates the envelope and returns `(input_digest, payload)`.
pub fn unseal(bytes: &[u8]) -> Result<(u64, &[u8]), CheckpointError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(CheckpointError::Truncated { len: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(v);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let mut d8 = [0u8; 8];
    d8.copy_from_slice(&bytes[12..20]);
    let digest = u64::from_le_bytes(d8);
    d8.copy_from_slice(&bytes[20..28]);
    let claimed = u64::from_le_bytes(d8);
    let actual = bytes.len() - HEADER_LEN - CHECKSUM_LEN;
    if claimed != actual as u64 {
        return Err(CheckpointError::LengthMismatch { claimed, actual });
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    d8.copy_from_slice(&bytes[body_end..]);
    let found = u64::from_le_bytes(d8);
    let expected = fnv1a64(&bytes[..body_end]);
    if expected != found {
        return Err(CheckpointError::BadChecksum { expected, found });
    }
    Ok((digest, &bytes[HEADER_LEN..body_end]))
}

/// Seals `payload` and writes it to `path` atomically (temp + fsync +
/// rename): an interrupted store leaves either the previous checkpoint or
/// none — never a torn file.
pub fn store_checkpoint(
    path: &Path,
    input_digest: u64,
    payload: &[u8],
) -> Result<(), CheckpointError> {
    let sealed = seal(input_digest, payload);
    write_atomic(path, &sealed)?;
    Ok(())
}

/// Reads `path`, validates the envelope, and returns
/// `(input_digest, payload)`.
pub fn load_checkpoint(path: &Path) -> Result<(u64, Vec<u8>), CheckpointError> {
    let bytes = std::fs::read(path)?;
    let (digest, payload) = unseal(&bytes)?;
    Ok((digest, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"some simulation state";
        let sealed = seal(0xabcd, payload);
        let (digest, got) = unseal(&sealed).unwrap();
        assert_eq!(digest, 0xabcd);
        assert_eq!(got, payload);
    }

    #[test]
    fn every_truncation_is_typed() {
        let sealed = seal(7, b"payload bytes");
        for cut in 0..sealed.len() {
            let err = unseal(&sealed[..cut]).unwrap_err();
            match err {
                CheckpointError::Truncated { .. }
                | CheckpointError::BadMagic
                | CheckpointError::LengthMismatch { .. }
                | CheckpointError::BadChecksum { .. } => {}
                other => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn bitflips_caught_by_checksum() {
        let sealed = seal(7, b"payload bytes");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert!(unseal(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn wrong_version_rejected() {
        // Earlier formats (2: before the single run handle, 3: before the
        // arrival cursor) and a future one are all refused up front.
        for version in [2u32, 3, 99] {
            let mut sealed = seal(7, b"x");
            sealed[8..12].copy_from_slice(&version.to_le_bytes());
            // Re-seal checksum so only the version differs.
            let body_end = sealed.len() - 8;
            let sum = fnv1a64(&sealed[..body_end]);
            sealed[body_end..].copy_from_slice(&sum.to_le_bytes());
            match unseal(&sealed) {
                Err(CheckpointError::UnsupportedVersion { found }) => assert_eq!(found, version),
                other => panic!("version {version}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn store_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ge-recover-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        store_checkpoint(&path, 42, b"state").unwrap();
        let (digest, payload) = load_checkpoint(&path).unwrap();
        assert_eq!(digest, 42);
        assert_eq!(payload, b"state");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_checkpoint(Path::new("/nonexistent/ckpt.bin")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
