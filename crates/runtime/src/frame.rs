//! Shared wire framing: CRC32-sealed payloads behind a length prefix.
//!
//! Both wire protocols in this workspace — the distributed-training
//! transport ([`crate::transport`]) and the serving front-end
//! (`latte-serve`'s `net` module) — move discrete messages over byte
//! streams with the same two conventions:
//!
//! 1. **Length prefix**: every message is preceded by its byte length as
//!    a little-endian `u32`, so a reader always knows how much to pull
//!    off the stream before it can act, and an oversized prefix is
//!    rejected *before* any allocation ([`read_frame`]'s `max_len`).
//! 2. **CRC32 seal**: the message body carries a CRC32 trailer computed
//!    by the same [`crate::checkpoint::crc32`] that guards checkpoints,
//!    so a flipped bit anywhere in the body is caught at the receiver
//!    ([`verify`]) instead of silently corrupting gradients or
//!    inference results.
//!
//! The two layers compose but are independent: [`seal`]/[`verify`] are
//! pure byte transforms, [`write_frame`]/[`read_frame`] are the stream
//! I/O. The transport's [`crate::transport::Frame`] seals its own
//! encoded header+payload; the serving protocol seals each message
//! body; sealed files (checkpoints, the tuning cache) reach disk through
//! the one atomic writer, [`write_atomic`]. Corruption surfaces as [`FrameIntegrity::BadCrc`], the signal
//! both protocols treat as retryable-or-fatal per their own policy.

use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::checkpoint::crc32;

/// Byte length of the CRC32 trailer appended by [`seal`].
pub const CRC_LEN: usize = 4;

/// Byte length of the `u32` length prefix written by [`write_frame`].
pub const LEN_PREFIX: usize = 4;

/// Why a sealed byte string failed [`verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameIntegrity {
    /// Shorter than the CRC trailer itself.
    Truncated,
    /// CRC32 trailer mismatch: the body was corrupted in flight.
    BadCrc,
}

impl fmt::Display for FrameIntegrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameIntegrity::Truncated => write!(f, "frame shorter than its CRC trailer"),
            FrameIntegrity::BadCrc => write!(f, "frame CRC mismatch (corrupted in flight)"),
        }
    }
}

impl std::error::Error for FrameIntegrity {}

/// Appends the CRC32 trailer to `body`, consuming it: the returned
/// bytes are `body ++ crc32(body)` in little-endian.
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Checks the CRC32 trailer of a [`seal`]ed byte string and returns the
/// body with the trailer stripped.
///
/// # Errors
///
/// [`FrameIntegrity::Truncated`] when `bytes` cannot even hold the
/// trailer, [`FrameIntegrity::BadCrc`] on checksum mismatch.
pub fn verify(bytes: &[u8]) -> Result<&[u8], FrameIntegrity> {
    if bytes.len() < CRC_LEN {
        return Err(FrameIntegrity::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - CRC_LEN);
    let want = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(body) != want {
        return Err(FrameIntegrity::BadCrc);
    }
    Ok(body)
}

/// Writes one length-prefixed frame (`u32` LE length, then the bytes)
/// and flushes the stream.
///
/// # Errors
///
/// Any I/O error from the underlying stream.
pub fn write_frame(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one length-prefixed frame, refusing prefixes above `max_len`
/// before allocating anything (the defense against a hostile peer
/// advertising a multi-gigabyte frame).
///
/// # Errors
///
/// `InvalidData` for an oversized prefix; otherwise any I/O error from
/// the underlying stream (`UnexpectedEof` on a peer that hung up
/// mid-frame, `WouldBlock`/`TimedOut` when a read timeout is armed).
pub fn read_frame(r: &mut impl Read, max_len: usize) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; LEN_PREFIX];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("oversized wire frame: {len} bytes (cap {max_len})"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Replaces `path` with the concatenation of `parts`, atomically: the
/// bytes land in the sibling [`tmp_path`], are synced to disk, and are
/// renamed over `path`, so a crash mid-write leaves the previous file
/// intact (at worst a stale `*.tmp` that readers never look at).
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming.
pub fn write_atomic(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = std::fs::File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // The rename survives a crash only once its directory entry does.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// The sibling temporary path [`write_atomic`] writes through:
/// `path` with `.tmp` appended to its file name.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "sealed".into());
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_verify_roundtrip() {
        let body = b"the latte serving protocol".to_vec();
        let sealed = seal(body.clone());
        assert_eq!(sealed.len(), body.len() + CRC_LEN);
        assert_eq!(verify(&sealed).unwrap(), &body[..]);
        // Empty bodies are legal (control messages).
        let sealed = seal(Vec::new());
        assert_eq!(verify(&sealed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        // The corruption negative control: any single flipped bit in a
        // sealed frame — body or trailer — must fail verification.
        let sealed = seal(vec![0x00, 0xFF, 0x5A, 0xA5, 0x3C]);
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    verify(&bad),
                    Err(FrameIntegrity::BadCrc),
                    "flipping bit {bit} of byte {byte} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_seal_is_structured() {
        assert_eq!(verify(&[]), Err(FrameIntegrity::Truncated));
        assert_eq!(verify(&[1, 2, 3]), Err(FrameIntegrity::Truncated));
    }

    #[test]
    fn stream_roundtrip_and_oversize_refusal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"beta").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"beta");
        assert_eq!(
            read_frame(&mut r, 64).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // A hostile length prefix is refused before allocation.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 32]).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 16).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_stream_is_an_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"incomplete").unwrap();
        buf.truncate(buf.len() - 3); // peer died mid-frame
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 64).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }
}
