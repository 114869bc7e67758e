//! Parameter checkpointing: a minimal self-describing binary format for
//! saving and restoring trained weights, hardened for crash-safety.
//!
//! Layout (version 2): magic `LATTEwt2`, a little-endian u32 flags word
//! (bit 0: training metadata present; bit 1: solver state present),
//! optional metadata (epoch u64, global iteration u64,
//! iteration-within-epoch u64, last loss f32), a u32 entry count, then
//! per entry a u32 name length, the UTF-8 buffer name, a u32 element
//! count, and the raw little-endian f32 data; when bit 1 is set, a
//! solver-state section (u32 kind length + UTF-8 kind tag, iteration
//! u64, u32 group count, per group a u32 name length + UTF-8 name, a
//! u32 vector count, and per vector a u32 element count + raw
//! little-endian f32 data); finally a CRC32 (IEEE) of everything after
//! the magic. The solver section trails the weight entries, so readers
//! that only want weights ([`load_checkpoint`]) skip it for free.
//!
//! Writes are **atomic** ([`crate::frame::write_atomic`]): the payload
//! is serialized to a sibling temporary file, synced, and `rename`d into
//! place, so a crash mid-write leaves the previous checkpoint intact (at
//! worst a stale `*.tmp` sibling that readers never look at). Reads
//! verify the CRC before any byte is interpreted, so truncated or
//! bit-flipped files are rejected with a clear error instead of
//! restoring garbage weights.

use std::path::Path;

use crate::error::RuntimeError;
use crate::exec::Executor;
use crate::frame::{seal, write_atomic};
use crate::solver::SolverState;

/// Sibling temporary path the atomic write goes through (see
/// [`crate::frame::tmp_path`]); exposed for tests that simulate a crash
/// mid-write.
pub use crate::frame::tmp_path;

const MAGIC: &[u8; 8] = b"LATTEwt2";
const MAGIC_V1: &[u8; 8] = b"LATTEwts";
const FLAG_HAS_META: u32 = 1;
const FLAG_HAS_SOLVER: u32 = 2;

/// Training-progress metadata stored alongside the weights, used by the
/// supervisor to resume mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// Epoch the checkpoint was taken in.
    pub epoch: u64,
    /// Global iteration count at the checkpoint.
    pub iteration: u64,
    /// Iterations completed within the current epoch.
    pub epoch_iter: u64,
    /// Training loss at the checkpointed iteration.
    pub loss: f32,
}

/// CRC32 (IEEE 802.3, reflected) — the integrity check appended to every
/// checkpoint.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Serializes every learnable parameter of the executor (no training
/// metadata). See [`save_checkpoint`].
///
/// # Errors
///
/// Propagates I/O failures as [`RuntimeError::Io`].
pub fn save_params(exec: &Executor, path: impl AsRef<Path>) -> Result<(), RuntimeError> {
    save_checkpoint(exec, None, path)
}

/// Serializes every learnable parameter, plus optional training
/// metadata, atomically: the bytes land in a sibling `*.tmp` file that
/// is synced and renamed over `path`, and a CRC32 trailer lets
/// [`load_checkpoint`] verify integrity.
///
/// # Errors
///
/// Propagates I/O failures as [`RuntimeError::Io`] and unreadable
/// parameter buffers as their underlying error.
pub fn save_checkpoint(
    exec: &Executor,
    meta: Option<&CheckpointMeta>,
    path: impl AsRef<Path>,
) -> Result<(), RuntimeError> {
    save_checkpoint_full(exec, meta, None, path)
}

/// Serializes parameters, optional training metadata, and optional
/// solver state (momentum/accumulator buffers from
/// [`crate::solver::Solver::export_state`]) in one atomic checkpoint.
///
/// With the solver state restored via [`load_checkpoint_full`] +
/// [`crate::solver::Solver::import_state`], a stateful solver resumes on
/// the *bit-exact* update trajectory it would have followed without the
/// interruption.
///
/// # Errors
///
/// See [`save_checkpoint`].
pub fn save_checkpoint_full(
    exec: &Executor,
    meta: Option<&CheckpointMeta>,
    solver: Option<&SolverState>,
    path: impl AsRef<Path>,
) -> Result<(), RuntimeError> {
    let path = path.as_ref();
    let mut flags = 0u32;
    if meta.is_some() {
        flags |= FLAG_HAS_META;
    }
    if solver.is_some() {
        flags |= FLAG_HAS_SOLVER;
    }
    let mut payload = Vec::new();
    payload.extend_from_slice(&flags.to_le_bytes());
    if let Some(m) = meta {
        payload.extend_from_slice(&m.epoch.to_le_bytes());
        payload.extend_from_slice(&m.iteration.to_le_bytes());
        payload.extend_from_slice(&m.epoch_iter.to_le_bytes());
        payload.extend_from_slice(&m.loss.to_le_bytes());
    }
    let names: Vec<String> = exec.params().iter().map(|p| p.value.clone()).collect();
    payload.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in &names {
        let data = exec.read_buffer(name)?;
        payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(&(data.len() as u32).to_le_bytes());
        for v in &data {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    if let Some(s) = solver {
        payload.extend_from_slice(&(s.kind.len() as u32).to_le_bytes());
        payload.extend_from_slice(s.kind.as_bytes());
        payload.extend_from_slice(&s.iter.to_le_bytes());
        payload.extend_from_slice(&(s.groups.len() as u32).to_le_bytes());
        for (group, vecs) in &s.groups {
            payload.extend_from_slice(&(group.len() as u32).to_le_bytes());
            payload.extend_from_slice(group.as_bytes());
            payload.extend_from_slice(&(vecs.len() as u32).to_le_bytes());
            for v in vecs {
                payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for x in v {
                    payload.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }
    write_atomic(path, &[MAGIC, &seal(payload)])
        .map_err(|e| RuntimeError::io(format!("writing checkpoint `{}`", path.display()), e))
}

/// Restores parameters saved by [`save_params`]/[`save_checkpoint`] into
/// a (structurally compatible) executor. See [`load_checkpoint`].
///
/// # Errors
///
/// Fails on I/O errors, bad magic, checksum mismatches, or mismatched
/// buffer sizes.
pub fn load_params(exec: &mut Executor, path: impl AsRef<Path>) -> Result<(), RuntimeError> {
    load_checkpoint(exec, path).map(|_| ())
}

/// Restores parameters and returns the training metadata, when present.
/// The CRC32 trailer is verified before any byte of the payload is
/// interpreted, so truncated or corrupted files are rejected whole.
/// Buffers present in the file but absent from the executor are an
/// error; executor parameters missing from the file are left untouched.
///
/// # Errors
///
/// Fails on I/O errors, bad magic, checksum mismatches, or mismatched
/// buffer sizes.
pub fn load_checkpoint(
    exec: &mut Executor,
    path: impl AsRef<Path>,
) -> Result<Option<CheckpointMeta>, RuntimeError> {
    load_checkpoint_full(exec, path).map(|(meta, _)| meta)
}

/// Restores parameters and returns both the training metadata and the
/// solver state, when present. Pass the state to
/// [`crate::solver::Solver::import_state`] to resume a stateful solver
/// bit-exactly.
///
/// # Errors
///
/// See [`load_checkpoint`].
pub fn load_checkpoint_full(
    exec: &mut Executor,
    path: impl AsRef<Path>,
) -> Result<(Option<CheckpointMeta>, Option<SolverState>), RuntimeError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| RuntimeError::io(format!("reading checkpoint `{}`", path.display()), e))?;
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(RuntimeError::Malformed {
            detail: format!(
                "checkpoint `{}` is truncated ({} bytes — too short for header and checksum)",
                path.display(),
                bytes.len()
            ),
        });
    }
    let (magic, rest) = bytes.split_at(MAGIC.len());
    if magic != MAGIC {
        let detail = if magic == MAGIC_V1 {
            format!(
                "checkpoint `{}` uses the legacy un-checksummed v1 format; re-save it with this version",
                path.display()
            )
        } else {
            format!("`{}` is not a latte checkpoint (bad magic)", path.display())
        };
        return Err(RuntimeError::Malformed { detail });
    }
    let (payload, crc_bytes) = rest.split_at(rest.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(RuntimeError::Malformed {
            detail: format!(
                "checkpoint `{}` failed its integrity check \
                 (stored crc32 {stored:#010x}, computed {computed:#010x}); \
                 the file is truncated or corrupted",
                path.display()
            ),
        });
    }

    let mut cur = Cursor::new(payload);
    let flags = cur.u32()?;
    let meta = if flags & FLAG_HAS_META != 0 {
        Some(CheckpointMeta {
            epoch: cur.u64()?,
            iteration: cur.u64()?,
            epoch_iter: cur.u64()?,
            loss: cur.f32()?,
        })
    } else {
        None
    };
    let count = cur.u32()? as usize;
    for _ in 0..count {
        let name_len = cur.u32()? as usize;
        let name = String::from_utf8(cur.take(name_len)?.to_vec()).map_err(|_| {
            RuntimeError::Malformed {
                detail: "checkpoint contains a non-UTF-8 buffer name".to_string(),
            }
        })?;
        let len = cur.u32()? as usize;
        let raw = cur.take(len * 4)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        exec.write_buffer(&name, &data)?;
    }
    let solver = if flags & FLAG_HAS_SOLVER != 0 {
        let kind_len = cur.u32()? as usize;
        let kind = String::from_utf8(cur.take(kind_len)?.to_vec()).map_err(|_| {
            RuntimeError::Malformed {
                detail: "checkpoint contains a non-UTF-8 solver kind".to_string(),
            }
        })?;
        let iter = cur.u64()?;
        let group_count = cur.u32()? as usize;
        let mut groups = Vec::with_capacity(group_count);
        for _ in 0..group_count {
            let name_len = cur.u32()? as usize;
            let name = String::from_utf8(cur.take(name_len)?.to_vec()).map_err(|_| {
                RuntimeError::Malformed {
                    detail: "checkpoint contains a non-UTF-8 solver group name".to_string(),
                }
            })?;
            let vec_count = cur.u32()? as usize;
            let mut vecs = Vec::with_capacity(vec_count);
            for _ in 0..vec_count {
                let len = cur.u32()? as usize;
                let raw = cur.take(len * 4)?;
                vecs.push(
                    raw.chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                );
            }
            groups.push((name, vecs));
        }
        Some(SolverState { kind, iter, groups })
    } else {
        None
    };
    Ok((meta, solver))
}

/// Bounds-checked little-endian reader over the verified payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RuntimeError> {
        if self.pos + n > self.data.len() {
            return Err(RuntimeError::Malformed {
                detail: format!(
                    "checkpoint payload ends early (wanted {n} bytes at offset {}, have {})",
                    self.pos,
                    self.data.len() - self.pos
                ),
            });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, RuntimeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, RuntimeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, RuntimeError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::{compile, OptLevel};
    use latte_nn::models::{mlp, ModelConfig};

    fn build() -> Executor {
        let cfg = ModelConfig {
            batch: 2,
            input_size: 6,
            channel_div: 1,
            classes: 3,
            with_loss: true,
            seed: 7,
        };
        Executor::new(compile(&mlp(&cfg, &[4]).net, &OptLevel::full()).unwrap()).unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("latte_ckpt_{tag}"));
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip_restores_weights() {
        let path = temp_dir("roundtrip").join("w.bin");
        let mut a = build();
        // Perturb, save, rebuild, load, compare.
        let w0 = a.read_buffer("ip1.weights").unwrap();
        let perturbed: Vec<f32> = w0.iter().map(|x| x + 1.5).collect();
        a.write_buffer("ip1.weights", &perturbed).unwrap();
        save_params(&a, &path).unwrap();
        let mut b = build();
        assert_ne!(b.read_buffer("ip1.weights").unwrap(), perturbed);
        load_params(&mut b, &path).unwrap();
        assert_eq!(b.read_buffer("ip1.weights").unwrap(), perturbed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn meta_roundtrips() {
        let path = temp_dir("meta").join("m.bin");
        let exec = build();
        let meta = CheckpointMeta {
            epoch: 3,
            iteration: 123,
            epoch_iter: 7,
            loss: 0.625,
        };
        save_checkpoint(&exec, Some(&meta), &path).unwrap();
        let mut b = build();
        let restored = load_checkpoint(&mut b, &path).unwrap();
        assert_eq!(restored, Some(meta));
        // Plain param saves restore no metadata.
        save_params(&exec, &path).unwrap();
        assert_eq!(load_checkpoint(&mut b, &path).unwrap(), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_dir("magic").join("junk.bin");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let mut e = build();
        let err = load_params(&mut e, &path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_v1_magic_gets_specific_error() {
        let path = temp_dir("v1").join("old.bin");
        let mut bytes = b"LATTEwts".to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &bytes).unwrap();
        let mut e = build();
        let err = load_params(&mut e, &path).unwrap_err();
        assert!(err.to_string().contains("legacy"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_rejected() {
        let path = temp_dir("trunc").join("w.bin");
        let exec = build();
        save_params(&exec, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [5usize, 13, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut e = build();
            let err = load_params(&mut e, &path).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("truncated") || msg.contains("integrity"),
                "cut at {cut}: {msg}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_byte_fails_integrity_check() {
        let path = temp_dir("flip").join("w.bin");
        let exec = build();
        save_params(&exec, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Flip one payload byte and separately one CRC byte.
        for idx in [good.len() / 2, good.len() - 2] {
            let mut bad = good.clone();
            bad[idx] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let mut e = build();
            let err = load_params(&mut e, &path).unwrap_err();
            assert!(err.to_string().contains("integrity"), "byte {idx}: {err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_write_leaves_previous_checkpoint_valid() {
        let dir = temp_dir("crash");
        let path = dir.join("w.bin");
        let mut exec = build();
        let w0 = exec.read_buffer("ip1.weights").unwrap();
        save_params(&exec, &path).unwrap();

        // Simulate dying mid-write of the *next* checkpoint: a partial
        // temp file appears next to the good checkpoint and is never
        // renamed into place.
        let perturbed: Vec<f32> = w0.iter().map(|x| x + 9.0).collect();
        exec.write_buffer("ip1.weights", &perturbed).unwrap();
        std::fs::write(tmp_path(&path), b"LATTEwt2 partial garbage").unwrap();

        // The good checkpoint still loads the original weights.
        let mut fresh = build();
        load_params(&mut fresh, &path).unwrap();
        assert_eq!(fresh.read_buffer("ip1.weights").unwrap(), w0);

        // A subsequent successful save replaces the temp file and the
        // checkpoint atomically.
        save_params(&exec, &path).unwrap();
        assert!(!tmp_path(&path).exists(), "temp file must be renamed away");
        let mut newer = build();
        load_params(&mut newer, &path).unwrap();
        assert_eq!(newer.read_buffer("ip1.weights").unwrap(), perturbed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error_with_source() {
        use std::error::Error;
        let mut e = build();
        let err = load_params(&mut e, temp_dir("missing").join("nope.bin")).unwrap_err();
        match &err {
            RuntimeError::Io { source, .. } => {
                assert!(source.is_some());
                assert!(err.source().is_some(), "source chain must be exposed");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn solver_state_roundtrips() {
        let path = temp_dir("solver").join("s.bin");
        let exec = build();
        let state = SolverState {
            kind: "sgd".into(),
            iter: 42,
            groups: vec![("velocity".into(), vec![vec![0.5, -0.25], vec![], vec![1.0]])],
        };
        let meta = CheckpointMeta {
            epoch: 1,
            iteration: 42,
            epoch_iter: 2,
            loss: 0.125,
        };
        save_checkpoint_full(&exec, Some(&meta), Some(&state), &path).unwrap();

        let mut b = build();
        let (restored_meta, restored_state) = load_checkpoint_full(&mut b, &path).unwrap();
        assert_eq!(restored_meta, Some(meta));
        assert_eq!(restored_state, Some(state));

        // Weight-only readers skip the trailing solver section.
        let mut c = build();
        assert_eq!(load_checkpoint(&mut c, &path).unwrap(), Some(meta));

        // A checkpoint without solver state restores None.
        save_checkpoint(&exec, Some(&meta), &path).unwrap();
        let (_, none_state) = load_checkpoint_full(&mut b, &path).unwrap();
        assert_eq!(none_state, None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
