//! Random-access container reading — the consumer the v3/v4 footer was
//! designed for (`docs/FORMAT.md`, "Footer-driven random access").
//!
//! [`decode_model`](crate::pipeline::decode_model) walks a container
//! sequentially and authenticates every byte before decoding anything.
//! That is the right posture for a bulk decode, but edge serving (§6 of
//! the paper) wants the opposite: open a multi-hundred-MB container in
//! microseconds and decode *one* layer on demand without touching the
//! rest. [`SeekableContainer`] does exactly that:
//!
//! * **Open** reads only the 5-byte header, the 20-byte trailer, the
//!   layer-count varint, and the footer — O(layers), not O(bytes) —
//!   through the framing reader the sequential parse uses, so both apply
//!   the same span rules (records contiguous from the header, v4-aligned,
//!   the last one ending at the footer; the count bounded by the footer).
//!   No record byte is read or hashed.
//! * **`layer(i)`** reads record `i`'s span via its footer entry and
//!   checks it with the sequential parse's per-record verifier — the v4
//!   ordinal-tagged full-span FNV when present, an exact-fill parse,
//!   always the per-blob FNVs — then decodes it through the
//!   [`DataCodec`](crate::codec::DataCodec) registry. Only the
//!   whole-container FNV and the zero padding between v4 records are
//!   left to the full parse.
//!
//! The byte source is abstracted behind [`ByteSource`] so the same
//! reader serves borrowed in-memory bytes (zero-copy slicing, the
//! mmap-style path) and an on-disk file ([`FileSource`], positional
//! reads, no mmap dependency). What the lazy path does and does not
//! guarantee per container version is spelled out in
//! `docs/ROBUSTNESS.md` ("Lazy per-layer verification").

// Containers are untrusted input: every malformed byte must surface as a
// `DeepSzError`, never a panic (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::pipeline::{
    decode_record, read_framing, verify_record, DecodedLayer, Framing, RecordEntry,
};
use crate::DeepSzError;
use std::borrow::Cow;
use std::fs::File;
use std::path::Path;

/// Positional access to container bytes.
///
/// `read_at` returns exactly `len` bytes starting at `off` — borrowed
/// when the source is already in memory (the `&[u8]` impl never copies),
/// owned when it has to be fetched (files). Implementations must treat
/// short reads as errors; the reader's bounds come from an untrusted
/// footer, so "off the end" is a corruption signal, not EOF.
pub trait ByteSource {
    /// Total size of the container in bytes.
    fn len(&self) -> usize;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exactly `len` bytes starting at `off`.
    fn read_at(&self, off: usize, len: usize) -> Result<Cow<'_, [u8]>, DeepSzError>;
}

impl ByteSource for &[u8] {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn read_at(&self, off: usize, len: usize) -> Result<Cow<'_, [u8]>, DeepSzError> {
        let end = off
            .checked_add(len)
            .ok_or_else(|| DeepSzError::BadContainer("read span overflows".into()))?;
        self.get(off..end)
            .map(Cow::Borrowed)
            .ok_or_else(|| DeepSzError::BadContainer("read past end of container".into()))
    }
}

/// A container file read with positional I/O (`pread`), so concurrent
/// `layer(i)` calls need no seek coordination and nothing is mapped or
/// buffered beyond the requested spans.
#[derive(Debug)]
pub struct FileSource {
    file: File,
    len: usize,
}

impl FileSource {
    /// Opens `path` read-only and snapshots its length.
    pub fn open(path: &Path) -> Result<Self, DeepSzError> {
        let file = File::open(path)
            .map_err(|e| DeepSzError::BadContainer(format!("open {}: {e}", path.display())))?;
        let meta = file
            .metadata()
            .map_err(|e| DeepSzError::BadContainer(format!("stat {}: {e}", path.display())))?;
        let len = usize::try_from(meta.len())
            .map_err(|_| DeepSzError::BadContainer("container larger than address space".into()))?;
        Ok(Self { file, len })
    }
}

impl ByteSource for FileSource {
    fn len(&self) -> usize {
        self.len
    }

    fn read_at(&self, off: usize, len: usize) -> Result<Cow<'_, [u8]>, DeepSzError> {
        let end = off
            .checked_add(len)
            .ok_or_else(|| DeepSzError::BadContainer("read span overflows".into()))?;
        if end > self.len {
            return Err(DeepSzError::BadContainer(
                "read past end of container".into(),
            ));
        }
        let mut buf = vec![0u8; len];
        {
            #[cfg(unix)]
            {
                use std::os::unix::fs::FileExt;
                self.file
                    .read_exact_at(&mut buf, off as u64)
                    .map_err(|e| DeepSzError::BadContainer(format!("read at {off}: {e}")))?;
            }
            #[cfg(not(unix))]
            {
                use std::io::{Read, Seek, SeekFrom};
                let mut f = (&self.file)
                    .try_clone()
                    .map_err(|e| DeepSzError::BadContainer(format!("clone file handle: {e}")))?;
                f.seek(SeekFrom::Start(off as u64))
                    .and_then(|_| f.read_exact(&mut buf))
                    .map_err(|e| DeepSzError::BadContainer(format!("read at {off}: {e}")))?;
            }
        }
        Ok(Cow::Owned(buf))
    }
}

/// A checksummed container opened for per-layer random access.
///
/// Open cost is O(layers); each [`layer`](Self::layer) call reads,
/// verifies, and decodes exactly one record. Only v3 and v4 containers
/// are seekable (v1/v2 have no footer index — use
/// [`decode_model`](crate::decode_model) for those).
#[derive(Debug)]
pub struct SeekableContainer<S: ByteSource> {
    source: S,
    version: u8,
    entries: Vec<RecordEntry>,
}

impl<'a> SeekableContainer<&'a [u8]> {
    /// Opens a container borrowed in memory (the mmap-style zero-copy
    /// path): record slices are served straight out of `bytes`.
    pub fn open_slice(bytes: &'a [u8]) -> Result<Self, DeepSzError> {
        Self::open(bytes)
    }
}

impl SeekableContainer<FileSource> {
    /// Opens a container file for positional-read random access.
    pub fn open_file(path: &Path) -> Result<Self, DeepSzError> {
        Self::open(FileSource::open(path)?)
    }
}

impl<S: ByteSource> SeekableContainer<S> {
    /// Validates the header, trailer, and footer index — and nothing
    /// else. No record byte is read or hashed here; integrity of each
    /// record is established lazily by [`layer`](Self::layer).
    pub fn open(source: S) -> Result<Self, DeepSzError> {
        let Framing {
            version, entries, ..
        } = read_framing(&source, false)?;
        Ok(Self {
            source,
            version,
            entries,
        })
    }

    /// Number of layer records in the container.
    pub fn layer_count(&self) -> usize {
        self.entries.len()
    }

    /// Container format version (3 or 4).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Reads, verifies, and decodes layer `i` — and only layer `i`.
    ///
    /// The record goes through the sequential parser's own per-record
    /// check: the v4 full-span digest first (cheap, covers every header
    /// field), then the record parse with exact-span consumption, then
    /// the per-blob FNVs, and only then decompression. On v3 the span
    /// digest does not exist on the wire, so corruption of non-blob
    /// header fields is caught by parse/decode cross-checks rather than
    /// a checksum — see `docs/ROBUSTNESS.md` for the exact guarantee
    /// ladder.
    pub fn layer(&self, i: usize) -> Result<DecodedLayer, DeepSzError> {
        let entry = self.entries.get(i).ok_or_else(|| {
            DeepSzError::BadContainer(format!(
                "layer {i} out of range ({} layers)",
                self.entries.len()
            ))
        })?;
        let bytes = self.source.read_at(entry.off, entry.len)?;
        let record = verify_record(&bytes, i, entry, self.version)?;
        decode_record(&record).map(|(layer, _)| layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_is_zero_copy() {
        let bytes = [1u8, 2, 3, 4];
        let src: &[u8] = &bytes;
        match src.read_at(1, 2).unwrap() {
            Cow::Borrowed(s) => assert_eq!(s, &[2, 3]),
            Cow::Owned(_) => panic!("slice source must borrow"),
        }
    }

    #[test]
    fn slice_source_rejects_out_of_bounds_reads() {
        let bytes = [0u8; 8];
        let src: &[u8] = &bytes;
        assert!(src.read_at(4, 8).is_err());
        assert!(src.read_at(usize::MAX, 2).is_err());
    }

    #[test]
    fn garbage_is_rejected_at_open() {
        assert!(SeekableContainer::open_slice(&[0u8; 64]).is_err());
        assert!(SeekableContainer::open_slice(b"DSZM").is_err());
    }
}
