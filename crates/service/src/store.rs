//! Pluggable result backends: where completed campaign records live.
//!
//! A [`ResultStore`] persists [`CampaignRecord`]s by id. Two backends
//! ship:
//!
//! * [`MemStore`] — a process-local map; results live exactly as long as
//!   the service.
//! * [`JournalStore`] — an append-only on-disk journal. Every `put`
//!   appends one length- and checksum-framed JSON record and flushes;
//!   nothing is ever rewritten in place, so a crash can only ever damage
//!   the *tail* of the file. On open, recovery replays the journal,
//!   stops at the first incomplete or corrupt frame, and truncates the
//!   file back to the last intact frame — every campaign whose `put`
//!   completed is recovered, deterministically.
//!
//! # Journal frame format
//!
//! ```text
//! ERASER-REC <payload-len> <fnv1a-64-hex>\n
//! <payload bytes>\n
//! ```
//!
//! The payload is the record's compact JSON. The checksum is FNV-1a over
//! the payload bytes; a frame whose header is malformed, whose payload is
//! short, or whose checksum mismatches ends recovery at the previous
//! frame boundary. A frame that passes all three but whose payload this
//! build cannot decode (say, a record whose spec carries a key since
//! removed) is *not* damage: it is skipped, left in the file, and replay
//! continues after it.

use crate::record::CampaignRecord;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A result-backend failure (I/O or corrupt data outside the recoverable
/// journal tail).
#[derive(Debug)]
pub struct StoreError {
    /// What went wrong.
    pub message: String,
}

impl StoreError {
    fn new(message: impl Into<String>) -> Self {
        StoreError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "result store error: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

/// A persistence backend for completed campaign records.
///
/// Contract (exercised by the shared conformance suite in
/// `tests/store_conformance.rs`):
///
/// * `get` of an unknown id is `Ok(None)`, never an error;
/// * `put` followed by `get` returns a record comparing equal — coverage
///   detections and every stats counter bit-identical;
/// * `put` with an existing id replaces that record;
/// * `ids` lists each stored id exactly once, in first-`put` order.
pub trait ResultStore: Send {
    /// Persists `record`, replacing any previous record with the same id.
    fn put(&mut self, record: &CampaignRecord) -> Result<(), StoreError>;

    /// Looks up a record by id.
    fn get(&self, id: &str) -> Result<Option<CampaignRecord>, StoreError>;

    /// All stored ids, each once, in first-`put` order.
    fn ids(&self) -> Vec<String>;
}

/// The in-memory backend: a map, nothing more.
#[derive(Debug, Default)]
pub struct MemStore {
    records: HashMap<String, CampaignRecord>,
    order: Vec<String>,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResultStore for MemStore {
    fn put(&mut self, record: &CampaignRecord) -> Result<(), StoreError> {
        if self
            .records
            .insert(record.id.clone(), record.clone())
            .is_none()
        {
            self.order.push(record.id.clone());
        }
        Ok(())
    }

    fn get(&self, id: &str) -> Result<Option<CampaignRecord>, StoreError> {
        Ok(self.records.get(id).cloned())
    }

    fn ids(&self) -> Vec<String> {
        self.order.clone()
    }
}

/// Frame header magic; doubles as a human-readable file signature.
const FRAME_MAGIC: &str = "ERASER-REC";

/// FNV-1a 64-bit, the journal's payload checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The append-only on-disk backend (see the module docs for the frame
/// format and recovery rule). Keeps a full in-memory index — the journal
/// is the durability layer, not the read path.
#[derive(Debug)]
pub struct JournalStore {
    path: PathBuf,
    file: File,
    records: HashMap<String, CampaignRecord>,
    order: Vec<String>,
}

impl JournalStore {
    /// Opens (or creates) the journal at `path`, replaying every intact
    /// frame and truncating any damaged tail.
    ///
    /// # Errors
    ///
    /// I/O failures opening, reading, or truncating the file. Tail
    /// damage is *not* an error — it is the crash case recovery exists
    /// for.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreError::new(format!("cannot open `{}`: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StoreError::new(format!("cannot read `{}`: {e}", path.display())))?;

        let mut records = HashMap::new();
        let mut order = Vec::new();
        let mut pos = 0usize;
        // Replay intact frames; the first damaged one ends the journal.
        while let Some((payload, next)) = read_frame(&bytes, pos) {
            // An intact frame this build cannot decode is skipped, never
            // truncated: the bytes are somebody's completed `put`.
            if let Some(record) = std::str::from_utf8(payload)
                .ok()
                .and_then(|text| CampaignRecord::from_json(text).ok())
            {
                if records.insert(record.id.clone(), record.clone()).is_none() {
                    order.push(record.id);
                }
            }
            pos = next;
        }
        if pos < bytes.len() {
            // Damaged tail (torn write): truncate back to the last intact
            // frame so future appends start from a clean boundary.
            file.set_len(pos as u64).map_err(|e| {
                StoreError::new(format!("cannot truncate `{}`: {e}", path.display()))
            })?;
        }
        file.seek(SeekFrom::Start(pos as u64))
            .map_err(|e| StoreError::new(format!("cannot seek `{}`: {e}", path.display())))?;
        Ok(JournalStore {
            path,
            file,
            records,
            order,
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads one frame at `pos`: its checksum-verified payload and the offset
/// of the next frame. `None` means end-of-journal: clean EOF *or* a
/// damaged frame (short, malformed header, checksum mismatch) — recovery
/// treats both as "the journal ends here".
fn read_frame(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    if pos >= bytes.len() {
        return None;
    }
    let header_end = pos + bytes[pos..].iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[pos..header_end]).ok()?;
    let mut parts = header.split(' ');
    if parts.next()? != FRAME_MAGIC {
        return None;
    }
    let len: usize = parts.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    let payload_start = header_end + 1;
    let payload_end = payload_start.checked_add(len)?;
    // The trailing newline must be present too — a payload that is intact
    // but lost its terminator is still a torn write.
    if payload_end >= bytes.len() || bytes[payload_end] != b'\n' {
        return None;
    }
    let payload = &bytes[payload_start..payload_end];
    if fnv1a(payload) != checksum {
        return None;
    }
    Some((payload, payload_end + 1))
}

impl ResultStore for JournalStore {
    fn put(&mut self, record: &CampaignRecord) -> Result<(), StoreError> {
        let payload = record.to_json();
        let frame = format!(
            "{FRAME_MAGIC} {} {:016x}\n{payload}\n",
            payload.len(),
            fnv1a(payload.as_bytes())
        );
        self.file
            .write_all(frame.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| {
                StoreError::new(format!("cannot append to `{}`: {e}", self.path.display()))
            })?;
        if self
            .records
            .insert(record.id.clone(), record.clone())
            .is_none()
        {
            self.order.push(record.id.clone());
        }
        Ok(())
    }

    fn get(&self, id: &str) -> Result<Option<CampaignRecord>, StoreError> {
        Ok(self.records.get(id).cloned())
    }

    fn ids(&self) -> Vec<String> {
        self.order.clone()
    }
}

/// Parses a CLI/server store selector: `mem` or `journal:PATH`.
///
/// # Errors
///
/// A usage message for anything else.
pub fn open_store(selector: &str) -> Result<Box<dyn ResultStore>, StoreError> {
    if selector == "mem" {
        return Ok(Box::new(MemStore::new()));
    }
    if let Some(path) = selector.strip_prefix("journal:") {
        if path.is_empty() {
            return Err(StoreError::new("journal store needs a path (journal:PATH)"));
        }
        return Ok(Box::new(JournalStore::open(path)?));
    }
    Err(StoreError::new(format!(
        "unknown result store `{selector}` (expected mem or journal:PATH)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn open_store_parses_selectors() {
        assert!(open_store("mem").is_ok());
        assert!(open_store("journal:").is_err());
        assert!(open_store("redis:x").is_err());
        let err = open_store("postgres").err().expect("selector rejected");
        assert!(err.message.contains("postgres"));
    }
}
