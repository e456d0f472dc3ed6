//! The content-addressed result cache (`results/cache/`).
//!
//! Layout: one file per run, named `<fingerprint-hex>.json`, wrapping
//! the canonical record payload with its own identity and an FNV-64
//! checksum of the payload text:
//!
//! ```json
//! {
//!   "fingerprint": "<32 hex digits>",
//!   "key": "rev=1|workload|…",
//!   "checksum": "<16 hex digits>",
//!   "record": { … }
//! }
//! ```
//!
//! The `key` field is informational (it makes cache entries greppable
//! and lets a human audit what a fingerprint stands for); identity is
//! the fingerprint. A load verifies (1) the stored fingerprint matches
//! the requested one, (2) re-serializing the parsed record reproduces
//! the text the checksum was taken over. Any mismatch — truncation, a
//! flipped byte, a stale schema — makes the entry a *miss*, so corrupt
//! files cause a re-run, never a wrong result.
//!
//! A miss says why: a payload the strict reader rejects although the
//! checksum still verifies over it *as stored* is an intact file in an
//! older record format ([`Miss::Stale`], e.g. written before a `Stats`
//! counter existed); anything else is damage ([`Miss::Corrupt`]).

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use ghostwriter_core::Json;

use crate::fingerprint::{fnv64, Fingerprint};

/// A payload the cache can store: any type with a canonical JSON form
/// whose serializer and parser are strict inverses (re-serializing a
/// parsed record must reproduce the stored bytes — that is what the
/// checksum verifies). [`crate::record::RunRecord`] is the experiment
/// engine's payload; the model checker caches its sweeps through
/// the same trait.
pub trait CacheRecord: Sized {
    /// Canonical JSON payload.
    fn to_json(&self) -> Json;
    /// Strict inverse of [`CacheRecord::to_json`].
    fn from_json(doc: &Json) -> Result<Self, String>;
    /// Canonical serialized form (what the cache stores and checksums).
    fn canonical_text(&self) -> String {
        self.to_json().to_pretty()
    }
}

/// Handle on one cache directory.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

/// Why a lookup did not produce a record (callers mostly only care that
/// it didn't, but the sweep log reports corruption and format upgrades
/// distinctly).
#[derive(Debug, PartialEq, Eq)]
pub enum Miss {
    /// No file for this fingerprint.
    Absent,
    /// File intact (its checksum verifies over the stored payload) but
    /// in a record format the strict reader no longer accepts; it will
    /// be re-run.
    Stale(String),
    /// File present but unreadable/inconsistent; it will be re-run.
    Corrupt(String),
}

impl ResultCache {
    /// Opens (and lazily creates) a cache under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The default on-repo location.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results/cache")
    }

    /// File path for one fingerprint.
    pub fn path_of(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.json", fp.hex()))
    }

    /// Looks a fingerprint up, verifying integrity.
    pub fn load<R: CacheRecord>(&self, fp: Fingerprint) -> Result<R, Miss> {
        let path = self.path_of(fp);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(Miss::Absent),
            Err(e) => return Err(Miss::Corrupt(format!("read {}: {e}", path.display()))),
        };
        Self::decode(fp, &text)
    }

    fn decode<R: CacheRecord>(fp: Fingerprint, text: &str) -> Result<R, Miss> {
        let corrupt = |e: &dyn std::fmt::Display| Miss::Corrupt(e.to_string());
        let doc = Json::parse(text).map_err(|e| corrupt(&e))?;
        let stored_fp = doc
            .field("fingerprint")
            .and_then(|f| f.as_str().map(str::to_string))
            .map_err(|e| corrupt(&e))?;
        if stored_fp != fp.hex() {
            return Err(Miss::Corrupt(format!(
                "fingerprint mismatch: file says {stored_fp}"
            )));
        }
        let stored_sum = doc
            .field("checksum")
            .and_then(|f| f.as_str().map(str::to_string))
            .map_err(|e| corrupt(&e))?;
        let payload = doc.field("record").map_err(|e| corrupt(&e))?;
        let record = R::from_json(payload).map_err(|why| {
            // The writer that stored this file checksummed its own
            // canonical payload text, and the JSON writer is canonical,
            // so an undamaged payload re-serializes to exactly that text
            // whatever record format it is in.
            let stored = format!("{:016x}", fnv64(payload.to_pretty().as_bytes()));
            if stored == stored_sum {
                Miss::Stale(why)
            } else {
                Miss::Corrupt(why)
            }
        })?;
        // The checksum was taken over the canonical payload text; the
        // canonical writer makes re-serialization reproduce it exactly,
        // so any in-file tampering (in the payload *or* the checksum)
        // surfaces here.
        let actual = format!("{:016x}", fnv64(record.canonical_text().as_bytes()));
        if actual != stored_sum {
            return Err(Miss::Corrupt(format!(
                "checksum mismatch: stored {stored_sum}, computed {actual}"
            )));
        }
        Ok(record)
    }

    /// Stores a record under its fingerprint. The write goes through a
    /// temp file + rename so a crash mid-write leaves either the old
    /// entry or none — a torn file would anyway be caught as `Corrupt`.
    pub fn store<R: CacheRecord>(
        &self,
        fp: Fingerprint,
        key: &str,
        record: &R,
    ) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let payload = record.canonical_text();
        let mut doc = Json::obj();
        doc.push("fingerprint", Json::Str(fp.hex()));
        doc.push("key", Json::Str(key.to_string()));
        doc.push(
            "checksum",
            Json::Str(format!("{:016x}", fnv64(payload.as_bytes()))),
        );
        doc.push("record", record.to_json());
        let text = doc.to_pretty();
        let tmp = self.dir.join(format!(".{}.tmp", fp.hex()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
        }
        fs::rename(&tmp, self.path_of(fp))
    }

    /// Deletes every cache entry; returns how many files went away.
    pub fn clean(&self) -> std::io::Result<usize> {
        let mut n = 0;
        match fs::read_dir(&self.dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
            Ok(entries) => {
                for entry in entries {
                    let path = entry?.path();
                    if path.extension().is_some_and(|e| e == "json") {
                        fs::remove_file(&path)?;
                        n += 1;
                    }
                }
            }
        }
        Ok(n)
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
