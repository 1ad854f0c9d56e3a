//! Disk-backed, content-addressed [`ProfileData`] snapshot store.
//!
//! A [`ProfileStore`] persists the expensive program-dependent half of
//! Algorithm 1 (the IIG plus Eq. 7/Eq. 12 precomputation) across process
//! restarts: a daemon started with `leqa serve --cache-dir DIR` comes up
//! *warm*, serving its first request for a previously-seen program
//! without re-running the profile passes.
//!
//! # Codec
//!
//! Snapshots use a hand-rolled binary codec (dependency-free, like the
//! [`json`](crate::json) module): a fixed magic + version header, the
//! canonical circuit text, the IIG's unique weighted edge list, and a
//! trailing FNV-1a checksum over every preceding byte. The profile
//! scalars (zone average, uncongested-delay terms) are *not* stored —
//! they are recomputed from the decoded IIG by
//! [`ProfileData::with_iig`], which is deterministic, so a loaded
//! snapshot is bit-identical to the profile the original process built.
//!
//! All integers are little-endian:
//!
//! ```text
//! magic      8 bytes   "LEQAPROF"
//! version    u32       1
//! source_len u32       canonical circuit text length
//! source     [u8]      canonical circuit text (UTF-8)
//! num_qubits u32
//! edge_count u32
//! edges      edge_count × (u32 lo, u32 hi, u64 weight)
//! checksum   u64       FNV-1a over every byte above
//! ```
//!
//! # Safety discipline
//!
//! The store reuses the session cache's lookup-verify contract: the file
//! name is the FNV-1a hash of the canonical source, and a load verifies
//! *both* the checksum and that the stored source matches the requesting
//! source — a hash collision or a stale file yields a typed
//! [`SnapshotError`], never some other program's profile. Writes go to a
//! temporary file first and are atomically renamed into place, so a
//! crash mid-write leaves either the old snapshot or none, never a torn
//! one. Corrupt snapshots are a *miss*, not a failure: the session
//! recomputes the profile and overwrites the bad file.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use leqa::ProfileData;
use leqa_circuit::Iig;

use crate::error::{ErrorKind, LeqaError};
use crate::session::fnv1a;

/// The 8-byte magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"LEQAPROF";

/// Snapshot codec version (bumped on incompatible layout changes; a
/// mismatch is a typed rejection, never a misparse).
pub const SNAPSHOT_VERSION: u32 = 1;

/// File extension of snapshot files inside the store directory.
pub const SNAPSHOT_EXT: &str = "leqa-snap";

/// Why a snapshot failed to load or save. Every variant is a *recoverable*
/// condition: the session treats any load error as a store miss and
/// recomputes the profile.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// No snapshot exists for the requested program.
    Missing,
    /// The underlying filesystem operation failed.
    Io(String),
    /// The file is too short to hold the header and checksum.
    Truncated,
    /// The magic prefix is wrong — not a snapshot file.
    BadMagic,
    /// The codec version is one this build does not speak.
    BadVersion(u32),
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch,
    /// The structure decoded but its contents are inconsistent
    /// (lengths disagree, edge endpoints out of range, bad UTF-8…).
    Malformed(String),
    /// The snapshot decoded cleanly but stores a *different* program
    /// than the one requested (stale file or FNV collision).
    SourceMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "no snapshot on disk"),
            SnapshotError::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a profile snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::SourceMismatch => {
                write!(
                    f,
                    "snapshot stores a different program (stale or hash collision)"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for LeqaError {
    fn from(err: SnapshotError) -> Self {
        LeqaError::new(ErrorKind::Io, err.to_string())
    }
}

/// Serializes one program's snapshot: canonical source + IIG edge list,
/// framed by the magic/version header and the trailing checksum.
///
/// The scalars derived from the IIG are recomputed at load time, so this
/// is the *complete* persistent form of a [`ProfileData`].
#[must_use]
pub fn encode_snapshot(source: &str, data: &ProfileData) -> Vec<u8> {
    let iig = data.iig();
    let edges: Vec<(u32, u32, u64)> = iig.edges().collect();
    let mut bytes = Vec::with_capacity(32 + source.len() + edges.len() * 16);
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(source.len() as u32).to_le_bytes());
    bytes.extend_from_slice(source.as_bytes());
    bytes.extend_from_slice(&iig.num_qubits().to_le_bytes());
    bytes.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for (lo, hi, w) in edges {
        bytes.extend_from_slice(&lo.to_le_bytes());
        bytes.extend_from_slice(&hi.to_le_bytes());
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Decodes a snapshot back into its canonical source and the rebuilt
/// [`ProfileData`] (bit-identical to the one that was encoded).
///
/// # Errors
///
/// Any [`SnapshotError`] variant except `Missing`/`Io`: truncation, bad
/// magic, unsupported version, checksum mismatch, or structural
/// inconsistency. Never panics on arbitrary input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(String, ProfileData), SnapshotError> {
    // Checksum first: everything else may be garbage.
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
        return Err(SnapshotError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if fnv1a(body) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }

    let mut cursor = Reader { body, pos: 0 };
    let magic = cursor.take(SNAPSHOT_MAGIC.len())?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = cursor.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let source_len = cursor.u32()? as usize;
    let source_bytes = cursor.take(source_len)?;
    let source = std::str::from_utf8(source_bytes)
        .map_err(|_| SnapshotError::Malformed("source is not UTF-8".into()))?
        .to_string();
    let num_qubits = cursor.u32()?;
    let edge_count = cursor.u32()? as usize;
    // 16 bytes per edge; guard the multiplication against crafted counts.
    if cursor.remaining() != edge_count.saturating_mul(16) {
        return Err(SnapshotError::Malformed(format!(
            "edge arena holds {} bytes, expected {} for {edge_count} edges",
            cursor.remaining(),
            edge_count.saturating_mul(16),
        )));
    }
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let lo = cursor.u32()?;
        let hi = cursor.u32()?;
        let w = cursor.u64()?;
        edges.push((lo, hi, w));
    }
    let iig = Iig::from_weighted_edges(num_qubits, edges)
        .map_err(|e| SnapshotError::Malformed(e.to_string()))?;
    Ok((source, ProfileData::with_iig(iig)))
}

/// Bounded little-endian reader over the checksummed body.
struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Process-unique suffix counter for temporary files, so concurrent
/// saves of the same program never clobber each other's partial writes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of content-addressed profile snapshots.
///
/// Each program's snapshot lives at `DIR/<fnv1a(source):016x>.leqa-snap`.
/// The store is safe to share between threads and between processes:
/// writes are atomic (tmp + rename) and loads verify content before
/// trusting it.
///
/// # Examples
///
/// ```
/// use leqa_api::store::ProfileStore;
/// use leqa_api::{ProgramSpec, Session};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("leqa-store-doc-{}", std::process::id()));
/// let warm = Session::builder().cache_dir(&dir).build()?;
/// warm.load(&ProgramSpec::bench("qft_4"))?.profile_data();
///
/// // A later process (here: a second session) comes up warm.
/// let restarted = Session::builder().cache_dir(&dir).build()?;
/// restarted.load(&ProgramSpec::bench("qft_4"))?.profile_data();
/// assert_eq!(restarted.cache_stats().profile_builds, 0);
/// assert_eq!(restarted.store_stats().store_hits, 1);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProfileStore {
    dir: PathBuf,
}

impl ProfileStore {
    /// Opens (creating if necessary) the snapshot directory.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SnapshotError::Io(format!("creating `{}`: {e}", dir.display())))?;
        Ok(ProfileStore { dir })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot path for a program's canonical source text.
    #[must_use]
    pub fn path_for(&self, source: &str) -> PathBuf {
        self.path_for_key(fnv1a(source.as_bytes()))
    }

    /// The snapshot path for a source whose content key `fnv1a(source)`
    /// is `key`.
    fn path_for_key(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{SNAPSHOT_EXT}"))
    }

    /// Loads the snapshot for `source`, verifying the checksum and that
    /// the stored program *is* `source` (lookup-verify: a stale file or
    /// hash collision is rejected, never served).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Missing`] when no file exists; any other variant
    /// when the file exists but cannot be trusted. Callers treat every
    /// error as a miss and recompute.
    pub fn load(&self, source: &str) -> Result<ProfileData, SnapshotError> {
        self.load_keyed(fnv1a(source.as_bytes()), source)
    }

    /// [`load`](Self::load) for a caller that already holds the source's
    /// content key, `fnv1a(source)`, so the text is not hashed again.
    pub(crate) fn load_keyed(&self, key: u64, source: &str) -> Result<ProfileData, SnapshotError> {
        let path = self.path_for_key(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(SnapshotError::Missing)
            }
            Err(e) => {
                return Err(SnapshotError::Io(format!(
                    "reading `{}`: {e}",
                    path.display()
                )))
            }
        };
        let (stored_source, data) = decode_snapshot(&bytes)?;
        if stored_source != source {
            return Err(SnapshotError::SourceMismatch);
        }
        Ok(data)
    }

    /// Persists the snapshot for `source` atomically: the encoded bytes
    /// go to a temporary file in the same directory, then a rename moves
    /// them into place, so readers only ever observe complete snapshots.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when writing or renaming fails. Sessions
    /// treat save failures as best-effort (a cold restart, not a request
    /// failure).
    pub fn save(&self, source: &str, data: &ProfileData) -> Result<(), SnapshotError> {
        self.save_keyed(fnv1a(source.as_bytes()), source, data)
    }

    /// [`save`](Self::save) for a caller that already holds the source's
    /// content key, `fnv1a(source)`.
    pub(crate) fn save_keyed(
        &self,
        key: u64,
        source: &str,
        data: &ProfileData,
    ) -> Result<(), SnapshotError> {
        let path = self.path_for_key(key);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = encode_snapshot(source, data);
        std::fs::write(&tmp, &bytes)
            .map_err(|e| SnapshotError::Io(format!("writing `{}`: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            SnapshotError::Io(format!("renaming into `{}`: {e}", path.display()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_circuit::{FtCircuit, Qodg, QubitId};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn sample_profile() -> (String, ProfileData) {
        let mut ft = FtCircuit::new(5);
        for i in 1..5 {
            ft.push_cnot(QubitId(0), QubitId(i)).unwrap();
        }
        ft.push_cnot(QubitId(1), QubitId(2)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        (".qubits 5\n".to_string(), ProfileData::new(&qodg))
    }

    fn tmp_store(tag: &str) -> ProfileStore {
        let dir =
            std::env::temp_dir().join(format!("leqa-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ProfileStore::open(dir).unwrap()
    }

    fn assert_same_profile(a: &ProfileData, b: &ProfileData) {
        assert_eq!(a.iig().num_qubits(), b.iig().num_qubits());
        assert_eq!(a.iig().total_weight(), b.iig().total_weight());
        assert_eq!(
            a.iig().edges().collect::<Vec<_>>(),
            b.iig().edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn codec_round_trips() {
        let (source, data) = sample_profile();
        let bytes = encode_snapshot(&source, &data);
        let (decoded_source, decoded) = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded_source, source);
        assert_same_profile(&data, &decoded);
    }

    #[test]
    fn store_round_trips_and_misses() {
        let store = tmp_store("roundtrip");
        let (source, data) = sample_profile();
        assert!(matches!(store.load(&source), Err(SnapshotError::Missing)));
        store.save(&source, &data).unwrap();
        let loaded = store.load(&source).unwrap();
        assert_same_profile(&data, &loaded);
        // A different program misses even though a file exists.
        assert!(matches!(
            store.load(".qubits 2\n"),
            Err(SnapshotError::Missing)
        ));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn stale_snapshot_is_rejected_by_source_verify() {
        let store = tmp_store("stale");
        let (source, data) = sample_profile();
        // Simulate a collision/stale file: the snapshot under `source`'s
        // name stores a different program.
        let bytes = encode_snapshot("other program", &data);
        std::fs::write(store.path_for(&source), bytes).unwrap();
        assert!(matches!(
            store.load(&source),
            Err(SnapshotError::SourceMismatch)
        ));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The codec round-trips arbitrary profiles, and re-encoding the
        /// decoded profile is byte-identical — the snapshot form is
        /// canonical, so a warm-started daemon serves the same bytes the
        /// original process would have.
        #[test]
        fn codec_round_trips_arbitrary_profiles(
            qubits in 3u32..24,
            links in 1usize..64,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut ft = FtCircuit::new(qubits);
            for _ in 0..links {
                let a = rng.gen_range(0..qubits);
                let b = rng.gen_range(0..qubits);
                if a != b {
                    ft.push_cnot(QubitId(a), QubitId(b)).unwrap();
                }
            }
            let qodg = Qodg::from_ft_circuit(&ft);
            let data = ProfileData::new(&qodg);
            let source = format!(".qubits {qubits} # variant {seed}\n");
            let bytes = encode_snapshot(&source, &data);
            let (decoded_source, decoded) = decode_snapshot(&bytes).unwrap();
            prop_assert_eq!(&decoded_source, &source);
            prop_assert_eq!(encode_snapshot(&decoded_source, &decoded), bytes);
        }

        /// Corruption fuzz with arbitrary XOR masks (the exhaustive test
        /// below covers the 0x01/0x80 masks at every offset): any single
        /// damaged byte must surface as a typed error, never a panic and
        /// never a silently-wrong profile.
        #[test]
        fn random_single_byte_corruption_is_always_rejected(
            at in 0usize..1 << 20,
            mask in 1u8..=255,
        ) {
            let (source, data) = sample_profile();
            let mut bytes = encode_snapshot(&source, &data);
            let idx = at % bytes.len();
            bytes[idx] ^= mask;
            prop_assert!(decode_snapshot(&bytes).is_err(), "byte {idx} mask {mask:#x}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let (source, data) = sample_profile();
        let bytes = encode_snapshot(&source, &data);
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= bit;
                let result = decode_snapshot(&corrupt);
                assert!(
                    result.is_err(),
                    "flip of byte {i} (bit mask {bit:#x}) must be rejected"
                );
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let (source, data) = sample_profile();
        let bytes = encode_snapshot(&source, &data);
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "prefix of {len} bytes must be rejected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let (source, data) = sample_profile();
        let mut bytes = encode_snapshot(&source, &data);
        bytes[0] = b'X';
        let fixed = reseal(&bytes);
        assert!(matches!(
            decode_snapshot(&fixed),
            Err(SnapshotError::BadMagic)
        ));

        let mut bytes = encode_snapshot(&source, &data);
        bytes[8] = 99;
        let fixed = reseal(&bytes);
        assert!(matches!(
            decode_snapshot(&fixed),
            Err(SnapshotError::BadVersion(99))
        ));
    }

    /// Recomputes the trailing checksum after tampering with the body —
    /// used to reach the structural checks behind the checksum gate.
    fn reseal(bytes: &[u8]) -> Vec<u8> {
        let body = &bytes[..bytes.len() - 8];
        let mut out = body.to_vec();
        out.extend_from_slice(&fnv1a(body).to_le_bytes());
        out
    }
}
