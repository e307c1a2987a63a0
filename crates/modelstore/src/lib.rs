//! # lmkg-modelstore
//!
//! Versioned on-disk store for LMKG model-set snapshots — the durability
//! layer between training and serving. The byte format of one snapshot is
//! `lmkg::snapshot` (`LMKGSET1`); this crate adds what a crash-safe server
//! needs around it:
//!
//! * **Generations** — every publish gets a monotonically increasing
//!   generation number; `snapshot-<gen>.lmkg` files never change once
//!   published.
//! * **Checksums** — each snapshot file carries a CRC32 over its payload,
//!   verified on load, so bit rot or a torn write is a typed error, never a
//!   half-restored model set.
//! * **Atomic publish** — snapshots are written to a temporary file,
//!   fsynced, then renamed into place before the `MANIFEST` pointer is
//!   updated the same way. A writer crashing at *any* point leaves either
//!   the old generation or the new one, never a corrupt store.
//! * **Recovery** — if the manifest is missing or points at a damaged file,
//!   [`ModelStore::load_latest`] falls back to scanning generations from
//!   newest to oldest and serves the first one that validates.
//! * **Garbage collection** — publish keeps the last
//!   [`ModelStore::KEEP_GENERATIONS`] generations and removes older files
//!   plus abandoned temporaries.
//!
//! ```no_run
//! use lmkg_modelstore::ModelStore;
//! # fn demo(model: &lmkg::Lmkg) -> Result<(), lmkg_modelstore::StoreError> {
//! let store = ModelStore::open("models/default")?;
//! let generation = store.publish(model)?;
//! let (reloaded, gen) = store.load_latest()?;
//! assert_eq!(gen, generation);
//! # Ok(()) }
//! ```

// No unsafe anywhere in this crate — enforced so the `SAFETY:` lints and
// the sanitizer jobs only ever have the nn kernels and the serve signal
// shim to reason about.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lmkg::{Lmkg, SnapshotError};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Leading bytes of every snapshot *file* (the framing around the
/// `LMKGSET1` payload).
pub const STORE_MAGIC: &[u8; 8] = b"LMKGSTO1";
const STORE_VERSION: u32 = 1;
const MANIFEST: &str = "MANIFEST";
const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".lmkg";
const TMP_SUFFIX: &str = ".tmp";

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble (permissions, disk full, truncation mid-read).
    Io(io::Error),
    /// A snapshot file does not start with the `LMKGSTO1` framing magic.
    BadMagic,
    /// A snapshot file was written by an unknown framing version.
    UnsupportedVersion(u32),
    /// The payload does not hash to the checksum recorded at publish time.
    BadChecksum {
        /// CRC32 recorded in the file header.
        expected: u32,
        /// CRC32 of the payload actually on disk.
        actual: u32,
    },
    /// The manifest or a file header is malformed.
    Corrupt(String),
    /// The store holds no loadable snapshot at all.
    NoSnapshot,
    /// The payload validated but the model-set decode inside it failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "model store I/O failed: {e}"),
            StoreError::BadMagic => write!(f, "bad magic: not an LMKG snapshot file"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot-file version {v}")
            }
            StoreError::BadChecksum { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header {expected:08x}, payload {actual:08x}"
            ),
            StoreError::Corrupt(what) => write!(f, "corrupt model store: {what}"),
            StoreError::NoSnapshot => write!(f, "model store holds no loadable snapshot"),
            StoreError::Snapshot(e) => write!(f, "snapshot payload invalid: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(io) => StoreError::Io(io),
            other => StoreError::Snapshot(other),
        }
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected) — hand-rolled so the store adds
/// no dependency; the whole payload is hashed once per publish/load.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// What the manifest (or a recovery scan) says about one stored generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Generation number, monotonically increasing per store.
    pub generation: u64,
    /// File name inside the store directory.
    pub file: String,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC32 over the payload.
    pub crc: u32,
}

/// A directory of checksummed, generation-numbered model-set snapshots.
///
/// The store holds no open file handles between calls; it is a path plus
/// the publish/load/recover protocol, so it is `Clone` and cheap to share.
#[derive(Debug, Clone)]
pub struct ModelStore {
    dir: PathBuf,
}

impl ModelStore {
    /// Generations retained after each publish (the new one plus one
    /// rollback target).
    pub const KEEP_GENERATIONS: usize = 2;

    /// Opens (creating if absent) a store rooted at `dir`.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_file(generation: u64) -> String {
        // Zero-padded so lexical order equals numeric order in `ls`.
        format!("{SNAPSHOT_PREFIX}{generation:012}{SNAPSHOT_SUFFIX}")
    }

    fn parse_generation(name: &str) -> Option<u64> {
        let digits = name.strip_prefix(SNAPSHOT_PREFIX)?.strip_suffix(SNAPSHOT_SUFFIX)?;
        digits.parse().ok()
    }

    /// Serializes `model`, writes it as the next generation, and atomically
    /// republishes the manifest. Returns the new generation number.
    ///
    /// Durability protocol: snapshot bytes go to `<file>.tmp`, which is
    /// fsynced and renamed to its final name before the manifest is rewritten
    /// the same way — so a crash between any two steps leaves the previous
    /// generation fully intact. Old generations beyond
    /// [`Self::KEEP_GENERATIONS`] are removed afterwards (best-effort).
    pub fn publish(&self, model: &Lmkg) -> Result<u64, StoreError> {
        let generation = self.latest_generation_on_disk()?.map_or(1, |g| g + 1);
        let payload = model.save_to_vec()?;
        let meta = SnapshotMeta {
            generation,
            file: Self::snapshot_file(generation),
            len: payload.len() as u64,
            crc: crc32(&payload),
        };

        let final_path = self.dir.join(&meta.file);
        self.write_atomic(&final_path, |w| {
            w.write_all(STORE_MAGIC)?;
            w.write_all(&STORE_VERSION.to_le_bytes())?;
            w.write_all(&meta.generation.to_le_bytes())?;
            w.write_all(&meta.len.to_le_bytes())?;
            w.write_all(&meta.crc.to_le_bytes())?;
            w.write_all(&payload)
        })?;

        let line = format!(
            "gen={} file={} len={} crc={:08x}\n",
            meta.generation, meta.file, meta.len, meta.crc
        );
        self.write_atomic(&self.dir.join(MANIFEST), |w| w.write_all(line.as_bytes()))?;

        self.collect_garbage(generation);
        Ok(generation)
    }

    /// Loads the newest valid snapshot, returning the model set and its
    /// generation.
    ///
    /// The manifest is tried first; if it is missing, malformed, or points
    /// at a file that fails validation, every on-disk generation is scanned
    /// newest-first and the first valid one wins. Only when nothing loads is
    /// an error returned — [`StoreError::NoSnapshot`] for an empty store,
    /// otherwise the failure of the newest candidate.
    pub fn load_latest(&self) -> Result<(Lmkg, u64), StoreError> {
        let manifest_err = match self.read_manifest() {
            Ok(meta) => match self.load_generation_meta(&meta) {
                Ok(model) => return Ok((model, meta.generation)),
                Err(e) => Some(e),
            },
            Err(e) => Some(e),
        };
        // Recovery scan: the manifest lied or is gone.
        let mut gens = self.generations()?;
        gens.sort_unstable_by(|a, b| b.cmp(a));
        let mut first_err = None;
        for generation in gens {
            match self.load_generation(generation) {
                Ok(model) => return Ok((model, generation)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        Err(first_err.or(manifest_err).unwrap_or(StoreError::NoSnapshot))
    }

    /// Loads one specific generation, verifying magic, version, and
    /// checksum before decoding the payload.
    pub fn load_generation(&self, generation: u64) -> Result<Lmkg, StoreError> {
        let file = Self::snapshot_file(generation);
        let path = self.dir.join(&file);
        let meta = read_header(&mut File::open(path)?)?;
        if meta.generation != generation {
            return Err(StoreError::Corrupt(format!(
                "file {file} claims generation {}",
                meta.generation
            )));
        }
        self.load_generation_meta(&meta)
    }

    fn load_generation_meta(&self, meta: &SnapshotMeta) -> Result<Lmkg, StoreError> {
        let mut f = File::open(self.dir.join(&meta.file))?;
        let header = read_header(&mut f)?;
        if header.generation != meta.generation || header.len != meta.len || header.crc != meta.crc {
            return Err(StoreError::Corrupt(format!(
                "manifest and file header disagree for {}",
                meta.file
            )));
        }
        // Grows to what the file holds, not to what its unchecked header
        // claims; the length and CRC checks below judge the claim.
        let mut payload = Vec::new();
        f.take(meta.len).read_to_end(&mut payload)?;
        if payload.len() as u64 != meta.len {
            return Err(StoreError::Corrupt(format!(
                "{}: payload truncated to {} of {} bytes",
                meta.file,
                payload.len(),
                meta.len
            )));
        }
        let actual = crc32(&payload);
        if actual != meta.crc {
            return Err(StoreError::BadChecksum {
                expected: meta.crc,
                actual,
            });
        }
        Ok(Lmkg::load(&mut payload.as_slice())?)
    }

    /// Every generation with a (not-necessarily-valid) snapshot file on
    /// disk, unsorted.
    pub fn generations(&self) -> Result<Vec<u64>, StoreError> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(g) = name.to_str().and_then(Self::parse_generation) {
                gens.push(g);
            }
        }
        Ok(gens)
    }

    /// The manifest entry, if a readable manifest exists.
    pub fn read_manifest(&self) -> Result<SnapshotMeta, StoreError> {
        let path = self.dir.join(MANIFEST);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(StoreError::NoSnapshot),
            Err(e) => return Err(e.into()),
        };
        parse_manifest(&text)
    }

    fn latest_generation_on_disk(&self) -> Result<Option<u64>, StoreError> {
        Ok(self.generations()?.into_iter().max())
    }

    /// Writes via `<path>.tmp` + fsync + rename + directory fsync. The
    /// temporary name is deterministic per target, so an abandoned tmp from
    /// a crashed writer is simply overwritten by the next attempt.
    fn write_atomic<F>(&self, path: &Path, fill: F) -> Result<(), StoreError>
    where
        F: FnOnce(&mut File) -> io::Result<()>,
    {
        let tmp = path.with_extension(format!(
            "{}{}",
            path.extension().and_then(|e| e.to_str()).unwrap_or(""),
            TMP_SUFFIX
        ));
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        fill(&mut f)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Persist the rename itself; some filesystems need the directory
        // entry flushed too. Best-effort on platforms that refuse dir fds.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Removes generations older than the retention window and any
    /// leftover `.tmp` files. Best-effort: GC failure never fails a publish.
    fn collect_garbage(&self, newest: u64) {
        let keep_from = newest.saturating_sub(Self::KEEP_GENERATIONS as u64 - 1);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_tmp = name.ends_with(TMP_SUFFIX);
            let stale_gen = Self::parse_generation(name).is_some_and(|g| g < keep_from);
            if stale_tmp || stale_gen {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

fn read_header<R: Read>(r: &mut R) -> Result<SnapshotMeta, StoreError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != STORE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut b4 = [0u8; 4];
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b4)?;
    let version = u32::from_le_bytes(b4);
    if version != STORE_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    r.read_exact(&mut b8)?;
    let generation = u64::from_le_bytes(b8);
    r.read_exact(&mut b8)?;
    let len = u64::from_le_bytes(b8);
    r.read_exact(&mut b4)?;
    let crc = u32::from_le_bytes(b4);
    Ok(SnapshotMeta {
        generation,
        file: ModelStore::snapshot_file(generation),
        len,
        crc,
    })
}

fn parse_manifest(text: &str) -> Result<SnapshotMeta, StoreError> {
    let line = text
        .lines()
        .next()
        .ok_or_else(|| StoreError::Corrupt("empty manifest".into()))?;
    let mut generation = None;
    let mut file = None;
    let mut len = None;
    let mut crc = None;
    for field in line.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| StoreError::Corrupt(format!("manifest field `{field}`")))?;
        let bad = |what: &str| StoreError::Corrupt(format!("manifest {what} `{value}`"));
        match key {
            "gen" => generation = Some(value.parse().map_err(|_| bad("generation"))?),
            "file" => file = Some(value.to_string()),
            "len" => len = Some(value.parse().map_err(|_| bad("length"))?),
            "crc" => crc = Some(u32::from_str_radix(value, 16).map_err(|_| bad("crc"))?),
            other => return Err(StoreError::Corrupt(format!("manifest key `{other}`"))),
        }
    }
    match (generation, file, len, crc) {
        (Some(generation), Some(file), Some(len), Some(crc)) => Ok(SnapshotMeta {
            generation,
            file,
            len,
            crc,
        }),
        _ => Err(StoreError::Corrupt("manifest missing a field".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg::framework::{Grouping, LmkgConfig, ModelType};
    use lmkg::LmkgSConfig;
    use lmkg_data::{workload, Dataset, Scale, WorkloadConfig};
    use lmkg_store::QueryShape;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("lmkg-modelstore-test-{}-{n}", std::process::id()))
    }

    fn tiny_model() -> (lmkg_store::KnowledgeGraph, Lmkg) {
        let graph = Dataset::LubmLike.generate(Scale::Ci, 7);
        let cfg = LmkgConfig {
            model_type: ModelType::Supervised,
            grouping: Grouping::BySize,
            shapes: vec![QueryShape::Star],
            sizes: vec![2],
            queries_per_size: 200,
            s_config: LmkgSConfig {
                hidden: vec![32],
                epochs: 8,
                dropout: 0.0,
                ..Default::default()
            },
            u_config: Default::default(),
            workload_seed: 11,
        };
        let model = Lmkg::build(&graph, &cfg);
        (graph, model)
    }

    fn estimates(model: &Lmkg, graph: &lmkg_store::KnowledgeGraph) -> Vec<u64> {
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 31);
        let queries: Vec<_> = workload::generate(graph, &wl)
            .into_iter()
            .take(8)
            .map(|lq| lq.query)
            .collect();
        model
            .estimate_query_batch(&queries)
            .iter()
            .map(|e| e.to_bits())
            .collect()
    }

    #[test]
    fn publish_then_load_roundtrips_bitwise() {
        let dir = temp_store_dir();
        let (graph, model) = tiny_model();
        let store = ModelStore::open(&dir).unwrap();
        let generation = store.publish(&model).unwrap();
        assert_eq!(generation, 1);

        let (loaded, g) = store.load_latest().unwrap();
        assert_eq!(g, 1);
        assert_eq!(estimates(&model, &graph), estimates(&loaded, &graph));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generations_increase_and_gc_keeps_retention_window() {
        let dir = temp_store_dir();
        let (_, model) = tiny_model();
        let store = ModelStore::open(&dir).unwrap();
        for expected in 1..=4u64 {
            assert_eq!(store.publish(&model).unwrap(), expected);
        }
        let mut gens = store.generations().unwrap();
        gens.sort_unstable();
        assert_eq!(
            gens,
            vec![3, 4],
            "GC must keep exactly the last {} generations",
            ModelStore::KEEP_GENERATIONS
        );
        // The rollback target still loads.
        store.load_generation(3).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_reports_no_snapshot() {
        let dir = temp_store_dir();
        let store = ModelStore::open(&dir).unwrap();
        let err = store.load_latest().map(|(_, g)| g).unwrap_err();
        assert!(matches!(err, StoreError::NoSnapshot), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_payload_is_a_checksum_error_and_recovery_uses_prior_gen() {
        let dir = temp_store_dir();
        let (graph, model) = tiny_model();
        let store = ModelStore::open(&dir).unwrap();
        store.publish(&model).unwrap();
        let g2 = store.publish(&model).unwrap();

        // Flip one payload byte of the newest snapshot.
        let path = dir.join(ModelStore::snapshot_file(g2));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let err = store.load_generation(g2).map(|_| ()).unwrap_err();
        assert!(matches!(err, StoreError::BadChecksum { .. }), "{err}");

        // load_latest falls back to the previous, intact generation.
        let (loaded, g) = store.load_latest().unwrap();
        assert_eq!(g, g2 - 1);
        assert_eq!(estimates(&model, &graph), estimates(&loaded, &graph));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_recovers_by_scanning() {
        let dir = temp_store_dir();
        let (_, model) = tiny_model();
        let store = ModelStore::open(&dir).unwrap();
        let generation = store.publish(&model).unwrap();
        fs::remove_file(dir.join(MANIFEST)).unwrap();
        let (_, g) = store.load_latest().unwrap();
        assert_eq!(g, generation);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_fails_with_typed_error() {
        let dir = temp_store_dir();
        let (_, model) = tiny_model();
        let store = ModelStore::open(&dir).unwrap();
        let generation = store.publish(&model).unwrap();
        let path = dir.join(ModelStore::snapshot_file(generation));
        let bytes = fs::read(&path).unwrap();
        for cut in [4, 20, bytes.len() / 2] {
            fs::write(&path, &bytes[..cut]).unwrap();
            let err = store.load_generation(generation).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, StoreError::Io(_) | StoreError::Corrupt(_)),
                "cut {cut}: {err}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every bit pattern of the 32-byte file header is checked before it is
    /// trusted: flipping the low, high or all bits of any header byte —
    /// magic, version, generation, payload length, CRC — loads as a typed
    /// error, never as an abort on a length the header made up.
    #[test]
    fn every_header_byte_flip_is_a_typed_error() {
        let dir = temp_store_dir();
        let (_, model) = tiny_model();
        let store = ModelStore::open(&dir).unwrap();
        let generation = store.publish(&model).unwrap();
        let path = dir.join(ModelStore::snapshot_file(generation));
        let bytes = fs::read(&path).unwrap();
        for at in 0..32 {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut patched = bytes.clone();
                patched[at] ^= flip;
                fs::write(&path, &patched).unwrap();
                let err = store.load_generation(generation).map(|_| ()).unwrap_err();
                assert!(!err.to_string().is_empty(), "byte {at} ^ {flip:#04x}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let dir = temp_store_dir();
        let (_, model) = tiny_model();
        let store = ModelStore::open(&dir).unwrap();
        let generation = store.publish(&model).unwrap();
        let path = dir.join(ModelStore::snapshot_file(generation));
        let good = fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            store.load_generation(generation).map(|_| ()).unwrap_err(),
            StoreError::BadMagic
        ));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&7u32.to_le_bytes());
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            store.load_generation(generation).map(|_| ()).unwrap_err(),
            StoreError::UnsupportedVersion(7)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandoned_tmp_files_are_ignored_and_collected() {
        let dir = temp_store_dir();
        let (_, model) = tiny_model();
        let store = ModelStore::open(&dir).unwrap();
        // Simulate a writer that died mid-publish.
        fs::write(dir.join("snapshot-000000000009.lmkg.tmp"), b"garbage").unwrap();
        fs::write(dir.join("MANIFEST.tmp"), b"gen=9").unwrap();
        let generation = store.publish(&model).unwrap();
        assert_eq!(generation, 1, "tmp files must not claim a generation");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(TMP_SUFFIX))
            .collect();
        assert!(leftovers.is_empty(), "GC left {leftovers:?}");
        store.load_latest().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE reference values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn manifest_parsing_rejects_malformed_lines() {
        assert!(matches!(
            parse_manifest("").map(|_| ()).unwrap_err(),
            StoreError::Corrupt(_)
        ));
        assert!(matches!(
            parse_manifest("gen=1 file=x len=2").map(|_| ()).unwrap_err(),
            StoreError::Corrupt(_)
        ));
        assert!(matches!(
            parse_manifest("gen=nope file=x len=2 crc=01").map(|_| ()).unwrap_err(),
            StoreError::Corrupt(_)
        ));
        let meta = parse_manifest("gen=5 file=snapshot-000000000005.lmkg len=10 crc=0000abcd\n").unwrap();
        assert_eq!(meta.generation, 5);
        assert_eq!(meta.crc, 0xabcd);
    }
}
