//! The content-addressed result cache.
//!
//! Layout: one directory per entry under the cache root, named by the
//! cache key. Each entry is simultaneously a `trend --record` snapshot
//! directory — it holds the report as `<workload-key>.json` — so `ants
//! trend history <cache>` reads per-cell timelines straight off the
//! cache, no conversion step. Alongside the report:
//!
//! * `response.ndjson` — the body lines of the original miss response,
//!   replayed verbatim on every hit (byte-identity is the cache's
//!   correctness contract, backed by the engine's deterministic
//!   reports);
//! * `spec.toml` — the spec in [`WorkloadSpec::to_toml`] canonical form;
//! * `descriptor.txt` — the human-readable plan descriptor the key
//!   hashes, so a key can be audited by eye.
//!
//! The trend tooling filters on the `.json` extension, so the auxiliary
//! files are invisible to it.
//!
//! Keys compose the plan's 128-bit content hash with every run input
//! that changes report bytes: seed, effort, backend override, extra
//! metrics, and the commit id. Scheduling knobs (threads, granularity,
//! chunk) and the telemetry handle are deliberately excluded — the
//! determinism contract makes them output-invariant, and keying on them
//! would fragment the cache.

use ants_bench::RunConfig;
use ants_workload::{WorkloadPlan, WorkloadSpec};
use std::path::{Path, PathBuf};

/// The stored response body name inside an entry directory.
pub const RESPONSE_FILE: &str = "response.ndjson";
/// The canonical spec name inside an entry directory.
pub const SPEC_FILE: &str = "spec.toml";
/// The plan-descriptor name inside an entry directory.
pub const DESCRIPTOR_FILE: &str = "descriptor.txt";
/// The address-discovery file a running daemon writes at the cache root
/// (`ants query --cache <dir>` reads it instead of `--addr`).
pub const ADDR_FILE: &str = "serve.addr";
/// The name prefix of the directory [`Entry::store`] writes before it
/// renames it into place; one left behind marks a crash mid-store. Keys
/// start with the plan hash's hex digits, so no entry name starts with a
/// dot and no commit id can make an entry look like a staging directory.
const STAGING_PREFIX: &str = ".staging-";

/// Is `commit` safe as a directory-name component? Same rule as the
/// trend snapshot ids: ASCII `[A-Za-z0-9._-]`, non-empty, not all dots.
pub fn safe_commit(commit: &str) -> bool {
    commit.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
        && !commit.is_empty()
        && !commit.chars().all(|c| c == '.')
}

/// Compose the cache key for running `plan` under `cfg` at `commit`.
///
/// `{plan-hash}-s{seed}-{effort}[-b{backend}][-d{dp_mode}][-m{metrics}]-{commit}`:
/// the hash covers everything the spec means (cells, populations,
/// seeds tags, metrics the spec declares); the suffix covers the run
/// inputs layered on top by the request and the daemon. The `dp_mode`
/// override is keyed even though sparse and dense agree to ≤ 1e-9:
/// the cache stores bytes, and the representations are not bit-equal
/// where folding applies.
pub fn cache_key(plan: &WorkloadPlan, cfg: &RunConfig, commit: &str) -> String {
    let mut key = format!("{}-s{}-{}", plan.content_hash(), cfg.base_seed, cfg.effort.as_str());
    if let Some(b) = cfg.backend {
        key.push_str("-b");
        key.push_str(b.as_str());
    }
    if let Some(m) = cfg.dp_mode {
        key.push_str("-d");
        key.push_str(m.as_str());
    }
    if !cfg.metrics.is_empty() {
        let names: Vec<&str> = cfg.metrics.iter().map(|m| m.as_str()).collect();
        key.push_str("-m");
        key.push_str(&names.join("+"));
    }
    key.push('-');
    key.push_str(commit);
    key
}

/// A cache entry: its key and directory.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The cache key (also the directory name).
    pub key: String,
    /// The entry directory under the cache root.
    pub dir: PathBuf,
}

impl Entry {
    /// The entry for `key` under `root` (existing or not).
    pub fn at(root: &Path, key: &str) -> Entry {
        Entry { key: key.to_string(), dir: root.join(key) }
    }

    /// The directory [`Entry::store`] writes before publishing: a sibling
    /// of the entry, `.staging-{key}`.
    fn staging_dir(&self) -> PathBuf {
        self.dir.with_file_name(format!("{STAGING_PREFIX}{}", self.key))
    }

    /// Does this entry hold a complete stored response?
    pub fn is_hit(&self) -> bool {
        self.dir.join(RESPONSE_FILE).is_file()
    }

    /// The stored response body (the lines to replay verbatim).
    ///
    /// # Errors
    ///
    /// I/O failures reading the stored body.
    pub fn response(&self) -> Result<String, String> {
        std::fs::read_to_string(self.dir.join(RESPONSE_FILE))
            .map_err(|e| format!("cache entry {} unreadable: {e}", self.key))
    }

    /// The stored report document for workload key `wkey`.
    ///
    /// # Errors
    ///
    /// Missing/unreadable report file.
    pub fn report_text(&self, wkey: &str) -> Result<String, String> {
        let path = self.dir.join(format!("{wkey}.json"));
        std::fs::read_to_string(&path)
            .map_err(|e| format!("cached report {} unreadable: {e}", path.display()))
    }

    /// Persist a finished miss: report JSON, response body, canonical
    /// spec, and descriptor, written to a staging directory and renamed
    /// into place so concurrent readers never see a partial entry.
    ///
    /// Returns the file bytes this call published, or `None` when the
    /// entry was already in place and nothing was added to the cache.
    ///
    /// # Errors
    ///
    /// I/O failures; the staging directory is cleaned up best-effort.
    pub fn store(
        &self,
        spec: &WorkloadSpec,
        plan: &WorkloadPlan,
        report_json: &str,
        body: &str,
    ) -> Result<Option<u64>, String> {
        let staging = self.staging_dir();
        let write = |name: &str, text: &str| -> Result<u64, String> {
            let path = staging.join(name);
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(text.len() as u64)
        };
        std::fs::create_dir_all(&staging)
            .map_err(|e| format!("cannot create {}: {e}", staging.display()))?;
        let stored = (|| {
            let bytes = write(&format!("{}.json", plan.key), report_json)?
                + write(RESPONSE_FILE, body)?
                + write(SPEC_FILE, &spec.to_toml())?
                + write(DESCRIPTOR_FILE, &plan.cache_descriptor())?;
            // Idempotent re-store (a racing duplicate miss): the first
            // rename wins, later ones find the directory present and
            // discard their staging copy. Both bodies are byte-identical
            // by the determinism contract, so either is correct.
            if self.dir.exists() {
                return Ok(None);
            }
            std::fs::rename(&staging, &self.dir)
                .map_err(|e| format!("cannot publish cache entry {}: {e}", self.key))?;
            Ok(Some(bytes))
        })();
        if staging.exists() {
            let _ = std::fs::remove_dir_all(&staging);
        }
        stored
    }
}

/// Walk the cache root once: delete the staging directories a crash
/// mid-[`Entry::store`] left behind, and count the entry directories
/// and the file bytes under them, as `(entries, bytes)`.
pub(crate) fn sweep(root: &Path) -> (u64, u64) {
    let (mut entries, mut bytes) = (0u64, 0u64);
    let Ok(rd) = std::fs::read_dir(root) else { return (0, 0) };
    for path in rd.filter_map(Result::ok).map(|e| e.path()).filter(|p| p.is_dir()) {
        if is_staging(&path) {
            let _ = std::fs::remove_dir_all(&path);
        } else {
            entries += 1;
            bytes = bytes.saturating_add(dir_bytes(&path));
        }
    }
    (entries, bytes)
}

/// Is `path` a staging directory of [`Entry::store`]?
fn is_staging(path: &Path) -> bool {
    path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(STAGING_PREFIX))
}

/// Total file bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0u64;
    if let Ok(rd) = std::fs::read_dir(dir) {
        for path in rd.filter_map(Result::ok).map(|e| e.path()) {
            if path.is_dir() {
                total = total.saturating_add(dir_bytes(&path));
            } else if let Ok(md) = path.metadata() {
                total = total.saturating_add(md.len());
            }
        }
    }
    total
}

/// The newest other entry (by directory mtime, key breaking ties) under
/// `root` that stores a report for workload key `wkey` — the gate's
/// baseline. `exclude` is the current request's key.
pub fn latest_baseline(root: &Path, wkey: &str, exclude: &str) -> Option<Entry> {
    let entries = std::fs::read_dir(root).ok()?;
    let mut candidates: Vec<(std::time::SystemTime, String, PathBuf)> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir() && !is_staging(p))
        .filter_map(|p| {
            let key = p.file_name()?.to_str()?.to_string();
            if key == exclude || !p.join(format!("{wkey}.json")).is_file() {
                return None;
            }
            let mtime = std::fs::metadata(&p)
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            Some((mtime, key, p))
        })
        .collect();
    candidates.sort();
    candidates.pop().map(|(_, key, dir)| Entry { key, dir })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
name = \"cache unit\"
[defaults]
trials = 4
[[cells]]
name = \"c\"
agents = 2
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"randomwalk\" } ]
";

    fn plan() -> (WorkloadSpec, WorkloadPlan) {
        let spec = WorkloadSpec::parse(SPEC).unwrap();
        let plan = WorkloadPlan::expand(&spec).unwrap();
        (spec, plan)
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ants-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn keys_cover_run_inputs_but_not_scheduling() {
        let (_, plan) = plan();
        let base = cache_key(&plan, &RunConfig::standard(), "local");
        assert!(base.ends_with("-s0-standard-local"), "{base}");
        assert_ne!(base, cache_key(&plan, &RunConfig::smoke(), "local"));
        assert_ne!(base, cache_key(&plan, &RunConfig::standard().with_seed(1), "local"));
        assert_ne!(base, cache_key(&plan, &RunConfig::standard(), "other"));
        let dp = RunConfig::standard().with_backend(Some(ants_dp::Backend::Dp));
        assert_ne!(base, cache_key(&plan, &dp, "local"));
        let sparse = RunConfig::standard().with_dp_mode(Some(ants_dp::DpMode::Sparse));
        let sparse_key = cache_key(&plan, &sparse, "local");
        assert_ne!(base, sparse_key);
        assert!(sparse_key.contains("-dsparse"), "{sparse_key}");
        let metrics = RunConfig::standard()
            .with_metrics(ants_sim::MetricSet::parse_list("coverage").unwrap());
        assert_ne!(base, cache_key(&plan, &metrics, "local"));
        // Scheduling knobs never move the key.
        let scheduled = RunConfig::standard()
            .with_threads(Some(7))
            .with_granularity(ants_sim::Granularity::Agent)
            .with_chunk(Some(3));
        assert_eq!(base, cache_key(&plan, &scheduled, "local"));
        // Telemetry is strictly observational: attaching it never moves
        // a cache key (it would fragment the cache and flag fake drift).
        let observed = RunConfig::standard().with_telemetry(Some(ants_obs::Telemetry::new()));
        assert_eq!(base, cache_key(&plan, &observed, "local"));
        // Keys are safe directory names by construction.
        assert!(safe_commit(&base), "{base}");
    }

    #[test]
    fn commit_safety_matches_snapshot_rules() {
        for good in ["local", "abc123", "v1.2-rc_3", "HEAD"] {
            assert!(safe_commit(good), "{good}");
        }
        for bad in ["", ".", "..", "a/b", "a b", "héad"] {
            assert!(!safe_commit(bad), "{bad}");
        }
    }

    #[test]
    fn store_then_hit_round_trips_and_is_idempotent() {
        let root = temp_root("store");
        let (spec, plan) = plan();
        let key = cache_key(&plan, &RunConfig::smoke(), "local");
        let entry = Entry::at(&root, &key);
        assert!(!entry.is_hit());
        let body = "{\"event\":\"cell\"}\n{\"event\":\"report\"}\n";
        let published = entry.store(&spec, &plan, "{\"schema\":\"ants-report/v1\"}", body);
        assert!(entry.is_hit());
        assert_eq!(published.unwrap(), Some(sweep(&root).1), "store reports the bytes it wrote");
        assert_eq!(entry.response().unwrap(), body);
        assert_eq!(entry.report_text(&plan.key).unwrap(), "{\"schema\":\"ants-report/v1\"}");
        let canon = std::fs::read_to_string(entry.dir.join(SPEC_FILE)).unwrap();
        assert_eq!(WorkloadSpec::parse(&canon).unwrap(), spec, "stored spec is canonical");
        // Re-storing (racing duplicate miss) leaves the entry intact and
        // publishes nothing.
        let again = entry.store(&spec, &plan, "{\"schema\":\"ants-report/v1\"}", body);
        assert_eq!(again.unwrap(), None);
        assert_eq!(entry.response().unwrap(), body);
        assert!(!entry.staging_dir().exists(), "staging cleaned up");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dotted_commits_stage_apart_from_their_entries() {
        let root = temp_root("dotted");
        let (spec, plan) = plan();
        let at = |commit: &str| Entry::at(&root, &cache_key(&plan, &RunConfig::smoke(), commit));
        // Keys end in the commit id: staging must not depend on its dots.
        assert_ne!(at("v1.2").staging_dir(), at("v1.3").staging_dir());
        // An entry whose commit looks like a staging suffix is stored,
        // stays a hit, and survives the bind-time sweep.
        let entry = at("x.staging");
        assert_ne!(entry.staging_dir(), entry.dir);
        entry.store(&spec, &plan, "{}", "x\n").unwrap();
        assert!(entry.is_hit(), "the store published the entry");
        assert_eq!(sweep(&root).0, 1, "the sweep counts the entry");
        assert!(entry.is_hit(), "the sweep kept the entry");
        // A crash leftover is swept.
        std::fs::create_dir_all(at("v1.2").staging_dir()).unwrap();
        assert_eq!(sweep(&root).0, 1);
        assert!(!at("v1.2").staging_dir().exists(), "staging leftover swept");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn baseline_is_newest_other_entry_for_the_same_workload() {
        let root = temp_root("baseline");
        let (spec, plan) = plan();
        let keys: Vec<String> = [0u64, 1, 2]
            .iter()
            .map(|s| cache_key(&plan, &RunConfig::smoke().with_seed(*s), "local"))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            Entry::at(&root, key).store(&spec, &plan, "{}", "x\n").unwrap();
            // Distinct mtimes oldest-first (coarse filesystems).
            let t = filetime_set(&root.join(key), i as u64);
            assert!(t, "set mtime");
        }
        let base = latest_baseline(&root, &plan.key, &keys[2]).unwrap();
        assert_eq!(base.key, keys[1], "newest entry excluding the current one");
        assert!(latest_baseline(&root, "other-workload", &keys[2]).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Set a directory's mtime to `UNIX_EPOCH + secs` via the only
    /// std-stable lever (re-creating a file inside bumps mtime, which is
    /// the wrong direction) — fall back to ordering by writing in
    /// sequence with a sleep when the platform refuses.
    fn filetime_set(dir: &Path, secs: u64) -> bool {
        let dest = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs);
        let f = match std::fs::File::open(dir) {
            Ok(f) => f,
            Err(_) => return false,
        };
        f.set_times(std::fs::FileTimes::new().set_modified(dest)).is_ok()
    }
}
