//! The persisted repro corpus.
//!
//! Every deduplicated, minimized bug is written to disk as a self-contained
//! text document so the finding survives the campaign process: the header
//! pins the application, variant, and environment seed; the body embeds the
//! minimized decision trace in the `nodefz-trace v1` format. Loading an
//! entry and replaying it under [`nodefz::ReplayScheduler`] re-manifests
//! the bug deterministically — the regression path.
//!
//! ```text
//! nodefz-repro v1
//! app KUE
//! env_seed 12345
//! site lost # of # jobs
//! kinds 1042
//! hits 17
//! replays_ok 10
//! --- trace
//! nodefz-trace v1
//! …
//! end
//! ```
//!
//! Blank lines and `#` comments are allowed anywhere above the trace
//! marker; the trace body follows its own grammar.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use nodefz::{decode_trace, encode_trace, DecisionTrace, TraceDecodeError};
use nodefz_trace::BugSignature;

/// One corpus entry: a minimized, replayable repro.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusEntry {
    /// Bug abbreviation ("KUE", …).
    pub app: String,
    /// Environment seed the trace was recorded under (replay needs it).
    pub env_seed: u64,
    /// Normalized failure site.
    pub site: String,
    /// Callback-kind fingerprint of the manifesting run.
    pub kinds: u32,
    /// Manifestations observed during the campaign.
    pub hits: u64,
    /// Acceptance replays that re-manifested the bug.
    pub replays_ok: u32,
    /// The minimized decision trace.
    pub trace: DecisionTrace,
}

/// Why a corpus document failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorpusDecodeError {
    /// The document does not start with the `nodefz-repro v1` header.
    MissingHeader,
    /// The header names a repro version this build does not understand.
    UnsupportedVersion(String),
    /// A required header field is missing or malformed.
    BadField(String),
    /// The `--- trace` marker never appeared.
    MissingTrace,
    /// The embedded trace failed to decode.
    BadTrace(TraceDecodeError),
}

impl fmt::Display for CorpusDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusDecodeError::MissingHeader => write!(f, "missing 'nodefz-repro v1' header"),
            CorpusDecodeError::UnsupportedVersion(header) => {
                write!(f, "unsupported repro version '{header}' (expected v1)")
            }
            CorpusDecodeError::BadField(field) => write!(f, "bad or missing field: {field}"),
            CorpusDecodeError::MissingTrace => write!(f, "missing '--- trace' section"),
            CorpusDecodeError::BadTrace(e) => write!(f, "embedded trace: {e}"),
        }
    }
}

impl std::error::Error for CorpusDecodeError {}

impl CorpusEntry {
    /// The signature this entry deduplicates under.
    pub fn signature(&self) -> BugSignature {
        BugSignature {
            app: self.app.clone(),
            site: self.site.clone(),
            kinds: self.kinds,
        }
    }

    /// The file name this entry persists under (stable per signature).
    pub fn file_name(&self) -> String {
        format!(
            "{}-{:016x}.repro",
            self.app.to_ascii_lowercase(),
            self.signature().digest()
        )
    }

    /// Encodes the entry as a `nodefz-repro v1` document.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("nodefz-repro v1\n");
        out.push_str(&format!("app {}\n", self.app));
        out.push_str(&format!("env_seed {}\n", self.env_seed));
        out.push_str(&format!("site {}\n", self.site));
        out.push_str(&format!("kinds {}\n", self.kinds));
        out.push_str(&format!("hits {}\n", self.hits));
        out.push_str(&format!("replays_ok {}\n", self.replays_ok));
        out.push_str("--- trace\n");
        out.push_str(&encode_trace(&self.trace));
        out
    }

    /// Decodes a `nodefz-repro v1` document.
    ///
    /// The `app` must be a non-empty run of ASCII letters, digits, `*` and
    /// `-` (every abbreviation `campaign list` prints): it becomes part of
    /// [`CorpusEntry::file_name`], so a path separator or `..` would let a
    /// re-save land outside the corpus directory.
    ///
    /// # Errors
    ///
    /// Returns a [`CorpusDecodeError`] naming the offending part.
    pub fn decode(text: &str) -> Result<CorpusEntry, CorpusDecodeError> {
        let (header, trace_text) = match text.split_once("--- trace") {
            Some(parts) => parts,
            None => return Err(CorpusDecodeError::MissingTrace),
        };
        let mut lines = header
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        match nodefz_obs::expect_header(lines.next().unwrap_or(""), "nodefz-repro v1") {
            Ok(()) => {}
            Err(nodefz_obs::SchemaError::Mismatch { found, .. }) => {
                return Err(CorpusDecodeError::UnsupportedVersion(found));
            }
            Err(nodefz_obs::SchemaError::Missing { .. }) => {
                return Err(CorpusDecodeError::MissingHeader);
            }
        }
        let mut app = None;
        let mut env_seed = None;
        let mut site = None;
        let mut kinds = None;
        let mut hits = 1u64;
        let mut replays_ok = 0u32;
        for line in lines {
            let bad = || CorpusDecodeError::BadField(line.to_string());
            let (key, value) = line.split_once(' ').ok_or_else(bad)?;
            match key {
                "app" => {
                    let value = value.trim();
                    if value.is_empty()
                        || !value
                            .bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b == b'*' || b == b'-')
                    {
                        return Err(bad());
                    }
                    app = Some(value.to_string());
                }
                "env_seed" => env_seed = Some(value.trim().parse().map_err(|_| bad())?),
                "site" => site = Some(value.trim().to_string()),
                "kinds" => kinds = Some(value.trim().parse().map_err(|_| bad())?),
                "hits" => hits = value.trim().parse().map_err(|_| bad())?,
                "replays_ok" => replays_ok = value.trim().parse().map_err(|_| bad())?,
                _ => return Err(bad()),
            }
        }
        let trace = decode_trace(trace_text).map_err(CorpusDecodeError::BadTrace)?;
        Ok(CorpusEntry {
            app: app.ok_or_else(|| CorpusDecodeError::BadField("app".into()))?,
            env_seed: env_seed.ok_or_else(|| CorpusDecodeError::BadField("env_seed".into()))?,
            site: site.ok_or_else(|| CorpusDecodeError::BadField("site".into()))?,
            kinds: kinds.ok_or_else(|| CorpusDecodeError::BadField("kinds".into()))?,
            hits,
            replays_ok,
            trace,
        })
    }
}

/// A directory of corpus entries.
#[derive(Clone, Debug)]
pub struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    /// Opens (creating if needed) a corpus directory.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn open(dir: &Path) -> io::Result<Corpus> {
        std::fs::create_dir_all(dir)?;
        Ok(Corpus {
            dir: dir.to_path_buf(),
        })
    }

    /// Persists one entry; returns the path written.
    ///
    /// The write is atomic (temp file + rename), so a corpus directory
    /// never contains a torn entry even if the writing process is killed
    /// mid-save: what a killed campaign leaves is a valid partial corpus.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn save(&self, entry: &CorpusEntry) -> io::Result<PathBuf> {
        let path = self.dir.join(entry.file_name());
        nodefz_obs::write_atomic(&path, &entry.encode())?;
        Ok(path)
    }

    /// Loads every `.repro` entry in the directory, sorted by file name.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or the first undecodable entry (named in the
    /// message).
    pub fn load_all(&self) -> io::Result<Vec<CorpusEntry>> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "repro"))
            .collect();
        paths.sort();
        let mut entries = Vec::with_capacity(paths.len());
        for path in paths {
            let text = std::fs::read_to_string(&path)?;
            let entry = CorpusEntry::decode(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            entries.push(entry);
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz::Decision;
    use nodefz_rt::PoolMode;

    fn entry() -> CorpusEntry {
        CorpusEntry {
            app: "KUE".into(),
            env_seed: 42,
            site: "lost # of # jobs".into(),
            kinds: 0b1001,
            hits: 17,
            replays_ok: 10,
            trace: DecisionTrace {
                pool_mode: PoolMode::Concurrent { workers: 4 },
                demux_done: true,
                decisions: vec![Decision::Timer(Some(5)), Decision::DeferClose(true)],
            },
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let e = entry();
        assert_eq!(CorpusEntry::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn file_name_is_stable_and_seed_independent() {
        let a = entry();
        let mut b = entry();
        b.env_seed = 9001;
        b.hits = 1;
        assert_eq!(a.file_name(), b.file_name());
        assert!(a.file_name().starts_with("kue-"), "{}", a.file_name());
    }

    #[test]
    fn malformed_documents_are_rejected_with_detail() {
        assert_eq!(
            CorpusEntry::decode("app KUE\n"),
            Err(CorpusDecodeError::MissingTrace)
        );
        assert_eq!(
            CorpusEntry::decode(
                "app KUE\n--- trace\nnodefz-trace v1\npool concurrent 1\ndemux 0\nend\n"
            ),
            Err(CorpusDecodeError::MissingHeader)
        );
        let no_app = "nodefz-repro v1\nenv_seed 1\nsite s\nkinds 0\n--- trace\nnodefz-trace v1\npool concurrent 1\ndemux 0\nend\n";
        assert_eq!(
            CorpusEntry::decode(no_app),
            Err(CorpusDecodeError::BadField("app".into()))
        );
        let bad_trace =
            "nodefz-repro v1\napp K\nenv_seed 1\nsite s\nkinds 0\n--- trace\nnot a trace\n";
        assert!(matches!(
            CorpusEntry::decode(bad_trace),
            Err(CorpusDecodeError::BadTrace(_))
        ));
    }

    #[test]
    fn app_names_that_could_leave_the_corpus_are_rejected() {
        let doc = entry().encode();
        for app in ["../x", "a/b", "..", "KUE X", "\0", ""] {
            let hostile = doc.replacen("app KUE\n", &format!("app {app}\n"), 1);
            assert!(
                matches!(
                    CorpusEntry::decode(&hostile),
                    Err(CorpusDecodeError::BadField(_))
                ),
                "app {app:?} decoded"
            );
        }
        let listed = nodefz_apps::abbrs()
            .into_iter()
            .chain([nodefz_conform::API_ABBR]);
        for app in listed {
            let doc = doc.replacen("app KUE\n", &format!("app {app}\n"), 1);
            assert_eq!(
                CorpusEntry::decode(&doc).map(|e| e.app),
                Ok(app.to_string())
            );
        }
    }

    #[test]
    fn save_and_load_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("nodefz-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::open(&dir).unwrap();
        let e = entry();
        let path = corpus.save(&e).unwrap();
        assert!(path.exists());
        let loaded = corpus.load_all().unwrap();
        assert_eq!(loaded, vec![e]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
