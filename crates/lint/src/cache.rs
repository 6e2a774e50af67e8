//! The content-addressed per-file analysis cache.
//!
//! Warm `mmlint` runs re-analyze only changed files: phase 1 of the
//! engine (lex → extract → token rules → suppressions) is a pure function
//! of one file's path and bytes, so its result is cached under an FNV-1a
//! key of both, XORed with a *fingerprint* of the rule registry and cache
//! format — editing a rule or this module invalidates every entry at
//! once, the same RunStore-style keying the experiment layer uses for
//! campaign rounds. The graph phase always runs fresh (it is cheap and
//! workspace-global), consuming the cached [`CachedFile`] summaries.
//!
//! Entries are small versioned tab-separated text files closed by an `end`
//! line; anything that fails to parse — truncation, a concurrent writer,
//! an unknown rule id after a registry change — is simply a miss and gets
//! re-analyzed and rewritten. Corruption can cost time, never correctness.

use crate::diag::{Diagnostic, Severity};
use crate::items::{FileItems, FnItem, Hazard, HazardKind};
use crate::rules;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Bump to invalidate every cache entry on a format change.
const CACHE_VERSION: u32 = 2;

/// Everything phase 1 produces for one file.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedFile {
    /// Token-rule diagnostics, suppressions already applied (marked).
    pub diags: Vec<Diagnostic>,
    /// Extracted items for the graph phase.
    pub items: FileItems,
    /// `(line, rule)` suppressions naming graph-phase rules.
    pub graph_sups: Vec<(u32, String)>,
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The registry/format fingerprint folded into every key.
fn fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let mut tag = format!("mmlc{CACHE_VERSION};{};", env!("CARGO_PKG_VERSION"));
        for r in rules::RULES {
            tag.push_str(r.id);
            tag.push(';');
        }
        fnv1a(tag.as_bytes())
    })
}

/// Cache key of one file: path, content, and the registry fingerprint.
pub fn key(rel_path: &str, content: &str) -> u64 {
    fnv1a(rel_path.as_bytes()) ^ fnv1a(content.as_bytes()).rotate_left(1) ^ fingerprint()
}

/// Path of the entry for `key` under `dir`.
fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.mmlc"))
}

/// Load the entry for `key`, or `None` on miss/corruption.
pub fn load(dir: &Path, key: u64) -> Option<CachedFile> {
    let text = std::fs::read_to_string(entry_path(dir, key)).ok()?;
    decode(&text)
}

/// Persist an entry. Best-effort: a failed write only costs the next run
/// a re-analysis, so errors are swallowed.
pub fn store(dir: &Path, key: u64, entry: &CachedFile) {
    let _ = std::fs::write(entry_path(dir, key), encode(entry));
}

/// Tab-free rendering of free text (messages never contain tabs today;
/// this keeps the format safe if one ever does).
fn clean(s: &str) -> String {
    s.replace(['\t', '\n'], " ")
}

/// Serialize an entry. Line-oriented, tab-separated:
/// `D` diagnostic, `G` graph suppression, `F` fn item (its `C` calls and
/// `H` hazards follow), `L` loose hazard, then the `end` trailer.
pub fn encode(entry: &CachedFile) -> String {
    let mut out = format!("mmlc {CACHE_VERSION}\n");
    for d in &entry.diags {
        out.push_str(&format!(
            "D\t{}\t{}\t{}\t{}\t{}\n",
            d.rule,
            if d.severity == Severity::Error {
                'e'
            } else {
                'w'
            },
            d.line,
            u8::from(d.suppressed),
            clean(&d.message)
        ));
    }
    for (line, rule) in &entry.graph_sups {
        out.push_str(&format!("G\t{line}\t{rule}\n"));
    }
    let hazard_line = |out: &mut String, tag: char, h: &Hazard| {
        out.push_str(&format!(
            "{tag}\t{}\t{}\t{}\t{}\n",
            h.kind.code(),
            h.line,
            u8::from(h.in_test),
            clean(&h.detail)
        ));
    };
    for h in &entry.items.loose_hazards {
        hazard_line(&mut out, 'L', h);
    }
    for f in &entry.items.fns {
        out.push_str(&format!(
            "F\t{}\t{}\t{}\t{}\n",
            f.name,
            f.line,
            f.end_line,
            u8::from(f.in_test)
        ));
        for c in &f.calls {
            out.push_str(&format!("C\t{c}\n"));
        }
        for h in &f.hazards {
            hazard_line(&mut out, 'H', h);
        }
    }
    out.push_str("end\n");
    out
}

/// Parse an entry; `None` on any anomaly.
pub fn decode(text: &str) -> Option<CachedFile> {
    // A torn write leaves a prefix that still ends at a line break, so
    // only the trailer marks an entry as complete.
    let mut lines = text.strip_suffix("\nend\n")?.lines();
    if lines.next()? != format!("mmlc {CACHE_VERSION}") {
        return None;
    }
    let mut entry = CachedFile {
        diags: Vec::new(),
        items: FileItems::default(),
        graph_sups: Vec::new(),
    };
    for line in lines {
        let mut parts = line.split('\t');
        match parts.next()? {
            "D" => {
                let rule = rules::rule_by_id(parts.next()?)?.id;
                let severity = match parts.next()? {
                    "e" => Severity::Error,
                    "w" => Severity::Warn,
                    _ => return None,
                };
                let line_no: u32 = parts.next()?.parse().ok()?;
                let suppressed = match parts.next()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
                let message = parts.next()?.to_string();
                entry.diags.push(Diagnostic {
                    rule,
                    severity,
                    // The caller owns the path; it is patched in on load.
                    file: String::new(),
                    line: line_no,
                    message,
                    suppressed,
                });
            }
            "G" => {
                let line_no: u32 = parts.next()?.parse().ok()?;
                let rule = parts.next()?.to_string();
                entry.graph_sups.push((line_no, rule));
            }
            "F" => {
                let name = parts.next()?.to_string();
                let line_no: u32 = parts.next()?.parse().ok()?;
                let end_line: u32 = parts.next()?.parse().ok()?;
                let in_test = parts.next()? == "1";
                entry.items.fns.push(FnItem {
                    name,
                    line: line_no,
                    end_line,
                    in_test,
                    calls: Vec::new(),
                    hazards: Vec::new(),
                });
            }
            "C" => {
                let call = parts.next()?.to_string();
                entry.items.fns.last_mut()?.calls.push(call);
            }
            tag @ ("H" | "L") => {
                let kind = HazardKind::from_code(parts.next()?.chars().next()?)?;
                let line_no: u32 = parts.next()?.parse().ok()?;
                let in_test = parts.next()? == "1";
                let detail = parts.next()?.to_string();
                let hazard = Hazard {
                    kind,
                    line: line_no,
                    in_test,
                    detail,
                };
                if tag == "H" {
                    entry.items.fns.last_mut()?.hazards.push(hazard);
                } else {
                    entry.items.loose_hazards.push(hazard);
                }
            }
            _ => return None,
        }
    }
    Some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CachedFile {
        CachedFile {
            diags: vec![Diagnostic {
                rule: "E001",
                severity: Severity::Error,
                file: String::new(),
                line: 12,
                message: "unwrap() in library code".to_string(),
                suppressed: true,
            }],
            items: FileItems {
                fns: vec![FnItem {
                    name: "drive".to_string(),
                    line: 3,
                    end_line: 40,
                    in_test: false,
                    calls: vec!["scatter_gather".to_string(), "shard".to_string()],
                    hazards: vec![Hazard {
                        kind: HazardKind::FloatReduce,
                        line: 17,
                        in_test: false,
                        detail: "sum::<f64>()".to_string(),
                    }],
                }],
                loose_hazards: vec![Hazard {
                    kind: HazardKind::StreamLabel,
                    line: 1,
                    in_test: false,
                    detail: "7".to_string(),
                }],
            },
            graph_sups: vec![(9, "P002".to_string())],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let entry = sample();
        let decoded = decode(&encode(&entry)).expect("round trip");
        assert_eq!(decoded, entry);
    }

    #[test]
    fn corruption_and_unknown_rules_miss() {
        assert!(decode("").is_none());
        assert!(decode("mmlc 999\n").is_none());
        let mut entry = sample();
        entry.diags.clear();
        let good = encode(&entry);
        assert!(decode(&good).is_some());
        assert!(decode(&good.replace("F\t", "X\t")).is_none());
        assert!(decode("mmlc 2\nD\tQ999\te\t1\t0\tmsg\nend\n").is_none());
        assert!(decode("mmlc 2\nC\torphan-call\nend\n").is_none());
    }

    #[test]
    fn truncated_entries_miss() {
        // A torn write leaves a prefix that still ends at a line break; no
        // such prefix may pass for a complete analysis.
        let full = encode(&sample());
        for (at, _) in full.match_indices('\n') {
            let prefix = &full[..=at];
            if prefix.len() < full.len() {
                assert!(decode(prefix).is_none(), "prefix decoded: {prefix:?}");
            }
        }
        assert!(decode(&format!("{full}C\tafter-trailer\n")).is_none());
    }

    #[test]
    fn keys_separate_paths_contents_and_survive_reruns() {
        let a = key("crates/core/src/a.rs", "fn a() {}");
        assert_eq!(a, key("crates/core/src/a.rs", "fn a() {}"));
        assert_ne!(a, key("crates/core/src/b.rs", "fn a() {}"));
        assert_ne!(a, key("crates/core/src/a.rs", "fn a() { }"));
    }

    #[test]
    fn store_and_load_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("mmlc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let entry = sample();
        let k = key("crates/x.rs", "src");
        assert!(load(&dir, k).is_none());
        store(&dir, k, &entry);
        assert_eq!(load(&dir, k), Some(entry));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
