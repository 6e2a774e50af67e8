//! Diagnostics: what a rule reports, and the human/JSON renderings.

use mm_json::{Json, ToJson};

/// How bad a finding is. `Error` fails the CI gate; `Warn` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: printed, never fails the run.
    Warn,
    /// Gate-failing.
    Error,
}

impl Severity {
    /// Lower-case label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D001`, `Z001`, ...).
    pub rule: &'static str,
    /// Severity of this finding.
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line (0 for whole-file findings such as a missing manifest).
    pub line: u32,
    /// Human explanation of this specific occurrence.
    pub message: String,
    /// Matched by an `mm-allow` suppression? Suppressed findings stay in
    /// the report (so `--json` consumers and the suppression audit see
    /// them) but never fail the gate and are not printed in text mode.
    pub suppressed: bool,
}

impl Diagnostic {
    /// The `file:line: RULE severity: message` single-line rendering.
    pub fn human(&self) -> String {
        format!(
            "{}:{}: {} {}: {}",
            self.file,
            self.line,
            self.rule,
            self.severity.label(),
            self.message
        )
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::Str(self.rule.to_string())),
            ("severity", Json::Str(self.severity.label().to_string())),
            ("file", Json::Str(self.file.clone())),
            ("line", Json::Num(f64::from(self.line))),
            ("message", Json::Str(self.message.clone())),
            ("suppressed", Json::Bool(self.suppressed)),
        ])
    }
}

/// A whole run's findings plus scan statistics, as serialized by `--json`.
#[derive(Debug)]
pub struct Report {
    /// All findings — suppressed ones included — sorted by
    /// (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of manifests (Cargo.toml) scanned.
    pub manifests_scanned: usize,
    /// Files whose phase-1 analysis was served from the content-addressed
    /// cache (0 when caching is off).
    pub cache_hits: usize,
}

impl Report {
    /// Count of gate-failing findings (suppressed ones don't fail).
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error && !d.suppressed)
            .count()
    }

    /// Count of advisory findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn && !d.suppressed)
            .count()
    }

    /// Count of findings matched by an `mm-allow` suppression.
    pub fn suppressed(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.suppressed).count()
    }

    /// True when nothing gate-failing was found.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::Num(2.0)),
            ("files_scanned", Json::Num(self.files_scanned as f64)),
            (
                "manifests_scanned",
                Json::Num(self.manifests_scanned as f64),
            ),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("errors", Json::Num(self.errors() as f64)),
            ("warnings", Json::Num(self.warnings() as f64)),
            ("suppressed", Json::Num(self.suppressed() as f64)),
            ("diagnostics", self.diagnostics.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "D001",
            severity: Severity::Error,
            file: "crates/core/src/ue.rs".into(),
            line: 87,
            message: "HashMap in a deterministic crate".into(),
            suppressed: false,
        }
    }

    #[test]
    fn human_rendering_is_file_line_rule() {
        assert_eq!(
            diag().human(),
            "crates/core/src/ue.rs:87: D001 error: HashMap in a deterministic crate"
        );
    }

    #[test]
    fn report_json_round_trips_through_the_strict_parser() {
        let mut quiet = diag();
        quiet.suppressed = true;
        let report = Report {
            diagnostics: vec![diag(), quiet],
            files_scanned: 3,
            manifests_scanned: 2,
            cache_hits: 1,
        };
        let text = report.to_json_string();
        let v = Json::parse(&text).expect("valid mm-json");
        assert_eq!(v.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("suppressed").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("cache_hits").and_then(Json::as_u64), Some(1));
        let diags = v
            .get("diagnostics")
            .and_then(|d| d.as_array())
            .expect("array");
        assert_eq!(diags[0].get("rule").and_then(Json::as_str), Some("D001"));
        assert_eq!(diags[0].get("line").and_then(Json::as_u64), Some(87));
        assert_eq!(
            diags[0].get("suppressed").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            diags[1].get("suppressed").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn suppressed_findings_do_not_fail_the_gate() {
        let mut quiet = diag();
        quiet.suppressed = true;
        let report = Report {
            diagnostics: vec![quiet],
            files_scanned: 1,
            manifests_scanned: 0,
            cache_hits: 0,
        };
        assert!(report.is_clean());
        assert_eq!(report.suppressed(), 1);
    }
}
