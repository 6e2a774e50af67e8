//! The `mmq` query planner and engine (DESIGN.md §11): typed requests over
//! a stored campaign, answered without re-simulation.
//!
//! A [`QueryRequest`] names a target — a store-servable [`Artifact`] or a
//! diversity slice — plus a row [`Predicate`] and an output format, built
//! through the chainable [`QueryBuilder`] (the `Ctx::builder()` style).
//! The [`QueryEngine`] plans it in three layers:
//!
//! 1. **Round pruning** — the campaign manifest lists every appended crawl
//!    round; a `round <= N` ceiling drops whole round files before any I/O.
//! 2. **Predicate pushdown** — surviving rounds are streamed through
//!    [`D2StoreReader::with_predicate`], which skips whole row groups via
//!    the per-group vocabulary stats before decoding a single column.
//! 3. **Aggregation + render** — admitted rows fold into a [`D2Agg`]
//!    (offset by `round × ROUNDS` so appended rounds keep globally unique
//!    round indices), and artifacts render through the exact same
//!    [`crate::run`] path `mmx` uses — which is what makes a neutral
//!    round-0 query byte-identical to `mmx --load`.
//!
//! Rendered texts are cached in the store (`q-…` entries) keyed on the
//! normalized query *and* the manifest content hash, so any `--append`
//! invalidates every cached answer; within one process, aggregates are
//! additionally memoized per predicate so five queries over the same slice
//! scan the store once.

use crate::context::Ctx;
use crate::store::{Manifest, RoundEntry, RunStore};
use crate::stream::D2Agg;
use crate::Artifact;
use mm_exec::Executor;
use mm_json::Json;
use mm_store::fnv1a64;
use mmcarriers::city::City;
use mmcore::DecisiveEvent;
use mmcore::{MmError, NetError, StoreError};
use mmlab::diversity::Diversity;
use mmlab::predicate::{rat_from_key, rat_key, Predicate};
use mmlab::report::table;
use mmlab::store::{D1StoreReader, D2StoreReader, ScanStats};
use mmlab::HandoffInstance;
use mmradio::band::Rat;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Whether `mmq` can serve this artifact from a stored campaign alone.
/// Static tables (2, 3), the world-derived Table 4, and every D2 figure
/// qualify; the drive-test figures (5–10) and the ablations need
/// simulation the store does not hold.
pub const fn store_servable(artifact: Artifact) -> bool {
    artifact.needs_d2_agg() || matches!(artifact, Artifact::T2 | Artifact::T3 | Artifact::T4)
}

/// What a query asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryTarget {
    /// A store-servable table/figure, rendered exactly as `mmx` prints it.
    Artifact(Artifact),
    /// A diversity slice: every parameter's Simpson/Cv/richness for one
    /// `(carrier, RAT)` group, Simpson-sorted (the Fig 16 shape, but for
    /// any carrier and RAT).
    Diversity {
        /// Carrier code (Table 3).
        carrier: String,
        /// RAT generation of the slice.
        rat: Rat,
    },
    /// A handoff summary over the stored drive-test dataset D1, streamed
    /// through [`D1StoreReader::with_predicate`] (carrier/city pushdown):
    /// per decisive event, how many handoffs and the mean ΔRSRP/ΔRSRQ
    /// across them.
    Handoffs {
        /// Idle-state reselections (`d1-idle`) instead of active-state
        /// handoffs (`d1-active`).
        idle: bool,
    },
}

impl QueryTarget {
    /// Stable key of the target — the first component of the normalized
    /// query string, and the id `mmq` prints in its output banners
    /// (identical to the artifact id, so artifact banners match `mmx`).
    pub fn key(&self) -> String {
        match self {
            QueryTarget::Artifact(a) => a.id().to_string(),
            QueryTarget::Diversity { carrier, rat } => {
                format!("div:{carrier}:{}", rat_key(*rat))
            }
            QueryTarget::Handoffs { idle: false } => "ho-active".to_string(),
            QueryTarget::Handoffs { idle: true } => "ho-idle".to_string(),
        }
    }

    /// Whether answering this target scans stored data rows (and can
    /// therefore be grouped by city); static/world-derived tables cannot.
    fn scans_rows(&self) -> bool {
        match self {
            QueryTarget::Artifact(a) => a.needs_d2_agg(),
            QueryTarget::Diversity { .. } | QueryTarget::Handoffs { .. } => true,
        }
    }
}

/// A grouping dimension for query output: one section per group value
/// instead of one merged answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// One section per [`City`], empty cities skipped.
    City,
    /// One section per carrier (Table 3 order), empty carriers skipped —
    /// the other axis the paper slices every D2 question by.
    Carrier,
}

impl GroupBy {
    /// The dimension keyword (`city` / `carrier`) — the `--group-by`
    /// argument and the `group=` component of the normalized query.
    pub fn key(self) -> &'static str {
        match self {
            GroupBy::City => "city",
            GroupBy::Carrier => "carrier",
        }
    }
}

/// Output encoding of a query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryFormat {
    /// The plain text `mmx` prints (the default).
    #[default]
    Text,
    /// A one-line JSON object `{target, predicate, text}`.
    Json,
}

/// A validated query: target, row predicate, output format.
///
/// Construct through [`QueryRequest::artifact`] or
/// [`QueryRequest::diversity`], which return a chainable [`QueryBuilder`]:
///
/// ```
/// use mmexperiments::query::QueryRequest;
/// use mmexperiments::Artifact;
/// let req = QueryRequest::artifact(Artifact::F16)
///     .carrier("A")
///     .rounds_max(0)
///     .build()
///     .unwrap();
/// assert_eq!(req.normalized(), "f16|carrier=A;city=*;param=*;rat=*;round<=0");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// What to render.
    pub target: QueryTarget,
    /// Row constraints (round ceiling applies to whole campaign rounds).
    pub predicate: Predicate,
    /// Optional grouping: render one section per group value.
    pub group_by: Option<GroupBy>,
    /// Output encoding.
    pub format: QueryFormat,
}

impl QueryRequest {
    /// Start building an artifact query.
    pub fn artifact(artifact: Artifact) -> QueryBuilder {
        QueryBuilder::new(QueryTarget::Artifact(artifact))
    }

    /// Start building a diversity-slice query.
    pub fn diversity(carrier: impl Into<String>, rat: Rat) -> QueryBuilder {
        QueryBuilder::new(QueryTarget::Diversity {
            carrier: carrier.into(),
            rat,
        })
    }

    /// Start building a D1 handoff-summary query (`idle` selects the
    /// idle-state reselection dataset instead of active-state handoffs).
    pub fn handoffs(idle: bool) -> QueryBuilder {
        QueryBuilder::new(QueryTarget::Handoffs { idle })
    }

    /// Canonical textual form: `target|predicate[|group=…]`. Two requests
    /// with the same meaning normalize identically, and the query cache
    /// keys on this (the output format deliberately does not participate —
    /// JSON is a decoration of the same cached text; the grouping does,
    /// because it changes the rendered text).
    pub fn normalized(&self) -> String {
        let group = match self.group_by {
            Some(g) => format!("|group={}", g.key()),
            None => String::new(),
        };
        format!(
            "{}|{}{group}",
            self.target.key(),
            self.predicate.normalized()
        )
    }

    /// Encode this request as the wire document `mmq --connect` sends
    /// (DESIGN.md §14). The fields mirror the CLI flags, so the server
    /// rebuilds the request through the same validating builder and a
    /// malformed document is a typed `bad-request` response, not a panic.
    pub fn to_wire(&self) -> Json {
        let p = &self.predicate;
        let opt_str = |v: Option<String>| v.map(Json::Str).unwrap_or(Json::Null);
        Json::obj([
            ("target", Json::Str(self.target.key())),
            ("carrier", opt_str(p.carrier.clone())),
            ("city", opt_str(p.city.map(|c| c.to_string()))),
            ("param", opt_str(p.param.clone())),
            ("rat", opt_str(p.rat.map(|r| rat_key(r).to_string()))),
            (
                "rounds",
                p.round_max
                    .map(|n| Json::Num(n as f64))
                    .unwrap_or(Json::Null),
            ),
            (
                "group_by",
                opt_str(self.group_by.map(|g| g.key().to_string())),
            ),
            (
                "format",
                Json::Str(
                    match self.format {
                        QueryFormat::Text => "text",
                        QueryFormat::Json => "json",
                    }
                    .to_string(),
                ),
            ),
        ])
    }

    /// Decode and re-validate a wire document. Everything flows through
    /// the [`QueryBuilder`], so the server enforces exactly the
    /// constraints local `mmq` does and the two modes cannot drift. An
    /// absent or `null` field is unset; a field of any other wrong type, a
    /// key [`QueryRequest::to_wire`] does not write, a repeated key or a
    /// document that is not an object is a usage error, never a silently
    /// dropped constraint.
    pub fn from_wire(doc: &Json) -> Result<QueryRequest, MmError> {
        const KEYS: [&str; 8] = [
            "target", "carrier", "city", "param", "rat", "rounds", "group_by", "format",
        ];
        let members = doc
            .as_object()
            .ok_or_else(|| MmError::Config("wire query must be a JSON object".to_string()))?;
        for (i, (key, _)) in members.iter().enumerate() {
            if !KEYS.contains(&key.as_str()) {
                return Err(MmError::Config(format!("unknown wire query field {key:?}")));
            }
            if members[..i].iter().any(|(k, _)| k == key) {
                return Err(MmError::Config(format!(
                    "wire query field {key:?} appears twice"
                )));
            }
        }
        let wrong_type = |name: &str, want: &str| {
            MmError::Config(format!("wire query field {name:?} must be {want}"))
        };
        let field = |name: &str| match &doc[name] {
            Json::Null => Ok(None),
            Json::Str(s) => Ok(Some(s.as_str())),
            _ => Err(wrong_type(name, "a string")),
        };
        let target_key = field("target")?
            .ok_or_else(|| MmError::Config("wire query lacks a target".to_string()))?;
        let mut b = if let Some(rest) = target_key.strip_prefix("div:") {
            let (carrier, rat) = rest.split_once(':').ok_or_else(|| {
                MmError::Config(format!("malformed diversity target {target_key:?}"))
            })?;
            let rat = rat_from_key(rat).ok_or_else(|| {
                MmError::Config(format!("unknown RAT in diversity target {target_key:?}"))
            })?;
            QueryRequest::diversity(carrier, rat)
        } else if target_key == "ho-active" {
            QueryRequest::handoffs(false)
        } else if target_key == "ho-idle" {
            QueryRequest::handoffs(true)
        } else {
            QueryRequest::artifact(target_key.parse::<Artifact>()?)
        };
        if let Some(c) = field("carrier")? {
            b = b.carrier(c);
        }
        if let Some(c) = field("city")? {
            let city: City = c
                .parse()
                .map_err(|_| MmError::Config(format!("unknown city code {c:?}")))?;
            b = b.city(city);
        }
        if let Some(p) = field("param")? {
            b = b.param(p);
        }
        if let Some(r) = field("rat")? {
            let rat =
                rat_from_key(r).ok_or_else(|| MmError::Config(format!("unknown RAT key {r:?}")))?;
            b = b.rat(rat);
        }
        if !doc["rounds"].is_null() {
            let n = doc["rounds"].as_u64().and_then(|n| u32::try_from(n).ok());
            b = b.rounds_max(n.ok_or_else(|| wrong_type("rounds", "an integer in 0..=2^32-1"))?);
        }
        match field("group_by")? {
            None => {}
            Some("city") => b = b.group_by_city(),
            Some("carrier") => b = b.group_by_carrier(),
            Some(g) => {
                return Err(MmError::Config(format!(
                    "unknown group_by dimension {g:?} (supported: city, carrier)"
                )))
            }
        }
        match field("format")? {
            None | Some("text") => {}
            Some("json") => b = b.json(),
            Some(f) => {
                return Err(MmError::Config(format!(
                    "unknown format {f:?} (supported: text, json)"
                )))
            }
        }
        b.build()
    }

    /// Apply the output format to a rendered text.
    fn decorate(&self, text: String) -> String {
        match self.format {
            QueryFormat::Text => text,
            QueryFormat::Json => {
                let mut line = Json::obj([
                    ("target", Json::Str(self.target.key())),
                    ("predicate", Json::Str(self.predicate.normalized())),
                    ("text", Json::Str(text)),
                ])
                .to_string();
                line.push('\n');
                line
            }
        }
    }
}

/// Chainable builder for [`QueryRequest`] (see [`QueryRequest::artifact`]).
/// The predicate setters share their names with [`Predicate`]'s.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    target: QueryTarget,
    predicate: Predicate,
    group_by: Option<GroupBy>,
    format: QueryFormat,
}

impl QueryBuilder {
    fn new(target: QueryTarget) -> QueryBuilder {
        QueryBuilder {
            target,
            predicate: Predicate::any(),
            group_by: None,
            format: QueryFormat::Text,
        }
    }

    /// Require this carrier code.
    pub fn carrier(mut self, code: impl Into<String>) -> Self {
        self.predicate = self.predicate.carrier(code);
        self
    }

    /// Require this city.
    pub fn city(mut self, city: City) -> Self {
        self.predicate = self.predicate.city(city);
        self
    }

    /// Require this parameter name.
    pub fn param(mut self, name: impl Into<String>) -> Self {
        self.predicate = self.predicate.param(name);
        self
    }

    /// Require this RAT.
    pub fn rat(mut self, rat: Rat) -> Self {
        self.predicate = self.predicate.rat(rat);
        self
    }

    /// Serve only campaign rounds `<= n` (0 = the original crawl alone).
    pub fn rounds_max(mut self, n: u32) -> Self {
        self.predicate = self.predicate.round_max(n);
        self
    }

    /// Render one section per city (empty cities skipped) instead of one
    /// merged answer. Only meaningful for targets that scan stored rows.
    pub fn group_by_city(mut self) -> Self {
        self.group_by = Some(GroupBy::City);
        self
    }

    /// Render one section per carrier (Table 3 order, empty carriers
    /// skipped). Only meaningful for targets that scan stored rows, and
    /// meaningless for a diversity slice (it already pins one carrier).
    pub fn group_by_carrier(mut self) -> Self {
        self.group_by = Some(GroupBy::Carrier);
        self
    }

    /// Set the output format.
    pub fn format(mut self, format: QueryFormat) -> Self {
        self.format = format;
        self
    }

    /// Shorthand for `format(QueryFormat::Json)`.
    pub fn json(self) -> Self {
        self.format(QueryFormat::Json)
    }

    /// Validate and build. Artifact targets must be store-servable;
    /// diversity targets must name a known carrier, and their carrier/RAT
    /// merge into the predicate (a conflicting explicit constraint is a
    /// usage error, not a silently empty result). Handoff targets reject
    /// constraints D1 rows do not carry, and city grouping rejects
    /// targets/constraints it cannot split. A carrier must be a built-in
    /// code and a parameter a name some D2 row can carry: none is `*`, the
    /// normalized form of an unset field, so no wildcard can share the
    /// neutral query's cache entry.
    pub fn build(self) -> Result<QueryRequest, MmError> {
        let QueryBuilder {
            target,
            mut predicate,
            group_by,
            format,
        } = self;
        if let Some(group) = group_by {
            if !target.scans_rows() {
                return Err(MmError::Config(format!(
                    "--group-by {} needs a target that scans stored rows; \
                     {} is static/world-derived",
                    group.key(),
                    target.key()
                )));
            }
            match group {
                GroupBy::City => {
                    if let Some(c) = predicate.city {
                        return Err(MmError::Config(format!(
                            "--group-by city conflicts with the explicit city constraint {c}"
                        )));
                    }
                }
                GroupBy::Carrier => {
                    if matches!(target, QueryTarget::Diversity { .. }) {
                        return Err(MmError::Config(
                            "--group-by carrier is meaningless for a diversity slice; \
                             the slice already pins one carrier"
                                .to_string(),
                        ));
                    }
                    if let Some(c) = &predicate.carrier {
                        return Err(MmError::Config(format!(
                            "--group-by carrier conflicts with the explicit carrier \
                             constraint {c:?}"
                        )));
                    }
                }
            }
        }
        match &target {
            QueryTarget::Artifact(a) => {
                if !store_servable(*a) {
                    return Err(MmError::Config(format!(
                        "artifact {a} needs simulation the store does not hold; \
                         run `mmx {a}` instead (store-served: t2 t3 t4 f11..f22)"
                    )));
                }
            }
            QueryTarget::Diversity { carrier, rat } => {
                if predicate.carrier.as_deref().is_some_and(|c| c != carrier) {
                    return Err(MmError::Config(format!(
                        "diversity slice over carrier {carrier:?} conflicts with \
                         predicate carrier {:?}",
                        predicate.carrier.as_deref().unwrap_or_default()
                    )));
                }
                if predicate.rat.is_some_and(|r| r != *rat) {
                    return Err(MmError::Config(format!(
                        "diversity slice over rat {} conflicts with predicate rat {}",
                        rat_key(*rat),
                        rat_key(predicate.rat.unwrap_or(*rat))
                    )));
                }
                // Fold the slice coordinates into the predicate so the
                // store scan skips every other carrier/RAT's blocks.
                predicate = predicate.carrier(carrier.clone()).rat(*rat);
            }
            QueryTarget::Handoffs { .. } => {
                // D1 rows carry carrier and city only; a param/RAT/round
                // constraint would silently match everything.
                if let Some(p) = &predicate.param {
                    return Err(MmError::Config(format!(
                        "handoff queries have no parameter column (got --param {p:?})"
                    )));
                }
                if let Some(r) = predicate.rat {
                    return Err(MmError::Config(format!(
                        "handoff queries have no RAT column (got --rat {})",
                        rat_key(r)
                    )));
                }
                if predicate.round_max.is_some() {
                    return Err(MmError::Config(
                        "handoff queries have no rounds dimension; drop --rounds".to_string(),
                    ));
                }
            }
        }
        // A diversity target's carrier is in the predicate by now.
        let carrier = predicate.carrier.as_deref();
        if let Some(c) = carrier.filter(|c| mmcarriers::builtin::intern_code(c).is_none()) {
            return Err(MmError::Config(format!(
                "unknown carrier code {c:?}; see `mmx t3` for Table 3 codes"
            )));
        }
        let param = predicate.param.as_deref();
        if let Some(p) = param.filter(|p| mmlab::store::intern_param(p).is_none()) {
            return Err(MmError::Config(format!(
                "unknown parameter {p:?}; no stored row carries it"
            )));
        }
        Ok(QueryRequest {
            target,
            predicate,
            group_by,
            format,
        })
    }
}

/// One answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The formatted output (text, or a JSON line).
    pub text: String,
    /// Whether the answer came from the store's query cache (no data
    /// blocks were opened).
    pub cached: bool,
    /// Store-scan accounting for freshly planned queries (zero on a cache
    /// or memo hit).
    pub scan: ScanStats,
}

impl QueryResult {
    /// Encode this result as the `Ok` payload mmqd returns. The decorated
    /// text plus the cached flag and scan counters are everything the
    /// client needs to reproduce local `mmq` output byte for byte.
    pub fn to_wire(&self) -> Json {
        Json::obj([
            ("text", Json::Str(self.text.clone())),
            ("cached", Json::Bool(self.cached)),
            ("groups_decoded", Json::Num(self.scan.groups_decoded as f64)),
            ("groups_skipped", Json::Num(self.scan.groups_skipped as f64)),
            ("rows_skipped", Json::Num(self.scan.rows_skipped as f64)),
        ])
    }

    /// Decode a server `Ok` payload back into a result. Every field is
    /// required with its type: a missing or wrong-typed one is wire damage
    /// (a protocol error), not the caller's fault.
    pub fn from_wire(doc: &Json) -> Result<QueryResult, MmError> {
        let damaged = |name: &str, want: &str| {
            MmError::Net(NetError::Protocol(format!(
                "wire result field {name:?} must be {want}"
            )))
        };
        let count = |name: &str| {
            doc[name]
                .as_u64()
                .ok_or_else(|| damaged(name, "a non-negative integer"))
        };
        Ok(QueryResult {
            text: doc["text"]
                .as_str()
                .ok_or_else(|| damaged("text", "a string"))?
                .to_string(),
            cached: doc["cached"]
                .as_bool()
                .ok_or_else(|| damaged("cached", "a bool"))?,
            scan: ScanStats {
                groups_decoded: count("groups_decoded")?,
                groups_skipped: count("groups_skipped")?,
                rows_skipped: count("rows_skipped")?,
            },
        })
    }
}

/// The query engine: one opened store + campaign manifest, serving any
/// number of requests. Per-predicate aggregates are memoized in-process;
/// rendered texts are cached in the store across processes.
///
/// The engine is `Sync`: the memo sits behind a `Mutex`, every `Ctx` is
/// already `Sync` (lazy `OnceLock` slots), and the store is a directory
/// handle — so one engine can serve many mmqd worker threads, and a warm
/// answer rendered on one connection is a memo/cache hit on every other.
pub struct QueryEngine {
    store: RunStore,
    ctx: Ctx,
    manifest: Manifest,
    content_hash: u64,
    /// Row predicate's normalized string and the number of manifest rounds
    /// admitted → (preloaded sub-context, scan stats of the pass that
    /// built it).
    memo: Mutex<BTreeMap<String, (Arc<Ctx>, ScanStats)>>,
}

impl QueryEngine {
    /// Open a store directory for querying. The context supplies the
    /// campaign address (seed/scale/runs/duration); a store with no
    /// campaign at that address is a usage error, and a manifest naming a
    /// data entry that is not on disk is a typed store error *here*, at
    /// open — not an I/O surprise deep inside the first streamed scan.
    pub fn open(dir: &Path, ctx: Ctx) -> Result<QueryEngine, MmError> {
        let store = RunStore::open(dir)?;
        let bytes = store.manifest_bytes(&ctx)?.ok_or_else(|| {
            MmError::Config(
                "store has no campaign for these parameters; \
                 run `mmx crawl --store DIR` first"
                    .to_string(),
            )
        })?;
        // One read: the rounds served and the hash the answers are cached
        // under come from the same bytes, even if an append renames a new
        // manifest in meanwhile.
        let manifest = Manifest::decode(&bytes)?;
        for r in &manifest.rounds {
            let path = store.entry_path(&ctx, &r.entry);
            if !path.exists() {
                return Err(StoreError::Schema(format!(
                    "campaign manifest names round {} entry {:?}, but {} is missing; \
                     the store directory is incomplete (re-crawl or restore the entry)",
                    r.round,
                    r.entry,
                    path.display()
                ))
                .into());
            }
        }
        let content_hash = fnv1a64(&bytes);
        Ok(QueryEngine {
            store,
            ctx,
            manifest,
            content_hash,
            memo: Mutex::new(BTreeMap::new()),
        })
    }

    /// The context this engine serves (campaign address).
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// The campaign manifest (rounds on offer).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// FNV-1a of the manifest bytes — the store's content identity. Every
    /// append rewrites the manifest, so this changes and orphans all
    /// cached query entries.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// The cache address of a request under this store's content.
    pub fn qhash(&self, req: &QueryRequest) -> u64 {
        fnv1a64(format!("{}|store={:016x}", req.normalized(), self.content_hash).as_bytes())
    }

    /// Answer a request: query-cache hit if the store has one, otherwise
    /// plan + render + cache.
    pub fn run(&self, req: &QueryRequest) -> Result<QueryResult, MmError> {
        let qhash = self.qhash(req);
        if let Some(text) = self.store.load_query(&self.ctx, qhash)? {
            return Ok(QueryResult {
                text: req.decorate(text),
                cached: true,
                scan: ScanStats::default(),
            });
        }
        let (text, scan) = self.render(req)?;
        self.store.save_query(&self.ctx, qhash, &text)?;
        Ok(QueryResult {
            text: req.decorate(text),
            cached: false,
            scan,
        })
    }

    /// Plan and render without touching the query cache (the cold path the
    /// latency bench measures).
    pub fn render(&self, req: &QueryRequest) -> Result<(String, ScanStats), MmError> {
        match req.group_by {
            Some(group) => self.render_grouped(req, group),
            None => {
                let (text, scan, _) = self.render_slice(&req.target, &req.predicate)?;
                Ok((text, scan))
            }
        }
    }

    /// One section per group value with any admitted rows — cities in
    /// [`City::ALL`] order, carriers in Table 3 order. Every group's slice
    /// is a separate pushed-down scan (and a separate memo entry), so a
    /// later ungrouped query over one of these slices reuses its
    /// aggregate.
    fn render_grouped(
        &self,
        req: &QueryRequest,
        group: GroupBy,
    ) -> Result<(String, ScanStats), MmError> {
        let slices: Vec<(String, Predicate)> = match group {
            GroupBy::City => City::ALL
                .into_iter()
                .map(|c| (format!("city {c}"), req.predicate.clone().city(c)))
                .collect(),
            GroupBy::Carrier => mmcarriers::profiles()
                .into_iter()
                .map(|p| {
                    (
                        format!("carrier {}", p.code),
                        req.predicate.clone().carrier(p.code),
                    )
                })
                .collect(),
        };
        let mut out = String::new();
        let mut total = ScanStats::default();
        for (label, pred) in slices {
            let (text, scan, rows) = self.render_slice(&req.target, &pred)?;
            total += scan;
            if rows == 0 {
                continue;
            }
            out.push_str(&format!("---- {label} ({rows} rows) ----\n"));
            out.push_str(&text);
            if !text.ends_with('\n') {
                out.push('\n');
            }
        }
        if out.is_empty() {
            out.push_str(&format!("(no rows in any {})\n", group.key()));
        }
        Ok((out, total))
    }

    /// Render one target over one predicate. The third element is how many
    /// stored rows the slice admitted — city grouping skips empty slices.
    fn render_slice(
        &self,
        target: &QueryTarget,
        pred: &Predicate,
    ) -> Result<(String, ScanStats, u64), MmError> {
        match target {
            QueryTarget::Artifact(a) if a.needs_d2_agg() => {
                let (sub, scan) = self.ctx_for(pred)?;
                let rows = sub.d2_agg().len() as u64;
                Ok((crate::run(&sub, *a).text, scan, rows))
            }
            // Static/world-derived tables: no store scan at all.
            QueryTarget::Artifact(a) => {
                Ok((crate::run(&self.ctx, *a).text, ScanStats::default(), 0))
            }
            QueryTarget::Diversity { carrier, rat } => {
                let (sub, scan) = self.ctx_for(pred)?;
                let rows = sub.d2_agg().len() as u64;
                Ok((render_diversity(sub.d2_agg(), carrier, *rat)?, scan, rows))
            }
            QueryTarget::Handoffs { idle } => {
                let (instances, scan) = self.d1_instances(*idle, pred)?;
                let rows = instances.len() as u64;
                Ok((render_handoffs(&instances, *idle, pred), scan, rows))
            }
        }
    }

    /// Stream a stored drive-test D1 entry through the pushed-down reader
    /// (whole row groups are skipped via their carrier/city vocabulary
    /// stats). The two D1 entries exist once a run has `--save`d them.
    fn d1_instances(
        &self,
        idle: bool,
        pred: &Predicate,
    ) -> Result<(Vec<HandoffInstance>, ScanStats), MmError> {
        let entry = if idle { "d1-idle" } else { "d1-active" };
        let file = self
            .store
            .open_round_entry(&self.ctx, entry)?
            .ok_or_else(|| {
                MmError::Config(format!(
                    "store has no {entry} entry for these parameters; persist the drive \
                     datasets first (`mmx f5 --store DIR --save`)"
                ))
            })?;
        let mut reader =
            D1StoreReader::new(BufReader::new(file))?.with_predicate(&pred.without_rounds());
        let mut instances = Vec::new();
        for row in reader.by_ref() {
            instances.push(row?);
        }
        Ok((instances, reader.scan_stats()))
    }

    /// The memoized sub-context holding the aggregate for one predicate.
    /// The key is what the scan reads: the row predicate and the rounds
    /// the ceiling admits, so ceilings that admit the same files share one
    /// aggregate. Concurrent misses on the same key both scan (the lock is
    /// not held across store I/O) and the first insert wins — the
    /// aggregates are deterministic in the key, so either copy is the same
    /// answer.
    fn ctx_for(&self, pred: &Predicate) -> Result<(Arc<Ctx>, ScanStats), MmError> {
        let key = format!(
            "{}|rounds={}",
            pred.without_rounds().normalized(),
            self.admitted_rounds(pred).len()
        );
        {
            // mm-allow(E001): a poisoned memo mutex means a worker already panicked; propagate
            let memo = self.memo.lock().expect("query memo poisoned");
            if let Some((sub, scan)) = memo.get(&key) {
                return Ok((Arc::clone(sub), *scan));
            }
        }
        let (agg, scan) = self.aggregate(pred)?;
        let sub = Ctx::builder()
            .seed(self.ctx.seed)
            .scale(self.ctx.scale)
            .runs(self.ctx.runs)
            .duration_ms(self.ctx.duration_ms)
            .build();
        sub.preload_d2_agg(agg);
        let sub = Arc::new(sub);
        // mm-allow(E001): a poisoned memo mutex means a worker already panicked; propagate
        let mut memo = self.memo.lock().expect("query memo poisoned");
        let (sub, scan) = memo.entry(key).or_insert((Arc::clone(&sub), scan)).clone();
        Ok((sub, scan))
    }

    /// Stream every admitted campaign round through the pushed-down store
    /// reader into one aggregate. The round ceiling prunes whole files
    /// here; the remaining predicate rides down into the readers where the
    /// per-group vocabulary stats skip whole blocks.
    pub fn aggregate(&self, pred: &Predicate) -> Result<(D2Agg, ScanStats), MmError> {
        let row_pred = pred.without_rounds();
        let exec = Executor::from_env();
        let mut agg = D2Agg::new();
        let mut total = ScanStats::default();
        for r in self.admitted_rounds(pred) {
            let file = self
                .store
                .open_round_entry(&self.ctx, &r.entry)?
                .ok_or_else(|| {
                    StoreError::Schema(format!(
                        "manifest round {} names missing entry {:?}",
                        r.round, r.entry
                    ))
                })?;
            let reader = D2StoreReader::new(BufReader::new(file))?
                .with_predicate(&row_pred)
                .with_round_offset(r.round * mmcarriers::world::ROUNDS);
            total += agg.fold_store(reader, &exec)?;
        }
        Ok((agg, total))
    }

    /// The manifest rounds `pred`'s round ceiling admits: a prefix, since
    /// the manifest lists rounds in ascending order.
    fn admitted_rounds(&self, pred: &Predicate) -> &[RoundEntry] {
        let rounds = &self.manifest.rounds;
        let n = rounds.partition_point(|r| pred.round_max.is_none_or(|max| r.round <= max));
        &rounds[..n]
    }
}

/// Render the D1 handoff summary: per decisive event, the instance count,
/// its share, and the mean signal deltas across admitted instances — the
/// Fig 5/6 vocabulary, answered from the store.
fn render_handoffs(instances: &[HandoffInstance], idle: bool, pred: &Predicate) -> String {
    let mut count = [0u64; 10];
    let mut drsrp = [0.0f64; 10];
    let mut drsrq = [0.0f64; 10];
    for i in instances {
        let k = i.record.decisive_event().code() as usize;
        count[k] += 1;
        drsrp[k] += i.record.delta_rsrp_db();
        drsrq[k] += i.record.delta_rsrq_db();
    }
    let total: u64 = count.iter().sum();
    let rows: Vec<Vec<String>> = DecisiveEvent::ALL
        .into_iter()
        .filter(|e| count.get(e.code() as usize).is_some_and(|&n| n > 0))
        .map(|e| {
            let k = e.code() as usize;
            let n = count[k];
            vec![
                e.label().to_string(),
                n.to_string(),
                format!("{:.1}%", 100.0 * n as f64 / total as f64),
                format!("{:+.2}", drsrp[k] / n as f64),
                format!("{:+.2}", drsrq[k] / n as f64),
            ]
        })
        .collect();
    table(
        &format!(
            "{} by decisive event: {} instance(s), {}",
            if idle {
                "Idle-state reselections (D1)"
            } else {
                "Active-state handoffs (D1)"
            },
            total,
            pred.normalized(),
        ),
        &[
            "event",
            "handoffs",
            "share",
            "mean dRSRP dB",
            "mean dRSRQ dB",
        ],
        &rows,
    )
}

/// Render a diversity slice: every parameter of one `(carrier, RAT)`
/// group with its Simpson/Cv/richness, Simpson-sorted (the Fig 16 shape
/// generalized to any carrier and RAT).
fn render_diversity(agg: &D2Agg, carrier: &str, rat: Rat) -> Result<String, MmError> {
    let profile = mmcarriers::by_code(carrier).ok_or_else(|| {
        MmError::Config(format!(
            "unknown carrier code {carrier:?}; see `mmx t3` for Table 3 codes"
        ))
    })?;
    let code = profile.code;
    let mut slice: Vec<(&'static str, Diversity)> = agg
        .param_names(code, rat)
        .into_iter()
        .map(|p| (p, agg.diversity(code, rat, p)))
        .collect();
    slice.sort_by(|a, b| a.1.simpson.total_cmp(&b.1.simpson));
    let rows: Vec<Vec<String>> = slice
        .into_iter()
        .enumerate()
        .map(|(i, (p, d))| {
            vec![
                (i + 1).to_string(),
                p.to_string(),
                format!("{:.3}", d.simpson),
                format!("{:.3}", d.cv),
                d.richness.to_string(),
            ]
        })
        .collect();
    Ok(table(
        &format!(
            "Diversity slice: carrier {code} ({}), rat {}, sorted by Simpson index",
            profile.name,
            rat_key(rat)
        ),
        &["#", "parameter", "Simpson D", "Cv", "richness"],
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mmq-engine-{tag}-{}", std::process::id()))
    }

    /// A tiny stored campaign + an engine over it.
    fn engine(tag: &str) -> (std::path::PathBuf, QueryEngine) {
        let dir = tmp_dir(tag);
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::builder().quick().scale(0.02).build();
        store.save_d2(&ctx).unwrap();
        let fresh = Ctx::builder().quick().scale(0.02).build();
        (dir.clone(), QueryEngine::open(&dir, fresh).unwrap())
    }

    #[test]
    fn builder_validates_targets() {
        assert!(QueryRequest::artifact(Artifact::F16).build().is_ok());
        assert!(QueryRequest::artifact(Artifact::T3).build().is_ok());
        // Drive-test figures and ablations need simulation.
        for a in [
            Artifact::F5,
            Artifact::F10,
            Artifact::AblA3,
            Artifact::Audit,
        ] {
            assert!(matches!(
                QueryRequest::artifact(a).build(),
                Err(MmError::Config(_))
            ));
        }
        assert!(matches!(
            QueryRequest::diversity("nope", Rat::Lte).build(),
            Err(MmError::Config(_))
        ));
        // Conflicting slice/predicate constraints are usage errors.
        assert!(matches!(
            QueryRequest::diversity("A", Rat::Lte).carrier("T").build(),
            Err(MmError::Config(_))
        ));
        assert!(matches!(
            QueryRequest::diversity("A", Rat::Lte).rat(Rat::Gsm).build(),
            Err(MmError::Config(_))
        ));
    }

    /// A carrier or parameter constraint must name something a stored
    /// row can carry, on every target: `*` prints like an unset field, so
    /// an accepted wildcard would share the neutral query's cache entry.
    #[test]
    fn builder_rejects_unknown_carriers_and_parameters() {
        let f16 = || QueryRequest::artifact(Artifact::F16);
        let targets = [
            f16(),
            QueryRequest::artifact(Artifact::T3),
            QueryRequest::handoffs(false),
            QueryRequest::diversity("A", Rat::Lte),
        ];
        for b in targets {
            for carrier in ["*", "ZZ", "a"] {
                let built = b.clone().carrier(carrier).build();
                assert!(matches!(built, Err(MmError::Config(_))), "{carrier:?}");
            }
            for param in ["*", "no-such-parameter"] {
                let built = b.clone().param(param).build();
                assert!(matches!(built, Err(MmError::Config(_))), "{param:?}");
            }
        }
        let req = f16().carrier("A").param("q-Hyst1-s").build().unwrap();
        assert_eq!(
            req.normalized(),
            "f16|carrier=A;city=*;param=q-Hyst1-s;rat=*;round<=*"
        );
    }

    #[test]
    fn diversity_slice_folds_into_the_predicate() {
        let req = QueryRequest::diversity("A", Rat::Umts).build().unwrap();
        assert_eq!(req.predicate.carrier.as_deref(), Some("A"));
        assert_eq!(req.predicate.rat, Some(Rat::Umts));
        assert_eq!(
            req.normalized(),
            "div:A:umts|carrier=A;city=*;param=*;rat=umts;round<=*"
        );
        // Format is a decoration, not part of the cache identity.
        let json = QueryRequest::diversity("A", Rat::Umts)
            .json()
            .build()
            .unwrap();
        assert_eq!(json.normalized(), req.normalized());
    }

    #[test]
    fn neutral_query_matches_mmx_render_exactly() {
        let (dir, eng) = engine("neutral");
        let req = QueryRequest::artifact(Artifact::F16).build().unwrap();
        let cold = eng.run(&req).unwrap();
        assert!(!cold.cached);
        // Reference: the mmx --load path (aggregate streamed off the same
        // store entry, no predicate).
        let reference = Ctx::builder().quick().scale(0.02).build();
        RunStore::open(&dir)
            .unwrap()
            .load_datasets(&reference, &Artifact::ALL)
            .unwrap();
        assert_eq!(cold.text, crate::run(&reference, Artifact::F16).text);
        // Warm: served from the query cache without a scan.
        let warm = eng.run(&req).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.scan, ScanStats::default());
        assert_eq!(warm.text, cold.text);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store holding round 0 plus an appended round 1 revisits every
    /// cell: the engine's fold over both files must render F11–F22 exactly
    /// like the in-memory fold over round 0's rows followed by round 1's,
    /// shifted by `ROUNDS` as the engine's reader shifts them, and agree
    /// with the legacy helpers over those rows.
    #[test]
    fn appended_round_aggregate_renders_like_the_in_memory_fold() {
        let (dir, eng) = engine("appended");
        let ctx = eng.ctx();
        let seed = crate::store::round_seed(ctx.seed, 1);
        let round1 = mmlab::crawl(ctx.world(), seed);
        RunStore::open(&dir)
            .unwrap()
            .append_round(ctx, 1, &round1)
            .unwrap();
        let eng = QueryEngine::open(&dir, Ctx::builder().quick().scale(0.02).build()).unwrap();
        let (streamed, _) = eng.aggregate(&Predicate::any()).unwrap();

        let rows: Vec<_> = eng
            .ctx()
            .d2()
            .iter()
            .chain(round1.iter().map(|mut s| {
                s.round += mmcarriers::world::ROUNDS;
                s
            }))
            .collect();
        let both = mmlab::D2::from_samples(rows);
        crate::stream::tests::assert_agg_matches_legacy(&streamed, &both);
        let baseline = D2Agg::from_dataset(&both);
        assert_eq!(streamed.len(), baseline.len());
        let render = |agg: D2Agg| {
            let sub = Ctx::builder().quick().scale(0.02).build();
            sub.preload_d2_agg(agg);
            Artifact::PAPER
                .into_iter()
                .filter(|a| a.needs_d2_agg())
                .map(|a| crate::run(&sub, a).text)
                .collect::<Vec<_>>()
        };
        let (got, want) = (render(streamed), render(baseline));
        assert_eq!(got.len(), 12, "F11..F22");
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predicate_queries_skip_blocks_and_memoize() {
        let (dir, eng) = engine("pred");
        let req = QueryRequest::artifact(Artifact::F16)
            .carrier("A")
            .rat(Rat::Lte)
            .build()
            .unwrap();
        let cold = eng.run(&req).unwrap();
        assert!(!cold.cached);
        // The crawl clusters carriers, so one carrier's slice decodes at
        // most half of the row groups (9 of 39 at this scale).
        let total = cold.scan.groups_decoded + cold.scan.groups_skipped;
        assert!(
            cold.scan.groups_decoded > 0 && 2 * cold.scan.groups_decoded <= total,
            "carrier predicate skips other carriers' blocks: {:?}",
            cold.scan
        );
        // A second fresh query over the same slice reuses the in-process
        // aggregate (delete the cached text to force a re-render).
        let div = QueryRequest::diversity("A", Rat::Lte).build().unwrap();
        assert_eq!(div.predicate.normalized(), req.predicate.normalized());
        let sliced = eng.run(&div).unwrap();
        assert!(!sliced.cached);
        assert_eq!(sliced.scan, cold.scan, "memo hit re-reports the same scan");
        assert!(sliced.text.contains("Diversity slice: carrier A"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// On a one-round campaign no ceiling, and the ceilings 0, 1, 7 and
    /// `u32::MAX`, all admit round 0's file alone: one aggregate serves
    /// them all.
    #[test]
    fn round_ceilings_admitting_the_same_rounds_share_one_aggregate() {
        let (dir, eng) = engine("ceilings");
        let texts: Vec<String> = [None, Some(0), Some(1), Some(7), Some(u32::MAX)]
            .into_iter()
            .map(|ceiling| {
                let req = QueryRequest::artifact(Artifact::F16);
                let req = match ceiling {
                    Some(n) => req.rounds_max(n),
                    None => req,
                };
                eng.render(&req.build().unwrap()).unwrap().0
            })
            .collect();
        assert!(texts.iter().all(|t| *t == texts[0]), "{texts:?}");
        assert_eq!(eng.memo.lock().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_rejects_unservable_constraints() {
        // D1 rows carry no param/RAT/round columns.
        assert!(matches!(
            QueryRequest::handoffs(false).param("hysteresis").build(),
            Err(MmError::Config(_))
        ));
        assert!(matches!(
            QueryRequest::handoffs(false).rat(Rat::Lte).build(),
            Err(MmError::Config(_))
        ));
        assert!(matches!(
            QueryRequest::handoffs(true).rounds_max(0).build(),
            Err(MmError::Config(_))
        ));
        // Static tables have no rows to group.
        assert!(matches!(
            QueryRequest::artifact(Artifact::T3).group_by_city().build(),
            Err(MmError::Config(_))
        ));
        // Grouping by city conflicts with pinning one city.
        assert!(matches!(
            QueryRequest::artifact(Artifact::F16)
                .city(City::C1)
                .group_by_city()
                .build(),
            Err(MmError::Config(_))
        ));
    }

    #[test]
    fn grouping_is_part_of_the_cache_identity() {
        let flat = QueryRequest::artifact(Artifact::F16).build().unwrap();
        let grouped = QueryRequest::artifact(Artifact::F16)
            .group_by_city()
            .build()
            .unwrap();
        assert_eq!(
            grouped.normalized(),
            format!("{}|group=city", flat.normalized())
        );
    }

    #[test]
    fn handoff_queries_stream_the_stored_d1() {
        let dir = tmp_dir("d1");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::builder().quick().scale(0.02).build();
        store.save_datasets(&ctx).unwrap();
        let eng = QueryEngine::open(&dir, Ctx::builder().quick().scale(0.02).build()).unwrap();

        let all = eng
            .run(&QueryRequest::handoffs(false).build().unwrap())
            .unwrap();
        assert!(!all.cached);
        assert!(all.scan.groups_decoded > 0, "{:?}", all.scan);
        assert!(
            all.text.contains("Active-state handoffs (D1)"),
            "{}",
            all.text
        );

        // A carrier predicate rides down into the D1 reader.
        let sliced = eng
            .run(&QueryRequest::handoffs(false).carrier("A").build().unwrap())
            .unwrap();
        assert!(sliced.text.contains("carrier=A"), "{}", sliced.text);
        assert_ne!(sliced.text, all.text);

        // The idle dataset is a different entry with its own summary.
        let idle = eng
            .run(&QueryRequest::handoffs(true).build().unwrap())
            .unwrap();
        assert!(
            idle.text.contains("Idle-state reselections"),
            "{}",
            idle.text
        );

        // Warm rerun: served from the query cache.
        let warm = eng
            .run(&QueryRequest::handoffs(false).build().unwrap())
            .unwrap();
        assert!(warm.cached);
        assert_eq!(warm.text, all.text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn city_grouping_renders_one_section_per_city() {
        let dir = tmp_dir("group");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::builder().quick().scale(0.02).build();
        store.save_datasets(&ctx).unwrap();
        let eng = QueryEngine::open(&dir, Ctx::builder().quick().scale(0.02).build()).unwrap();

        let grouped = eng
            .run(
                &QueryRequest::handoffs(false)
                    .group_by_city()
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let sections = grouped.text.matches("---- city ").count();
        assert!(sections >= 1, "{}", grouped.text);

        // The same shape works over a D2 figure aggregate.
        let f16 = eng
            .run(
                &QueryRequest::artifact(Artifact::F16)
                    .carrier("A")
                    .group_by_city()
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert!(f16.text.contains("---- city "), "{}", f16.text);
        assert!(
            f16.scan.groups_skipped > 0,
            "per-city predicates skip other blocks: {:?}",
            f16.scan
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_format_wraps_the_same_text() {
        let (dir, eng) = engine("json");
        let text = eng
            .run(&QueryRequest::artifact(Artifact::T3).build().unwrap())
            .unwrap();
        let json = eng
            .run(&QueryRequest::artifact(Artifact::T3).json().build().unwrap())
            .unwrap();
        assert!(json.cached, "same cache entry serves both formats");
        let doc = Json::parse(json.text.trim_end()).unwrap();
        assert_eq!(doc["target"].as_str(), Some("t3"));
        assert_eq!(doc["text"].as_str(), Some(text.text.as_str()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_campaign_is_a_usage_error() {
        let dir = tmp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let Err(err) = QueryEngine::open(&dir, Ctx::quick(2018)) else {
            panic!("open succeeded on an empty store");
        };
        assert!(matches!(err, MmError::Config(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_detects_a_manifest_named_entry_missing_from_disk() {
        let dir = tmp_dir("torn");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::builder().quick().scale(0.02).build();
        store.save_d2(&ctx).unwrap();
        // Tear the store: the manifest survives but a data entry it names
        // does not (a partial restore / interrupted copy).
        let manifest = store.load_manifest(&ctx).unwrap().unwrap();
        let entry = store.entry_path(&ctx, &manifest.rounds[0].entry);
        std::fs::remove_file(&entry).unwrap();
        let Err(err) = QueryEngine::open(&dir, Ctx::builder().quick().scale(0.02).build()) else {
            panic!("open succeeded over a torn store");
        };
        // A typed store error (exit 3), diagnosed at open — not an I/O
        // surprise inside the first scan.
        assert!(matches!(err, MmError::Store(_)), "{err}");
        assert!(!err.is_usage(), "a torn store is not the caller's fault");
        assert!(err.to_string().contains("missing"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn carrier_grouping_folds_into_the_cache_identity() {
        let flat = QueryRequest::artifact(Artifact::F16).build().unwrap();
        let grouped = QueryRequest::artifact(Artifact::F16)
            .group_by_carrier()
            .build()
            .unwrap();
        assert_eq!(
            grouped.normalized(),
            format!("{}|group=carrier", flat.normalized())
        );
        // The two grouping dimensions are distinct cache entries.
        let by_city = QueryRequest::artifact(Artifact::F16)
            .group_by_city()
            .build()
            .unwrap();
        assert_ne!(grouped.normalized(), by_city.normalized());
    }

    #[test]
    fn carrier_grouping_validates_like_city_grouping() {
        // A diversity slice already pins one carrier.
        assert!(matches!(
            QueryRequest::diversity("A", Rat::Lte)
                .group_by_carrier()
                .build(),
            Err(MmError::Config(_))
        ));
        // So does an explicit carrier constraint.
        assert!(matches!(
            QueryRequest::artifact(Artifact::F16)
                .carrier("A")
                .group_by_carrier()
                .build(),
            Err(MmError::Config(_))
        ));
        // Static tables have no rows to group, same as city.
        assert!(matches!(
            QueryRequest::artifact(Artifact::T3)
                .group_by_carrier()
                .build(),
            Err(MmError::Config(_))
        ));
    }

    #[test]
    fn carrier_grouping_renders_one_section_per_carrier() {
        let dir = tmp_dir("gcarrier");
        let store = RunStore::open(&dir).unwrap();
        let ctx = Ctx::builder().quick().scale(0.02).build();
        store.save_datasets(&ctx).unwrap();
        let eng = QueryEngine::open(&dir, Ctx::builder().quick().scale(0.02).build()).unwrap();
        let grouped = eng
            .run(
                &QueryRequest::handoffs(false)
                    .group_by_carrier()
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert!(grouped.text.contains("---- carrier "), "{}", grouped.text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn requests_round_trip_over_the_wire() {
        let reqs = [
            QueryRequest::artifact(Artifact::F16)
                .carrier("A")
                .city(City::C1)
                .rat(Rat::Lte)
                .rounds_max(2)
                .build()
                .unwrap(),
            QueryRequest::diversity("T", Rat::Umts)
                .json()
                .build()
                .unwrap(),
            QueryRequest::handoffs(true).build().unwrap(),
            QueryRequest::artifact(Artifact::F16)
                .group_by_carrier()
                .build()
                .unwrap(),
            QueryRequest::handoffs(false)
                .group_by_city()
                .build()
                .unwrap(),
            QueryRequest::artifact(Artifact::T3).build().unwrap(),
        ];
        for req in reqs {
            let doc = req.to_wire();
            let back = QueryRequest::from_wire(&doc).unwrap();
            assert_eq!(back, req, "wire codec must be lossless: {doc}");
            assert_eq!(back.normalized(), req.normalized());
        }
    }

    #[test]
    fn malformed_wire_requests_are_typed_config_errors() {
        for text in [
            r#"{}"#,
            r#"{"target":"nope"}"#,
            r#"{"target":"div:A"}"#,
            r#"{"target":"div:A:warp"}"#,
            r#"{"target":"f16","city":"Xx"}"#,
            r#"{"target":"f16","group_by":"planet"}"#,
            r#"{"target":"f16","format":"yaml"}"#,
            // Re-validated through the builder: a conflict is caught
            // server-side even if a client hand-rolls the document.
            r#"{"target":"div:A:lte","carrier":"T"}"#,
            // Wildcards normalize like unset fields; they name nothing.
            r#"{"target":"f16","param":"*"}"#,
            r#"{"target":"f16","carrier":"*"}"#,
            // A present field of the wrong type is rejected, not dropped.
            r#"{"target":16}"#,
            r#"{"target":"f16","rounds":"0"}"#,
            r#"{"target":"f16","rounds":1.5}"#,
            r#"{"target":"f16","rounds":-1}"#,
            r#"{"target":"f16","carrier":5}"#,
            r#"{"target":"f16","param":true}"#,
            r#"{"target":"f16","city":1}"#,
            r#"{"target":"f16","group_by":1}"#,
            r#"{"target":"f16","format":1}"#,
            // A key the codec does not write, a repeated key or a
            // non-object is rejected, not read around.
            r#"{"target":"f16","carier":"A"}"#,
            r#"{"target":"f16","round":0}"#,
            r#"{"target":"f16","carrier":"A","carrier":"T"}"#,
            r#"["f16"]"#,
        ] {
            let doc = Json::parse(text).unwrap();
            let err = QueryRequest::from_wire(&doc).unwrap_err();
            // Config or UnknownArtifact — always the caller's fault, which
            // mmqd maps to the usage-flagged `bad-request` response.
            assert!(err.is_usage(), "{doc} -> {err}");
        }
    }

    #[test]
    fn results_round_trip_over_the_wire() {
        let res = QueryResult {
            text: "## f16\nrows\n".to_string(),
            cached: true,
            scan: ScanStats {
                groups_decoded: 3,
                groups_skipped: 9,
                rows_skipped: 4096,
            },
        };
        let back = QueryResult::from_wire(&res.to_wire()).unwrap();
        assert_eq!(back, res);
        // A missing or wrong-typed field is wire damage, not a usage error.
        for text in [
            "{}",
            r#"{"text":"x","cached":"yes","groups_decoded":0,"groups_skipped":0,"rows_skipped":0}"#,
        ] {
            let err = QueryResult::from_wire(&Json::parse(text).unwrap()).unwrap_err();
            assert!(
                matches!(err, MmError::Net(NetError::Protocol(_))) && !err.is_usage(),
                "{text} -> {err}"
            );
        }
    }

    #[test]
    fn engine_is_sync_for_the_worker_pool() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();
    }
}
