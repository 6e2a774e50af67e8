//! Shared experiment context: one seeded world, one crawl (D2), and one
//! drive-test campaign pair (active/idle D1), built lazily and shared by
//! every figure so `mmx all` does the expensive work once.
//!
//! D2 holds the crawl's runs, so the context keeps round 0 in one form:
//! the store's write path ([`RunStore::save_d2`](crate::RunStore::save_d2))
//! and the in-memory figure fold both read [`Ctx::d2`], and neither builds
//! the expanded sample list.
//!
//! Every slot is a [`OnceLock`], so a `&Ctx` is `Sync` and `mmx all` can
//! fan independent artifacts out over `mm-exec` worker threads against one
//! pre-warmed context.

use crate::store::round_seed;
use crate::stream::D2Agg;
use crate::Artifact;
use mmcarriers::city::City;
use mmcarriers::world::World;
use mmlab::campaign::{run_campaigns_parallel, CampaignConfig};
use mmlab::dataset::{D1, D2};
use std::sync::OnceLock;

/// The three US cities the paper's Type-II drives covered (Chicago,
/// Indianapolis, Lafayette).
pub const DRIVE_CITIES: [City; 3] = mmlab::DRIVE_CITIES;

/// Carriers whose speedtest campaigns the paper details (Figs 5–9).
pub const ACTIVE_CARRIERS: [&str; 2] = ["A", "T"];

/// All four US carriers (idle-state study, Fig 10).
pub const US_CARRIERS: [&str; 4] = ["A", "T", "V", "S"];

/// Lazily-built shared experiment state.
pub struct Ctx {
    /// Master seed — every derived artifact is deterministic in it.
    pub seed: u64,
    /// World scale (1.0 = the full ~32k-cell population).
    pub scale: f64,
    /// Drive runs per (carrier, city).
    pub runs: usize,
    /// Duration of each drive, ms.
    pub duration_ms: u64,
    world: OnceLock<World>,
    d2: OnceLock<D2>,
    d2_agg: OnceLock<D2Agg>,
    d1_active: OnceLock<D1>,
    d1_idle: OnceLock<D1>,
}

/// Chainable builder for [`Ctx`] — the only way to construct one.
///
/// Defaults are the standard experiment context: seed 2018, a mid-size
/// world (scale 0.25), 6 drive runs of 10 minutes each. [`quick`]
/// (CtxBuilder::quick) switches to the small test preset in one call;
/// every knob can still be overridden after it. `build()` is infallible —
/// all fields have valid defaults and none constrain each other.
///
/// ```
/// use mmexperiments::Ctx;
/// let ctx = Ctx::builder().seed(7).scale(0.1).runs(3).build();
/// let quick = Ctx::builder().quick().seed(7).build();
/// ```
#[derive(Debug, Clone)]
pub struct CtxBuilder {
    seed: u64,
    scale: f64,
    runs: usize,
    duration_ms: u64,
}

impl Default for CtxBuilder {
    fn default() -> Self {
        CtxBuilder {
            seed: 2018,
            scale: 0.25,
            runs: 6,
            duration_ms: 600_000,
        }
    }
}

impl CtxBuilder {
    /// Master seed (default 2018, the paper's year).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// World scale, 1.0 = the full ~32k-cell population (default 0.25).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Drive runs per (carrier, city) (default 6).
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Duration of each drive in milliseconds (default 600 000).
    pub fn duration_ms(mut self, duration_ms: u64) -> Self {
        self.duration_ms = duration_ms;
        self
    }

    /// The small, fast test preset: scale 0.05, 2 runs of 4 minutes.
    /// Later setters still override individual knobs.
    pub fn quick(self) -> Self {
        self.scale(0.05).runs(2).duration_ms(240_000)
    }

    /// Build the context. Infallible: every combination of knobs is a
    /// valid (if possibly slow) experiment.
    pub fn build(self) -> Ctx {
        Ctx {
            seed: self.seed,
            scale: self.scale,
            runs: self.runs,
            duration_ms: self.duration_ms,
            world: OnceLock::new(),
            d2: OnceLock::new(),
            d2_agg: OnceLock::new(),
            d1_active: OnceLock::new(),
            d1_idle: OnceLock::new(),
        }
    }
}

impl Ctx {
    /// Start building a context (see [`CtxBuilder`]).
    pub fn builder() -> CtxBuilder {
        CtxBuilder::default()
    }

    /// Small, fast context for tests — `Ctx::builder().quick().seed(seed)`.
    pub fn quick(seed: u64) -> Self {
        Ctx::builder().quick().seed(seed).build()
    }

    /// The generated world.
    pub fn world(&self) -> &World {
        self.world
            .get_or_init(|| World::generate(self.seed, self.scale))
    }

    /// Dataset D2 (Type-I crawl): round 0, crawled on the ambient executor
    /// (`MM_THREADS` or `available_parallelism()`) unless preloaded.
    pub fn d2(&self) -> &D2 {
        self.d2
            .get_or_init(|| mmlab::crawl(self.world(), round_seed(self.seed, 0)))
    }

    /// The streaming D2 aggregate every D2 figure (11–22) reads. Built
    /// from the in-memory dataset when nothing preloaded it; a store
    /// loader can install a block-streamed aggregate instead (see
    /// [`Ctx::preload_d2_agg`]), in which case `d2()` itself is never
    /// forced and the raw samples stay on disk.
    pub fn d2_agg(&self) -> &D2Agg {
        self.d2_agg.get_or_init(|| D2Agg::from_dataset(self.d2()))
    }

    /// Dataset D1, active-state part (speedtest drives, AT&T + T-Mobile).
    pub fn d1_active(&self) -> &D1 {
        self.d1_active.get_or_init(|| {
            let cfg = CampaignConfig::active(self.seed ^ 0xD1A)
                .runs(self.runs)
                .duration_ms(self.duration_ms)
                .cities(&DRIVE_CITIES);
            run_campaigns_parallel(self.world(), &ACTIVE_CARRIERS, &cfg)
        })
    }

    /// Dataset D1, idle-state part (all four US carriers).
    pub fn d1_idle(&self) -> &D1 {
        self.d1_idle.get_or_init(|| {
            let cfg = CampaignConfig::idle(self.seed ^ 0xD11)
                .runs(self.runs)
                .duration_ms(self.duration_ms)
                .cities(&DRIVE_CITIES);
            run_campaigns_parallel(self.world(), &US_CARRIERS, &cfg)
        })
    }

    /// Install a precomputed D2 (a crawl `mmx crawl` runs and times
    /// itself, or one decoded from a store file) into the lazy slot.
    /// Returns `false` — and drops the value — if the slot was already
    /// built.
    pub fn preload_d2(&self, d2: D2) -> bool {
        self.d2.set(d2).is_ok()
    }

    /// Whether D2 is in memory in this context. The streaming acceptance
    /// tests use this to prove a store-fed run rendered every figure
    /// without ever crawling or reading the dataset.
    pub fn d2_is_materialized(&self) -> bool {
        self.d2.get().is_some()
    }

    /// Install a pre-built D2 aggregate (typically streamed block-by-block
    /// off a store file) into the lazy slot, so figures render without the
    /// raw dataset ever being resident.
    pub fn preload_d2_agg(&self, agg: D2Agg) -> bool {
        self.d2_agg.set(agg).is_ok()
    }

    /// Install a precomputed active-state D1 into the lazy slot.
    pub fn preload_d1_active(&self, d1: D1) -> bool {
        self.d1_active.set(d1).is_ok()
    }

    /// Install a precomputed idle-state D1 into the lazy slot.
    pub fn preload_d1_idle(&self, d1: D1) -> bool {
        self.d1_idle.set(d1).is_ok()
    }

    /// Force every lazy dataset to exist. Tests and callers that want the
    /// whole context use this; `mmx` warms selectively via [`warm_for`]
    /// (Ctx::warm_for).
    pub fn warm(&self) {
        self.d2();
        self.d2_agg();
        self.d1_active();
        self.d1_idle();
    }

    /// Force exactly the shared state the given artifacts will read. `mmx`
    /// calls this once before scattering artifacts over worker threads, so
    /// the expensive shared state is built by the (already parallel)
    /// campaign/crawl paths rather than raced through
    /// `OnceLock::get_or_init` by artifact tasks — and a figure-only run
    /// never pays for campaigns it won't read (at paper scale, the other
    /// way around: never crawls 8M samples for a D1 figure).
    pub fn warm_for(&self, artifacts: &[Artifact]) {
        if artifacts.iter().any(|a| a.needs_d2_agg()) {
            self.d2_agg();
        }
        if artifacts.iter().any(|a| a.needs_d1_active()) {
            self.d1_active();
        }
        if artifacts.iter().any(|a| a.needs_d1_idle()) {
            self.d1_idle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_lazily_and_caches() {
        let ctx = Ctx::quick(1);
        let w1 = ctx.world() as *const _;
        let w2 = ctx.world() as *const _;
        assert_eq!(w1, w2, "world is built once");
        assert!(ctx.world().cells().len() > 100);
    }

    #[test]
    fn quick_d2_has_all_carriers() {
        let ctx = Ctx::quick(2);
        assert_eq!(ctx.d2().carriers().len(), 30);
    }

    #[test]
    fn ctx_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Ctx>();
    }

    #[test]
    fn builder_defaults_match_the_standard_context() {
        let ctx = Ctx::builder().build();
        assert_eq!(ctx.seed, 2018);
        assert_eq!(ctx.scale, 0.25);
        assert_eq!(ctx.runs, 6);
        assert_eq!(ctx.duration_ms, 600_000);
    }

    #[test]
    fn quick_preset_is_overridable() {
        let ctx = Ctx::builder().quick().seed(9).runs(4).build();
        assert_eq!(ctx.seed, 9);
        assert_eq!(ctx.scale, 0.05, "quick scale kept");
        assert_eq!(ctx.runs, 4, "later setter wins over the preset");
        assert_eq!(ctx.duration_ms, 240_000);
    }

    #[test]
    fn quick_shorthand_equals_builder_chain() {
        let a = Ctx::quick(3);
        let b = Ctx::builder().quick().seed(3).build();
        assert_eq!(
            (a.seed, a.scale, a.runs, a.duration_ms),
            (b.seed, b.scale, b.runs, b.duration_ms)
        );
    }
}
