#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mmlab — the measurement tool: crawler, datasets, and analysis
//!
//! The reproduction of the paper's MMLab software: a device-centric
//! configuration crawler ([`crawler`], Type-I measurement), drive-test
//! campaign orchestration ([`campaign`], Type-II), the datasets D1/D2
//! ([`dataset`]), the diversity/dependence metrics of Eqs. (4)–(5)
//! ([`diversity`]), and small stats/report helpers used by the experiment
//! harness ([`stats`], [`report`]).

pub mod agg;
pub mod campaign;
pub mod crawler;
pub mod dataset;
pub mod diversity;
pub mod predicate;
pub mod report;
pub mod stats;
pub mod store;

pub use agg::ValueCounts;
pub use campaign::{
    city_network, run_campaign, run_campaigns, run_campaigns_parallel, run_campaigns_stats,
    CampaignConfig, DRIVE_CITIES,
};
pub use crawler::{crawl, crawl_with, crawl_with_stats};
pub use dataset::{ConfigSample, HandoffInstance, D1, D2};
pub use diversity::{diversity, simpson_index, Diversity, Measure};
pub use predicate::Predicate;
pub use store::{D1StoreReader, D2StoreReader, ScanStats, KIND_D1, KIND_D2};
