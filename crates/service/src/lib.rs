//! The ERASER campaign service: an async (queued, worker-pool) campaign
//! server with pluggable result backends, fronted by the unified
//! [`CampaignSpec`](eraser_core::CampaignSpec) API.
//!
//! Three layers, each usable on its own:
//!
//! * [`store`] — the [`ResultStore`] trait and its two backends: the
//!   in-memory [`MemStore`] and the append-only, crash-recovering
//!   [`JournalStore`]. A [`CampaignRecord`] round-trips bit-faithfully:
//!   coverage detections and every redundancy counter survive
//!   persistence exactly.
//! * [`service`] — [`CampaignService`]: a bounded FIFO job queue drained
//!   by a worker pool, each worker resolving its spec ([`prepare_spec`]),
//!   running [`run_campaign_with`](eraser_core::run_campaign_with) and
//!   storing the record; a repeat of a spec the service ran is answered
//!   from the store.
//! * [`http`] — [`HttpServer`]: a dependency-free HTTP/1.1 front end
//!   over `std::net` exposing `POST /campaigns`, `GET /campaigns/:id`,
//!   `GET /campaigns/:id/result` and `GET /healthz`.
//!
//! The service adds no semantics: every campaign it runs or answers from
//! the store carries coverage and semantic counters bit-identical to a
//! direct [`run_campaign`](eraser_core::run_campaign) call with the same
//! resolved config, which the end-to-end HTTP test asserts.

pub mod http;
pub mod record;
pub mod service;
pub mod store;

pub use http::HttpServer;
pub use record::CampaignRecord;
pub use service::{
    prepare_spec, CampaignService, JobStatus, PreparedCampaign, ServiceHandle, StatusView,
    SubmitError,
};
pub use store::{open_store, JournalStore, MemStore, ResultStore, StoreError};
