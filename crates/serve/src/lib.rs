//! # cla-serve — a long-running analysis server
//!
//! The paper's pipeline is batch: compile, link, analyze, print, exit. This
//! crate keeps the expensive part — the solved pre-transitive graph —
//! resident, and answers points-to, alias, and dependence queries against
//! it repeatedly: in process through [`Session`] (built by
//! [`Session::open`] from a [`SessionSpec`]), or over a Unix socket
//! speaking newline-delimited JSON through [`serve`].

pub mod json;

mod client;
mod server;
mod session;

pub use client::{Client, ClientError, Endpoint};
pub use server::{
    handle_request, publish_latency_percentiles, serve, serve_with, Listener, ServeOptions,
    ServerHandle,
};
pub use session::{
    object_provenance, AliasAnswer, DependAnswer, DependentLine, Health, PointsToAnswer,
    ReloadReport, Session, SessionError, SessionSource, SessionSpec, SessionStats, SlowQuery,
    Target, DEFAULT_SLOW_THRESHOLD_US,
};
