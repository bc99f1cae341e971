//! # p3-service — cross-process provenance queries over shared sessions
//!
//! The in-process facade (`p3_core::P3` + `QuerySession`) answers the four
//! EDBT 2020 query classes with shared memoization; this crate puts that
//! behind a socket so *processes* can share one warm session too. A
//! [`server::Server`] owns one `P3` + `QuerySession` and serves
//! Explanation, Derivation, Influence and Modification queries — plus
//! plain `probability`, `load-program` and `stats` — over a
//! newline-delimited JSON protocol on TCP and Unix-domain sockets.
//!
//! Everything is hand-rolled on `std::net` / `std::os::unix::net`: the
//! [`json`] module is a minimal JSON codec, [`protocol`] the op table
//! ([`protocol::OPS`], which the decoder, the server and `p3-client` all
//! read) and the request and response envelopes, [`server`] the
//! accept-loop → bounded-queue → worker-pool machinery (deadlines,
//! graceful shutdown, stats), `admin` the HTTP observability plane
//! (`/metrics`, `/healthz`, `/readyz`, `/traces`, `/profile`, `/audit`,
//! `/audit/top`, `/slo`, `/explain`, `/analyze` on `--admin-addr`), and
//! [`client`] a small blocking client used by `p3-client`, the tests and
//! the benches.
//!
//! ```no_run
//! use p3_service::server::{Server, ServerConfig};
//! use p3_service::client::Client;
//!
//! let p3 = p3_core::P3::from_source("t 0.5: a(1).").unwrap();
//! let server = Server::start(p3, ServerConfig {
//!     tcp: Some("127.0.0.1:0".to_string()),
//!     ..Default::default()
//! }).unwrap();
//!
//! let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
//! let resp = client.request(r#"{"op":"probability","query":"a(1)"}"#).unwrap();
//! assert_eq!(resp.status, p3_service::protocol::Status::Ok);
//! server.shutdown();
//! server.join();
//! ```

mod admin;
pub mod client;
pub mod json;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod stats;
