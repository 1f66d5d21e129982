//! TCP front end for the router: the same wire protocol the backends
//! speak, so any existing [`Client`](pardict_service::Client) can point
//! at a cluster instead of a single node without changing a byte —
//! except that container grep comes back as the richer
//! [`WireResponse::ClusterHits`] carrying the degraded-mode flag. The
//! transport is the service's generic [`Front`]; this module only adds
//! the router's [`Handler`].

use crate::router::{ClusterError, Router};
use pardict_service::wire::{WireRequest, WireResponse};
use pardict_service::{Front, Handler, ServiceError};
use pardict_trace::{TraceCtx, Tracer};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// A running cluster front end bound to a local address.
pub struct RouterServer(Front<Router>);

impl RouterServer {
    /// Bind `addr` (port 0 for ephemeral) and start accepting.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(router: Arc<Router>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        Front::start(router, addr).map(Self)
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// The router this server fronts.
    #[must_use]
    pub fn router(&self) -> &Arc<Router> {
        self.0.handler()
    }

    /// Stop accepting; existing connections drain on client EOF.
    pub fn stop(&mut self) {
        self.0.stop();
    }
}

fn error_response(e: &ClusterError) -> WireResponse {
    let (code, message) = e.to_wire();
    WireResponse::Error { code, message }
}

impl Handler for Router {
    fn tracer(&self) -> Option<&Arc<Tracer>> {
        Router::tracer(self)
    }

    fn handle(&self, req: WireRequest, trace: Option<TraceCtx>) -> WireResponse {
        match req {
            WireRequest::Ping | WireRequest::Hello { .. } | WireRequest::Traced { .. } => {
                unreachable!("answered by the front")
            }
            WireRequest::Dicts => WireResponse::DictList(self.dict_digests()),
            WireRequest::Metrics => WireResponse::MetricsReport(self.report()),
            WireRequest::Stats => match self.merged_stats() {
                Ok((snap, _degraded)) => WireResponse::Stats(snap),
                Err(e) => error_response(&e),
            },
            WireRequest::Publish { name, patterns } => match self.publish(&name, &patterns) {
                Ok(summary) => WireResponse::Published {
                    version: summary.version,
                    cache_hit: false,
                },
                Err(e) => error_response(&e),
            },
            WireRequest::PubDelta {
                name,
                parent_version,
                adds,
                removes,
            } => {
                // The router's own view is authoritative for the parent: a
                // client delta against a superseded version is refused the
                // same way a single node refuses it.
                let current = self
                    .dict_digests()
                    .into_iter()
                    .find(|(n, _, _)| *n == name)
                    .map(|(_, v, _)| v);
                if current != Some(parent_version) {
                    return WireResponse::Error {
                        code: ServiceError::BadRequest(String::new()).code(),
                        message: format!(
                            "delta parent version {parent_version} does not match current {current:?}"
                        ),
                    };
                }
                match self.publish_delta(&name, &pardict_core::DictDelta { adds, removes }) {
                    Ok(summary) => WireResponse::Published {
                        version: summary.version,
                        cache_hit: false,
                    },
                    Err(e) => error_response(&e),
                }
            }
            WireRequest::Op {
                tag,
                dict,
                text,
                timeout_ms,
            } => match self.op_traced(tag, &dict, &text, timeout_ms, trace).result {
                Ok(resp) => resp,
                Err(e) => error_response(&e),
            },
        }
    }
}
