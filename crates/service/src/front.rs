//! The one TCP front end: a `std::net` listener speaking the
//! [`crate::wire`] protocol in front of any [`Handler`].
//!
//! Thread-per-connection with a nonblocking accept loop so the front can
//! stop promptly; each connection thread decodes frames and writes one
//! response frame per request frame. The front answers the
//! protocol-level requests itself — `Ping`, `Hello`, and the `Traced`
//! envelope — so a handler only sees the requests that touch its state.
//! [`crate::Server`] is `Front<Engine>`; the cluster router serves
//! through the same type.

use crate::types::ServiceError;
use crate::wire::{self, read_frame, write_frame, WireRequest, WireResponse};
use pardict_trace::{SpanId, TraceCtx, TraceId, Tracer};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a [`Front`] serves: everything behind the protocol layer.
pub trait Handler: Send + Sync + 'static {
    /// The tracer, when this handler records spans. Decides whether the
    /// front advertises [`wire::EXT_TRACE`] and keeps inbound contexts.
    fn tracer(&self) -> Option<&Arc<Tracer>>;

    /// Answer one request. The front answers `Ping` and `Hello` and
    /// strips `Traced` itself (passing its context as `trace`), so
    /// implementations never see those three variants.
    fn handle(&self, req: WireRequest, trace: Option<TraceCtx>) -> WireResponse;
}

/// A running TCP front bound to a local address.
pub struct Front<H: Handler> {
    handler: Arc<H>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl<H: Handler> Front<H> {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(handler: impl Into<Arc<H>>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let handler = handler.into();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_handler = Arc::clone(&handler);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("pardict-accept".into())
            .spawn(move || accept_loop(&listener, &accept_handler, &accept_stop))
            .expect("spawn accept thread");
        Ok(Self {
            handler,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handler this front serves.
    #[must_use]
    pub fn handler(&self) -> &Arc<H> {
        &self.handler
    }

    /// Stop accepting connections and join the accept thread. Existing
    /// connections keep serving until their clients disconnect, and the
    /// handler is not shut down — the owner decides that.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl<H: Handler> Drop for Front<H> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<H: Handler>(listener: &TcpListener, handler: &Arc<H>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handler = Arc::clone(handler);
                // Detached: a connection thread exits on client EOF or I/O
                // error. Joining here would deadlock `stop()` against
                // clients that outlive the front handle.
                let _ = std::thread::Builder::new()
                    .name("pardict-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, &*handler);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Serve one connection until EOF or an I/O error.
fn serve_connection(stream: TcpStream, handler: &impl Handler) -> io::Result<()> {
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    while let Some(payload) = read_frame(&mut reader)? {
        let resp = match WireRequest::decode(&payload) {
            Err(e) => WireResponse::Error {
                code: ServiceError::BadRequest(String::new()).code(),
                message: format!("malformed request: {e}"),
            },
            Ok(req) => dispatch(handler, req),
        };
        write_frame(&mut writer, &resp.encode())?;
    }
    Ok(())
}

fn dispatch(handler: &impl Handler, req: WireRequest) -> WireResponse {
    // Strip the trace wrapper first: the context only takes effect when
    // the handler actually has a tracer (we advertised EXT_TRACE), but a
    // bare Traced frame from a misconfigured peer still executes cleanly.
    let (trace, req) = match req {
        WireRequest::Traced {
            trace,
            parent,
            inner,
        } => (
            handler.tracer().map(|_| TraceCtx {
                trace: TraceId(trace),
                parent: SpanId(parent),
            }),
            *inner,
        ),
        other => (None, other),
    };
    match req {
        WireRequest::Traced { .. } => unreachable!("decode rejects nested trace wrappers"),
        WireRequest::Hello { .. } => WireResponse::Hello {
            // Delta publish needs no per-handler state, so every modern
            // front advertises it; tracing only when a tracer exists.
            extensions: wire::EXT_DELTA
                | if handler.tracer().is_some() {
                    wire::EXT_TRACE
                } else {
                    0
                },
        },
        WireRequest::Ping => WireResponse::Pong,
        req => handler.handle(req, trace),
    }
}
