//! The workspace's one TCP accept/join loop.
//!
//! Both network surfaces — the telemetry endpoint ([`crate::http`]) and
//! the `trass-server` wire protocol — are thread-per-connection servers
//! with the same lifecycle: bind, a named accept thread, one named thread
//! per connection, and a shutdown that sets a stop flag, unblocks
//! `accept()` with a throwaway connection, and joins every thread ever
//! spawned. [`Listener`] is that lifecycle, parameterised by a thread
//! name and a connection handler.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A listener's stop flag plus the means to make its accept loop look at
/// it. Every connection handler gets it: to poll between reads, or to ask
/// for shutdown itself (a wire `shutdown` op).
#[derive(Debug)]
pub struct StopSignal {
    stopped: AtomicBool,
    addr: SocketAddr,
}

impl StopSignal {
    /// Whether shutdown has been requested.
    pub fn is_set(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Requests shutdown without waiting for it. Idempotent.
    pub fn request(&self) {
        self.stopped.store(true, Ordering::Release);
        // The accept loop blocks in accept(); a throwaway connection
        // unblocks it so it can observe the flag.
        if let Ok(s) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5)) {
            drop(s);
        }
    }
}

/// A running thread-per-connection TCP listener with graceful shutdown.
#[derive(Debug)]
pub struct Listener {
    stop: Arc<StopSignal>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the accept thread (named `name`); every connection is handed to
    /// `on_connection` on a thread of its own (named `<name>-conn`).
    pub fn serve(
        addr: &str,
        name: &str,
        on_connection: impl Fn(TcpStream, &StopSignal) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let stop =
            Arc::new(StopSignal { stopped: AtomicBool::new(false), addr: listener.local_addr()? });
        let accept_stop = Arc::clone(&stop);
        let conn_name = format!("{name}-conn");
        let on_connection = Arc::new(on_connection);
        let accept_thread =
            std::thread::Builder::new().name(name.to_string()).spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_stop.is_set() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Reap finished handlers so the vec stays bounded by the
                    // number of concurrent connections.
                    conns.retain(|h| !h.is_finished());
                    let (on_connection, stop) =
                        (Arc::clone(&on_connection), Arc::clone(&accept_stop));
                    let spawned = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || on_connection(stream, &stop));
                    match spawned {
                        Ok(h) => conns.push(h),
                        Err(_) => continue, // connection dropped; client retries
                    }
                }
                for h in conns {
                    let _ = h.join();
                }
            })?;
        Ok(Listener { stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// Stops accepting, waits for in-flight connections, joins every
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            self.stop.request();
            let _ = handle.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}
