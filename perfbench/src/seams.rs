//! The benchmark's probes on the executor and protocol seams.
//!
//! Every number here is taken from outside the program: an `Executor`
//! decorator times `Executor::send`, and a TCP proxy times the
//! `quickstrom_protocol::wire` encode, frame-wait and decode calls it makes.
//! Nothing is added inside the checker.

use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::registry::Entry;
use quickstrom::quickstrom_protocol::wire;
use quickstrom::quickstrom_protocol::{CheckerMsg, ExecutorMsg};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The latency the remote server adds before every executor reply, as in
/// `examples/remote_executor.rs` (a stand-in for a browser round trip).
pub const REMOTE_LATENCY: Duration = Duration::from_millis(1);

/// What one check's probes saw. Send and wire timings are recorded only
/// when tracing; connect time always, because it is part of `setup_s`.
#[derive(Debug, Default, Clone)]
pub struct SeamTotals {
    /// Duration of every `Executor::send`, in nanoseconds, in call order.
    pub send_ns: Vec<u64>,
    /// Seconds serialising and framing checker messages onto the socket
    /// (`wire::encode_checker_msg` + `wire::write_frame`).
    pub encode_s: f64,
    /// Seconds blocked in `wire::read_frame` waiting for a reply frame.
    pub wait_s: f64,
    /// Seconds in `wire::decode_executor_batch`.
    pub decode_s: f64,
    /// Frame bytes written plus read, length prefixes included.
    pub wire_bytes: u64,
    /// Seconds spent opening TCP sessions to the server.
    pub connect_s: f64,
}

/// A per-check collector shared by every executor the check creates. The
/// executors live on the checker's driver threads, hence the mutex.
#[derive(Debug, Default)]
pub struct Probe {
    trace: bool,
    totals: Mutex<SeamTotals>,
}

impl Probe {
    pub fn new(trace: bool) -> Arc<Probe> {
        Arc::new(Probe {
            trace,
            totals: Mutex::default(),
        })
    }

    fn with<R>(&self, f: impl FnOnce(&mut SeamTotals) -> R) -> R {
        f(&mut self.totals.lock().expect("a probe holder panicked"))
    }

    /// Takes what the probe saw; the probe starts empty again.
    pub fn take(&self) -> SeamTotals {
        self.with(std::mem::take)
    }
}

/// Times `Executor::send` on any executor. `transport_stats` is forwarded:
/// the trait's default reports zeros, which would read as "no bytes
/// shipped" rather than "not measured".
pub struct TimedExecutor {
    inner: Box<dyn Executor>,
    probe: Arc<Probe>,
}

impl TimedExecutor {
    pub fn wrap(inner: Box<dyn Executor>, probe: &Arc<Probe>) -> Box<dyn Executor> {
        Box::new(TimedExecutor {
            inner,
            probe: Arc::clone(probe),
        })
    }
}

impl Executor for TimedExecutor {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        let started = Instant::now();
        let replies = self.inner.send(msg);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.probe.with(|t| t.send_ns.push(ns));
        replies
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

/// The checker side of a remote session: one TCP connection, one framed
/// request and one framed reply batch per `send`.
pub struct RemoteExecutor {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    probe: Arc<Probe>,
}

impl RemoteExecutor {
    pub fn connect(addr: SocketAddr, probe: &Arc<Probe>) -> std::io::Result<Self> {
        let started = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let remote = RemoteExecutor {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            probe: Arc::clone(probe),
        };
        let connect_s = started.elapsed().as_secs_f64();
        probe.with(|t| t.connect_s += connect_s);
        Ok(remote)
    }
}

impl Executor for RemoteExecutor {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        let trace = self.probe.trace;
        let t0 = Instant::now();
        let request = wire::encode_checker_msg(&msg);
        wire::write_frame(&mut self.writer, &request).expect("ship the checker message");
        let t1 = Instant::now();
        let reply = wire::read_frame(&mut self.reader)
            .expect("read the reply frame")
            .expect("the server closed mid-session");
        let t2 = Instant::now();
        let batch = wire::decode_executor_batch(&reply).expect("decode the reply batch");
        if trace {
            let t3 = Instant::now();
            self.probe.with(|t| {
                t.encode_s += (t1 - t0).as_secs_f64();
                t.wait_s += (t2 - t1).as_secs_f64();
                t.decode_s += (t3 - t2).as_secs_f64();
                t.wire_bytes += (request.len() + reply.len() + 8) as u64;
            });
        }
        batch
    }
}

/// A loopback executor server on one thread. It serves sessions one after
/// another, which suffices because a check with default options keeps one
/// session in flight.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<TransportStats, String>>,
}

impl Server {
    /// Binds an ephemeral local port and serves `entry` from a new thread,
    /// behind `LatencyExecutor::new(WebExecutor, REMOTE_LATENCY)`.
    pub fn start(entry: &'static Entry) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut shipped = TransportStats::default();
            for conn in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let stream = conn.map_err(|e| format!("accept: {e}"))?;
                shipped.absorb(serve_session(stream, entry).map_err(|e| format!("{e:?}"))?);
            }
            Ok(shipped)
        });
        Ok(Server { addr, stop, handle })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and returns the transport statistics of every
    /// session it served, as its executors counted them.
    pub fn shutdown(self) -> Result<TransportStats, String> {
        self.stop.store(true, Ordering::SeqCst);
        // Wakes the blocking accept so the loop sees the flag.
        let woke = TcpStream::connect(self.addr);
        let served = self
            .handle
            .join()
            .map_err(|_| "the server thread panicked".to_string())?;
        woke.map_err(|e| format!("wake the server: {e}"))?;
        served
    }
}

fn serve_session(
    stream: TcpStream,
    entry: &'static Entry,
) -> Result<TransportStats, wire::WireError> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut executor =
        LatencyExecutor::new(WebExecutor::new(move || entry.build()), REMOTE_LATENCY);
    while let Some(payload) = wire::read_frame(&mut reader)? {
        let msg = wire::decode_checker_msg(&payload)?;
        let done = matches!(msg, CheckerMsg::End);
        let replies = executor.send(msg);
        wire::write_frame(&mut writer, &wire::encode_executor_batch(&replies))?;
        if done {
            break;
        }
    }
    Ok(executor.transport_stats())
}
