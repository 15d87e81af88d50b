//! The load generator: at most two threads and two connections.
//!
//! * [`open_loop`] holds to a fixed arrival schedule on the calling
//!   thread and reads responses on one receiver thread, which waits on
//!   every connection at once with `poll(2)`. Latency is timed from
//!   each request's *scheduled* send, so a stall charges the requests
//!   queued behind it.
//! * [`closed_loop`] keeps a fixed window of requests in flight on one
//!   connection from the calling thread.
//! * [`exchange`] ships framed batches for the parity gate and the
//!   durability probe.
//!
//! Every connection is counted in [`Conns`], which records how many
//! were ever open at once.

use smartstore_net::frame::{write_all_retry, FrameEvent, FrameReader, FRAME_HEADER_BYTES};
use smartstore_net::{NetAddr, SocketTransport};
use smartstore_persist::codec::Dec;
use smartstore_service::codec::{encode_request, encode_request_batch, get_response};
use smartstore_service::{Request, Response, Transport};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The most connections the generator may hold open at once.
pub const MAX_CONNECTIONS: usize = 2;

/// Connection accounting of one run.
#[derive(Debug, Default)]
pub struct Conns {
    open: AtomicUsize,
    peak: AtomicUsize,
    total: AtomicUsize,
}

/// Keeps one counted connection open; dropping it closes the count.
pub struct ConnGuard<'a>(&'a Conns);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Conns {
    /// Counts a connection about to be opened. Panics past
    /// [`MAX_CONNECTIONS`].
    pub fn open(&self) -> ConnGuard<'_> {
        let now = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        self.total.fetch_add(1, Ordering::SeqCst);
        assert!(
            now <= MAX_CONNECTIONS,
            "load generator would hold {now} connections (limit {MAX_CONNECTIONS})"
        );
        ConnGuard(self)
    }

    /// Most connections ever open at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    /// Connections opened in total.
    pub fn total(&self) -> usize {
        self.total.load(Ordering::SeqCst)
    }
}

fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// How the service answered one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A real answer (query result, applied mutation, stats).
    Ok,
    /// Shed with `Overloaded`.
    Shed,
    /// `Error` / `Unavailable`, an undecodable frame, or lost with its
    /// connection.
    Failed,
}

fn classify(raw: &[u8]) -> Answer {
    let mut d = Dec::new(&raw[FRAME_HEADER_BYTES..]);
    match get_response(&mut d) {
        Ok(Response::Overloaded(_)) => Answer::Shed,
        Ok(Response::Error(_) | Response::Unavailable(_)) | Err(_) => Answer::Failed,
        Ok(_) => Answer::Ok,
    }
}

/// Outcome of one open-loop phase.
#[derive(Debug)]
pub struct OpenResult {
    /// Per request: answer and scheduled-send→response latency (ns).
    pub answers: Vec<Option<(Answer, u64)>>,
    /// Per request: how late the sender put it on the wire (ns).
    pub lateness_ns: Vec<u64>,
}

impl OpenResult {
    /// Latencies (ms) of the requests selected by `pick` that got a
    /// real answer.
    pub fn latencies_ms(&self, pick: impl Fn(usize) -> bool) -> Vec<f64> {
        self.answers
            .iter()
            .enumerate()
            .filter(|(i, _)| pick(*i))
            .filter_map(|(_, a)| match a {
                Some((Answer::Ok, ns)) => Some(*ns as f64 / 1e6),
                _ => None,
            })
            .collect()
    }

    /// Requests whose answer was not a real answer.
    pub fn failed(&self) -> u64 {
        self.answers
            .iter()
            .filter(|a| !matches!(a, Some((Answer::Ok, _))))
            .count() as u64
    }
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

const POLLIN: std::os::raw::c_short = 0x001;

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

/// Waits up to `timeout_ms` until one of `streams` is readable; the
/// returned flags say which. EINTR reads as "none ready".
fn wait_readable(streams: &[&TcpStream], timeout_ms: i32) -> io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout (#[repr(C)]) entries whose descriptors stay
    // open for the call (borrowed from `streams`); poll(2) only writes
    // the `revents` fields inside that array.
    let rc = unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            timeout_ms,
        )
    };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; streams.len()]);
        }
        return Err(e);
    }
    // Any returned event (data, hang-up, error) means a read will not
    // block indefinitely.
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// Replays `reqs` on the fixed schedule `offsets_ns`. With
/// `split_writes`, mutations go on a second connection so reads and
/// writes never queue behind each other on the client side.
pub fn open_loop(
    conns: &Conns,
    addr: SocketAddr,
    reqs: &[Request],
    offsets_ns: &[u64],
    split_writes: bool,
) -> io::Result<OpenResult> {
    assert_eq!(reqs.len(), offsets_ns.len(), "one arrival per request");
    let n_conns = if split_writes { 2 } else { 1 };
    let conn_of = |i: usize| usize::from(split_writes && !reqs[i].is_read());
    let wires: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); n_conns];
    for i in 0..reqs.len() {
        assigned[conn_of(i)].push(i);
    }
    let guards: Vec<ConnGuard<'_>> = (0..n_conns).map(|_| conns.open()).collect();
    let mut writers: Vec<TcpStream> = (0..n_conns)
        .map(|_| dial(addr))
        .collect::<io::Result<_>>()?;
    let readers: Vec<TcpStream> = writers
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<_>>()?;
    let _slack = TightTimers::new();
    let epoch = crate::now() + Duration::from_millis(20);
    let mut lateness_ns = vec![0u64; reqs.len()];

    let answers = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(readers, &assigned, offsets_ns, epoch, reqs.len()));
        for (i, wire) in wires.iter().enumerate() {
            let due = epoch + Duration::from_nanos(offsets_ns[i]);
            sleep_until(due);
            lateness_ns[i] = crate::now().saturating_duration_since(due).as_nanos() as u64;
            if write_all_retry(&mut writers[conn_of(i)], wire).is_err() {
                break;
            }
        }
        // Half-close: the server answers what it read, then closes.
        for w in &writers {
            let _ = w.shutdown(std::net::Shutdown::Write);
        }
        match receiver.join() {
            Ok(a) => a,
            Err(p) => std::panic::resume_unwind(p),
        }
    });
    drop(guards);
    Ok(OpenResult {
        answers,
        lateness_ns,
    })
}

extern "C" {
    fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
}

const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
const PR_GET_TIMERSLACK: std::os::raw::c_int = 30;

/// Shrinks the calling thread's timer slack to 1 ns while it lives, so
/// a send wakes when it is due rather than up to the default 50 µs
/// later; the receiver thread spawned meanwhile inherits it. The
/// server's threads are spawned outside and keep the default.
struct TightTimers(std::os::raw::c_ulong);

impl TightTimers {
    fn new() -> Self {
        // SAFETY: PR_GET_TIMERSLACK takes no further arguments and
        // only reads the calling thread's own timer slack.
        let old = unsafe { prctl(PR_GET_TIMERSLACK) };
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value
        // and only sets the calling thread's own timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong) };
        TightTimers(old.max(0) as std::os::raw::c_ulong)
    }
}

impl Drop for TightTimers {
    fn drop(&mut self) {
        // SAFETY: as in `new`; restores the slack read there.
        unsafe { prctl(PR_SET_TIMERSLACK, self.0) };
    }
}

/// Sleeps until `due`. No spinning: on a two-core host a spinning
/// sender would take CPU from the server it measures. With
/// [`TightTimers`] in force the sleep overshoots by the host's timer
/// latency alone, which the lateness diagnostics show.
fn sleep_until(due: Instant) {
    let now = crate::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Gives up on a connection that has answered nothing for this long.
const STALL: Duration = Duration::from_secs(30);

fn receive(
    streams: Vec<TcpStream>,
    assigned: &[Vec<usize>],
    offsets_ns: &[u64],
    epoch: Instant,
    n: usize,
) -> Vec<Option<(Answer, u64)>> {
    let mut answers: Vec<Option<(Answer, u64)>> = vec![None; n];
    let handles: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().expect("clone a connected socket"))
        .collect();
    let mut readers: Vec<FrameReader<TcpStream>> =
        streams.into_iter().map(FrameReader::new).collect();
    let mut next = vec![0usize; readers.len()];
    let mut done: Vec<bool> = assigned.iter().map(|a| a.is_empty()).collect();
    let mut last_progress = crate::now();
    let mut record = |c: usize, raw: &[u8], next: &mut Vec<usize>| {
        let i = assigned[c][next[c]];
        next[c] += 1;
        let due = epoch + Duration::from_nanos(offsets_ns[i]);
        let lat = crate::now().saturating_duration_since(due).as_nanos() as u64;
        answers[i] = Some((classify(raw), lat));
    };
    while done.iter().any(|d| !d) {
        for c in 0..readers.len() {
            while !done[c] {
                match readers[c].try_buffered() {
                    Ok(Some(raw)) => {
                        record(c, &raw, &mut next);
                        last_progress = crate::now();
                        done[c] = next[c] == assigned[c].len();
                    }
                    Ok(None) => break,
                    Err(_) => done[c] = true,
                }
            }
        }
        let live: Vec<usize> = (0..readers.len()).filter(|&c| !done[c]).collect();
        if live.is_empty() {
            break;
        }
        let socks: Vec<&TcpStream> = live.iter().map(|&c| &handles[c]).collect();
        let ready = match wait_readable(&socks, 200) {
            Ok(r) => r,
            Err(_) => break,
        };
        if !ready.iter().any(|&r| r) && last_progress.elapsed() > STALL {
            break;
        }
        for (k, &c) in live.iter().enumerate() {
            if !ready[k] {
                continue;
            }
            match readers[c].poll() {
                Ok(FrameEvent::Frame(raw)) => {
                    record(c, &raw, &mut next);
                    last_progress = crate::now();
                    done[c] = next[c] == assigned[c].len();
                }
                Ok(FrameEvent::Pause) => {}
                Ok(FrameEvent::Eof) | Err(_) => done[c] = true,
            }
        }
    }
    answers
}

/// Outcome of one closed-loop phase.
#[derive(Debug)]
pub struct ClosedResult {
    /// Requests answered (any answer).
    pub completed: u64,
    /// Requests whose answer was not a real answer.
    pub failed: u64,
    /// First send to last response, seconds.
    pub elapsed_s: f64,
    /// Where the next phase on the same segment starts.
    pub next: usize,
}

/// Sends the encoded requests `wires` round and round, from `start`,
/// on one connection with `window` requests in flight until `seconds`
/// have passed, then drains the window.
pub fn closed_loop(
    conns: &Conns,
    addr: SocketAddr,
    wires: &[Vec<u8>],
    start: usize,
    window: usize,
    seconds: f64,
) -> io::Result<ClosedResult> {
    assert!(!wires.is_empty() && window > 0);
    let _guard = conns.open();
    let mut writer = dial(addr)?;
    writer.set_read_timeout(Some(STALL))?;
    let mut reader = FrameReader::new(writer.try_clone()?);
    let t0 = crate::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut next = start;
    let mut res = ClosedResult {
        completed: 0,
        failed: 0,
        elapsed_s: 0.0,
        next: start,
    };
    let mut send = |writer: &mut TcpStream| -> io::Result<()> {
        write_all_retry(writer, &wires[next % wires.len()])?;
        next += 1;
        Ok(())
    };
    for _ in 0..window {
        send(&mut writer)?;
    }
    let mut in_flight = window;
    while in_flight > 0 {
        in_flight -= 1;
        let raw = match reader.poll() {
            Ok(FrameEvent::Frame(raw)) => raw,
            _ => {
                res.failed += 1 + in_flight as u64;
                break;
            }
        };
        res.completed += 1;
        if classify(&raw) != Answer::Ok {
            res.failed += 1;
        }
        if crate::now() < deadline {
            send(&mut writer)?;
            in_flight += 1;
        }
    }
    res.elapsed_s = crate::secs_since(t0);
    res.next = next;
    Ok(res)
}

/// Ships `reqs` over a fresh socket in batches of `batch` and returns
/// each batch's framed response bytes.
pub fn exchange(
    conns: &Conns,
    addr: SocketAddr,
    reqs: &[Request],
    batch: usize,
) -> io::Result<Vec<Vec<u8>>> {
    let _guard = conns.open();
    let mut socket = SocketTransport::connect(NetAddr::Tcp(addr))
        .map_err(|e| io::Error::other(format!("connect: {e}")))?;
    reqs.chunks(batch)
        .map(|b| {
            socket
                .exchange(&encode_request_batch(b), b.len())
                .map_err(|e| io::Error::other(format!("exchange: {e}")))
        })
        .collect()
}

/// Sends `reqs` one at a time on one connection (one request in
/// flight) and returns each round trip, microseconds.
pub fn ping_pong(conns: &Conns, addr: SocketAddr, reqs: &[Request]) -> io::Result<Vec<f64>> {
    let _guard = conns.open();
    let mut writer = dial(addr)?;
    writer.set_read_timeout(Some(STALL))?;
    let mut reader = FrameReader::new(writer.try_clone()?);
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        let wire = encode_request(r);
        let t = crate::now();
        write_all_retry(&mut writer, &wire)?;
        match reader.poll() {
            Ok(FrameEvent::Frame(raw)) if classify(&raw) == Answer::Ok => {}
            other => return Err(io::Error::other(format!("ping-pong answer: {other:?}"))),
        }
        out.push(crate::nanos_since(t) as f64 / 1e3);
    }
    Ok(out)
}
