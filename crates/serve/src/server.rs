//! The resident campaign service: accept loop, priority job queue, worker
//! pool, and live NDJSON result streaming.
//!
//! # Architecture
//!
//! Nothing in the service polls or sleeps: every thread blocks on the event
//! it serves. [`Server::run`] blocks in `accept` and spawns one thread per
//! connection, which parses the request and, for `/submit`, owns the
//! response stream for its job's lifetime. Jobs wait in a priority queue
//! (higher [`JobPriority`] first, FIFO within a priority) drained by a
//! fixed pool of worker threads parked on a condvar. Each worker runs its
//! job as a single-threaded [`Campaign`] — pool parallelism is *across*
//! jobs — and forwards results through a per-job channel: the connection
//! thread turns them into HTTP chunks the moment they arrive. The worker
//! looks the points up when the job *starts*, so dedup is completion-based:
//! what an earlier job finished in the meantime is served, not simulated.
//!
//! # The serving contract
//!
//! Every streamed run line is produced by [`run_to_json`], the same
//! renderer the one-shot CLI uses, and simulations are bit-identical at any
//! thread count — so a served line is byte-identical to the one-shot line
//! for the same point, whether it was computed now, computed by an earlier
//! job (dedup cache), or restored from a cache snapshot written before the
//! server was last restarted.
//!
//! # Shutdown
//!
//! `/shutdown` puts the server into *draining*: new submissions get a 503,
//! queued and running jobs finish and stream out normally. Whoever makes
//! the drain complete — the `/shutdown` handler on an idle server, else the
//! worker that finishes the last job — wakes the accept loop with one
//! loopback connect; the loop checks for a completed drain on every accept,
//! then workers exit, the cache is persisted, and [`Server::run`] returns.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use tc_system::campaign::panic_message;
use tc_system::{run_to_json, Campaign, RunReport};
use tc_types::{JobId, JobPriority, JobState, Json};

use crate::cache::ResultCache;
use crate::http::{read_request, write_response, ChunkedWriter, Request};
use crate::line::JobLine;
use crate::submission::{cache_key, Submission};

/// How long a connection thread waits for a request to arrive: a dead
/// client must not pin its thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long one write may block: a client that stops reading fills its
/// window, and its connection thread gives the stream up after this long
/// (the worker still finishes the job and fills the cache).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Finished jobs `/status` still lists. Older records are dropped, so the
/// job table — walked under the state lock — is bounded by this plus the
/// jobs still queued or running.
const FINISHED_JOBS_KEPT: usize = 256;

/// Bound on one wake-up connect, and how many are tried.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
const WAKE_ATTEMPTS: usize = 5;

/// How long the accept loop waits after the process or host ran out of
/// descriptors, socket buffers or memory, for finishing connections to give
/// some back.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// The errno values of that exhaustion: ENOMEM, ENFILE, EMFILE and ENOBUFS
/// (105 on Linux, 55 on macOS and the BSDs).
const EXHAUSTED: [i32; 4] = [12, 23, 24, if cfg!(target_os = "linux") { 105 } else { 55 }];

/// What the accept loop does after `accept` fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptFailure {
    /// Only that connection failed (a signal, or a peer that went away while
    /// queued): accept the next at once.
    Retry,
    /// A resource ran out ([`EXHAUSTED`]): accept again after
    /// [`ACCEPT_BACKOFF`].
    Backoff,
    /// The listener itself failed: `run` returns the error.
    Fatal,
}

fn classify_accept_error(e: &io::Error) -> AcceptFailure {
    use io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted};
    match (e.kind(), e.raw_os_error()) {
        (Interrupted | ConnectionAborted | ConnectionReset, _) => AcceptFailure::Retry,
        (_, Some(errno)) if EXHAUSTED.contains(&errno) => AcceptFailure::Backoff,
        _ => AcceptFailure::Fatal,
    }
}

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Worker threads, i.e. jobs simulated concurrently.
    pub workers: usize,
    /// When set, the dedup cache is loaded from here at bind time and
    /// persisted here at drain time, so a restarted server keeps history.
    pub cache_path: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7533".to_string(),
            workers: 2,
            cache_path: None,
        }
    }
}

/// Counters reported when the server drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs that completed successfully.
    pub jobs_completed: u64,
    /// Jobs that failed (a point panicked mid-run).
    pub jobs_failed: u64,
    /// Points actually simulated.
    pub points_run: u64,
    /// Points served from the dedup cache.
    pub points_cached: u64,
    /// Cache entries at shutdown.
    pub cache_entries: usize,
}

/// A queued job: ordered by priority (high first), then submission order.
#[derive(Debug, PartialEq, Eq)]
struct QueuedJob {
    priority: JobPriority,
    seq: u64,
    job: u64,
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins; within a
        // priority, the *earlier* submission (smaller seq) must compare
        // greater.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct JobRecord {
    state: JobState,
    priority: JobPriority,
    points_total: usize,
    points_done: usize,
    cache_hits: usize,
    /// Taken by the worker when the job starts.
    submission: Option<Submission>,
    /// Stream back to the connection thread; dropped when the job ends.
    events: Option<Sender<JobLine>>,
}

struct ServerState {
    queue: BinaryHeap<QueuedJob>,
    /// Every queued and running job, and the latest finished ones.
    jobs: BTreeMap<u64, JobRecord>,
    /// The finished jobs still in `jobs`, oldest first.
    finished: VecDeque<u64>,
    /// Finished records dropped to keep `jobs` bounded.
    jobs_dropped: u64,
    next_job_id: u64,
    next_seq: u64,
    running: usize,
    draining: bool,
    cache: ResultCache,
    jobs_completed: u64,
    jobs_failed: u64,
    points_run: u64,
    points_cached: u64,
}

impl ServerState {
    /// Draining, and nothing left that needs a worker: `run` may return.
    /// Once true it stays true — a draining server queues nothing.
    fn drained(&self) -> bool {
        self.draining && self.queue.is_empty() && self.running == 0
    }

    /// Records how a job ended, `Ok((ran, cache_hits))` or failed, in its
    /// record and the lifetime counters, then drops the oldest finished
    /// record beyond [`FINISHED_JOBS_KEPT`].
    fn finish(&mut self, job: u64, outcome: Result<(usize, usize), String>) {
        let record = self
            .jobs
            .get_mut(&job)
            .expect("a job that ends has a record");
        record.events = None;
        match outcome {
            Ok((ran, cache_hits)) => {
                record.state = JobState::Done;
                record.points_done = record.points_total;
                record.cache_hits = cache_hits;
                self.jobs_completed += 1;
                self.points_run += ran as u64;
                self.points_cached += cache_hits as u64;
            }
            Err(_) => {
                record.state = JobState::Failed;
                self.jobs_failed += 1;
            }
        }
        self.finished.push_back(job);
        if self.finished.len() > FINISHED_JOBS_KEPT {
            let oldest = self.finished.pop_front().expect("just pushed");
            self.jobs.remove(&oldest);
            self.jobs_dropped += 1;
        }
    }
}

struct Shared {
    state: Mutex<ServerState>,
    work_ready: Condvar,
    /// Where a connect reaches the listener: the bound address, with the
    /// loopback address of the same family in place of an unspecified one.
    wake_addr: SocketAddr,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ServerState> {
        self.state
            .lock()
            .expect("no thread panics while it holds the state lock")
    }

    /// Gets the accept loop out of `accept` so that it sees the drain is
    /// complete. Called by whoever made [`ServerState::drained`] true, after
    /// releasing the lock. A refused connect means `run` has returned
    /// already; any other failure is retried, and if every attempt fails the
    /// next connection of any kind ends the loop instead.
    fn wake_accept_loop(&self) {
        for _ in 0..WAKE_ATTEMPTS {
            match TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT) {
                Ok(_) => return,
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return,
                Err(_) => {}
            }
        }
    }
}

/// A bound, not-yet-running campaign service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
    cache_path: Option<PathBuf>,
    /// Why a configured cache file was not restored (missing is silent;
    /// corrupt or unreadable is reported here), for the operator to print.
    pub cache_warning: Option<String>,
}

impl Server {
    /// Binds the listener and loads the cache (if configured).
    ///
    /// # Errors
    ///
    /// Returns the bind error; cache problems degrade to an empty cache
    /// with [`Server::cache_warning`] set instead of failing.
    pub fn bind(options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let (cache, cache_warning) = match &options.cache_path {
            Some(path) => ResultCache::load_or_empty(path),
            None => (ResultCache::new(), None),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(ServerState {
                    queue: BinaryHeap::new(),
                    jobs: BTreeMap::new(),
                    finished: VecDeque::new(),
                    jobs_dropped: 0,
                    next_job_id: 1,
                    next_seq: 0,
                    running: 0,
                    draining: false,
                    cache,
                    jobs_completed: 0,
                    jobs_failed: 0,
                    points_run: 0,
                    points_cached: 0,
                }),
                work_ready: Condvar::new(),
                wake_addr,
            }),
            workers: options.workers.max(1),
            cache_path: options.cache_path,
            cache_warning,
        })
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until drained: accepts connections, runs jobs, and returns
    /// once `/shutdown` was received and every queued and running job has
    /// finished. Persists the cache before returning.
    ///
    /// # Errors
    ///
    /// Returns accept-loop or cache-persistence I/O errors.
    pub fn run(self) -> io::Result<ServeStats> {
        let workers: Vec<JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let shared = self.shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();

        loop {
            let accepted = self.listener.accept();
            let (finished, live): (Vec<_>, Vec<_>) =
                handlers.into_iter().partition(|h| h.is_finished());
            for h in finished {
                let _ = h.join();
            }
            handlers = live;
            match accepted {
                // The wake-up connect gets a handler like any other: it
                // reads EOF and returns, while a real client that connected
                // late still gets its 503 or its status.
                Ok((stream, _)) => {
                    let shared = self.shared.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                    }));
                }
                // A failed accept ends the server only if the listener is
                // broken: returning abandons the workers and queued jobs.
                Err(e) => match classify_accept_error(&e) {
                    AcceptFailure::Retry => {}
                    AcceptFailure::Backoff => std::thread::sleep(ACCEPT_BACKOFF),
                    AcceptFailure::Fatal => return Err(e),
                },
            }
            // A completed drain is announced by a connect (see
            // `wake_accept_loop`), so this is the one place it is noticed.
            if self.shared.lock().drained() {
                break;
            }
        }

        // Drained: wake any workers parked on the condvar so they observe
        // `draining` and exit, then let in-flight streams finish.
        self.shared.work_ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        for h in handlers {
            let _ = h.join();
        }

        let state = self.shared.lock();
        if let Some(path) = &self.cache_path {
            state.cache.persist(path)?;
        }
        Ok(ServeStats {
            jobs_completed: state.jobs_completed,
            jobs_failed: state.jobs_failed,
            points_run: state.points_run,
            points_cached: state.points_cached,
            cache_entries: state.cache.len(),
        })
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// Answers with `body` (a JSON document) as one line. The write's result is
/// dropped: a client that has gone away is nothing the server acts on.
fn respond_json(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    let line = format!("{body}\n");
    let _ = write_response(stream, status, reason, "application/json", line.as_bytes());
}

fn error_body(message: impl Into<String>) -> String {
    Json::obj([("error", Json::Str(message.into()))]).to_string()
}

/// Every frame is one `write` (see [`crate::http`]), so it goes out at once;
/// and neither a client that sends nothing nor one that stops reading may
/// pin the connection's thread.
fn configure(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    configure(&stream);
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(_) => return,
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/submit") => handle_submit(stream, shared, &request),
        ("GET", "/status") => {
            let body = render_status(shared);
            let _ = write_response(
                &mut stream,
                200,
                "OK",
                "text/plain; charset=utf-8",
                body.as_bytes(),
            );
        }
        ("POST", "/shutdown") => {
            let drained = {
                let mut state = shared.lock();
                state.draining = true;
                state.drained()
            };
            shared.work_ready.notify_all();
            if drained {
                shared.wake_accept_loop();
            }
            let body = Json::obj([("draining", Json::Bool(true))]).to_string();
            respond_json(&mut stream, 200, "OK", &body);
        }
        _ => {
            let body = error_body(format!("no route for {} {}", request.method, request.path));
            respond_json(&mut stream, 404, "Not Found", &body);
        }
    }
}

fn handle_submit(mut stream: TcpStream, shared: &Arc<Shared>, request: &Request) {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            respond_json(
                &mut stream,
                400,
                "Bad Request",
                &error_body("body is not UTF-8"),
            );
            return;
        }
    };
    // Reject malformed submissions *here*, with a structured error, before
    // anything reaches the queue — a bad protocol name must never take
    // down a worker.
    let submission = match Submission::parse(text) {
        Ok(submission) => submission,
        Err(e) => {
            respond_json(&mut stream, 400, "Bad Request", &e.to_json());
            return;
        }
    };

    let (tx, rx) = mpsc::channel();
    let (job_id, points_total, priority) = {
        let mut state = shared.lock();
        if state.draining {
            let body = error_body("server is draining; submission rejected");
            respond_json(&mut stream, 503, "Service Unavailable", &body);
            return;
        }
        let id = state.next_job_id;
        state.next_job_id += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        let points_total = submission.points.len();
        let priority = submission.priority;
        state.jobs.insert(
            id,
            JobRecord {
                state: JobState::Queued,
                priority,
                points_total,
                points_done: 0,
                cache_hits: 0,
                submission: Some(submission),
                events: Some(tx),
            },
        );
        state.queue.push(QueuedJob {
            priority,
            seq,
            job: id,
        });
        (id, points_total, priority)
    };
    shared.work_ready.notify_all();

    let mut chunked = match ChunkedWriter::begin(&mut stream, 200, "OK") {
        Ok(chunked) => chunked,
        Err(_) => return,
    };
    let ack = JobLine::Ack {
        job: JobId(job_id).to_string(),
        points: points_total,
        priority,
    };
    if chunked.chunk(ack.render().as_bytes()).is_err() {
        return; // client went away; the worker still runs and fills the cache
    }
    for line in rx {
        let last = !matches!(line, JobLine::Run(_));
        if chunked.chunk(line.render().as_bytes()).is_err() {
            return;
        }
        if last {
            break;
        }
    }
    let _ = chunked.end();
}

fn render_status(shared: &Arc<Shared>) -> String {
    use std::fmt::Write as _;
    let state = shared.lock();
    let mut out = String::new();
    let _ = writeln!(out, "tc-serve campaign service");
    let _ = writeln!(
        out,
        "queue depth: {}  running: {}  draining: {}",
        state.queue.len(),
        state.running,
        if state.draining { "yes" } else { "no" }
    );
    let _ = writeln!(
        out,
        "cache: {} entries, {} hits, {} misses ({:.1}% hit rate)",
        state.cache.len(),
        state.cache.hits,
        state.cache.misses,
        state.cache.hit_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "lifetime: {} completed, {} failed, {} points run, {} points cached",
        state.jobs_completed, state.jobs_failed, state.points_run, state.points_cached
    );
    let _ = writeln!(out, "jobs:");
    if state.jobs_dropped > 0 {
        let _ = writeln!(
            out,
            "  ({} older finished jobs no longer listed)",
            state.jobs_dropped
        );
    }
    for (id, rec) in &state.jobs {
        let _ = writeln!(
            out,
            "  {:<8} {:<8} {:<7} {}/{} points, {} cached",
            JobId(*id).to_string(),
            rec.state.name(),
            rec.priority.name(),
            rec.points_done,
            rec.points_total,
            rec.cache_hits
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (job_id, submission, sender) = {
            let mut state = shared.lock();
            loop {
                if let Some(next) = state.queue.pop() {
                    let record = state
                        .jobs
                        .get_mut(&next.job)
                        .expect("queued job must have a record");
                    record.state = JobState::Running;
                    let submission = record
                        .submission
                        .take()
                        .expect("queued job must carry its submission");
                    let sender = record.events.clone();
                    state.running += 1;
                    break (next.job, submission, sender);
                }
                if state.draining {
                    return;
                }
                state = shared.work_ready.wait(state).unwrap();
            }
        };

        let outcome = run_job(shared, job_id, submission, sender.as_ref());

        let drained = {
            let mut state = shared.lock();
            state.running -= 1;
            state.finish(job_id, outcome);
            state.drained()
        };
        if drained {
            shared.wake_accept_loop();
        }
    }
}

/// Sends the in-order prefix of ready lines downstream.
fn flush_ready(
    ready: &mut BTreeMap<usize, String>,
    next_emit: &mut usize,
    sender: Option<&Sender<JobLine>>,
) {
    while let Some(line) = ready.remove(next_emit) {
        if let Some(sender) = sender {
            let _ = sender.send(JobLine::Run(line));
        }
        *next_emit += 1;
    }
}

/// Runs one job: serves cache hits, simulates the rest as a
/// single-threaded streaming campaign, emits lines in submission order, and
/// folds fresh results back into the cache.
fn run_job(
    shared: &Arc<Shared>,
    job_id: u64,
    submission: Submission,
    sender: Option<&Sender<JobLine>>,
) -> Result<(usize, usize), String> {
    let Submission {
        options, points, ..
    } = submission;
    let total = points.len();
    // Formatting a key and rendering a line are the expensive parts of a
    // hit; both happen outside the state lock, which covers the lookups.
    let keys: Vec<String> = points
        .iter()
        .map(|point| cache_key(point, &options))
        .collect();

    // Partition into cache hits and points to run.
    let mut hits: Vec<(usize, String, RunReport)> = Vec::new();
    let mut to_run = Vec::new();
    let mut run_keys: Vec<String> = Vec::new();
    let mut run_index: Vec<usize> = Vec::new();
    {
        let mut state = shared.lock();
        for (i, (point, key)) in points.into_iter().zip(keys).enumerate() {
            if let Some(report) = state.cache.lookup(&key) {
                hits.push((i, point.label, report.clone()));
            } else {
                run_keys.push(key);
                run_index.push(i);
                to_run.push(point);
            }
        }
        let record = state.jobs.get_mut(&job_id).expect("job record");
        record.cache_hits = hits.len();
    }
    // Cached under any label: rendered with *this* submission's.
    let cache_hits = hits.len();
    let mut ready: BTreeMap<usize, String> = hits
        .into_iter()
        .map(|(i, label, report)| (i, run_to_json(&label, &report)))
        .collect();
    let ran = to_run.len();

    let mut next_emit = 0usize;
    flush_ready(&mut ready, &mut next_emit, sender);

    let mut computed: Vec<(usize, RunReport)> = Vec::new();
    if !to_run.is_empty() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Campaign::new(to_run)
                .options(options)
                .threads(1)
                .run_streaming(|index, run| {
                    ready.insert(run_index[index], run_to_json(&run.label, &run.report));
                    computed.push((index, run.report.clone()));
                    flush_ready(&mut ready, &mut next_emit, sender);
                    let mut state = shared.lock();
                    if let Some(record) = state.jobs.get_mut(&job_id) {
                        record.points_done = next_emit;
                    }
                });
        }));

        // Whatever completed before a panic is still a valid, bit-exact
        // result: cache it so the work is not lost.
        {
            let mut state = shared.lock();
            for (index, report) in computed {
                state.cache.insert(run_keys[index].clone(), report);
            }
        }

        if let Err(payload) = result {
            let message = panic_message(&*payload);
            if let Some(sender) = sender {
                let _ = sender.send(JobLine::Failed {
                    job: JobId(job_id).to_string(),
                    error: message.clone(),
                });
            }
            return Err(message);
        }
    }

    debug_assert_eq!(next_emit, total, "every line must have been emitted");
    if let Some(sender) = sender {
        let _ = sender.send(JobLine::Done {
            job: JobId(job_id).to_string(),
            ran,
            cache_hits,
        });
    }
    Ok((ran, cache_hits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_system::{ExperimentPoint, RunOptions};
    use tc_types::SystemConfig;
    use tc_workloads::WorkloadProfile;

    fn bound() -> Server {
        Server::bind(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_path: None,
        })
        .expect("bind on an ephemeral port")
    }

    fn options() -> RunOptions {
        RunOptions {
            ops_per_node: 100,
            max_cycles: 20_000_000,
            ..RunOptions::default()
        }
    }

    fn point(label: &str, seed: u64) -> ExperimentPoint {
        let mut config = SystemConfig::isca03_default().with_nodes(4).with_seed(seed);
        config.l2.size_bytes = 256 * 1024;
        ExperimentPoint::new(label, config, WorkloadProfile::specjbb())
    }

    /// Only a broken listener ends the accept loop: a connection that failed
    /// is skipped and an exhausted resource is waited out.
    #[test]
    fn accept_errors_end_the_server_only_when_the_listener_fails() {
        use io::ErrorKind::*;
        let retry = [Interrupted, ConnectionAborted, ConnectionReset].map(io::Error::from);
        // ENOMEM, ENFILE and EMFILE are numbered alike on every Unix.
        let backoff = [12, 23, 24, EXHAUSTED[3]].map(io::Error::from_raw_os_error);
        let fatal = [InvalidInput, PermissionDenied, Other].map(io::Error::from);
        for (errors, expected) in [
            (&retry[..], AcceptFailure::Retry),
            (&backoff[..], AcceptFailure::Backoff),
            (&fatal[..], AcceptFailure::Fatal),
        ] {
            for error in errors {
                assert_eq!(classify_accept_error(error), expected, "{error:?}");
            }
        }
    }

    fn record(state: JobState, points_total: usize) -> JobRecord {
        JobRecord {
            state,
            priority: JobPriority::Normal,
            points_total,
            points_done: 0,
            cache_hits: 0,
            submission: None,
            events: None,
        }
    }

    /// The worker-side crash contract. `Submission::parse` refuses every
    /// configuration known to panic, so this hands `run_job` an unvalidated
    /// one directly: the job fails with the panic's message as its trailer,
    /// the point that finished first is streamed and cached, and the caller
    /// (a worker thread) gets an `Err`, not an unwind.
    #[test]
    fn a_panicking_point_fails_its_job_and_keeps_what_finished() {
        let good = point("good", 0);
        let mut bad = point("bad", 0);
        bad.config.l1.size_bytes = 192; // 3 lines, 4-way: `System::build` panics
        let submission = Submission {
            priority: JobPriority::Normal,
            options: options(),
            points: vec![good, bad],
        };
        let server = bound();
        server
            .shared
            .lock()
            .jobs
            .insert(1, record(JobState::Running, 2));

        let (tx, rx) = mpsc::channel();
        let error = run_job(&server.shared, 1, submission, Some(&tx)).expect_err("job fails");
        drop(tx);
        let lines: Vec<JobLine> = rx.iter().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(matches!(&lines[0], JobLine::Run(line) if line.contains("\"label\":\"good\"")));
        assert_eq!(
            lines[1],
            JobLine::Failed {
                job: "job-1".to_string(),
                error: error.clone()
            }
        );
        assert!(error.contains("bad"), "the panic names the point: {error}");
        assert_eq!(server.shared.lock().cache.len(), 1);
    }

    #[test]
    fn the_job_table_keeps_every_unfinished_job_and_a_bounded_tail_of_finished_ones() {
        let server = bound();
        let shared = &server.shared;
        {
            let mut state = shared.lock();
            state.jobs.insert(1, record(JobState::Queued, 1));
            state.jobs.insert(2, record(JobState::Running, 1));
            let extra = 44;
            for id in 3..3 + (FINISHED_JOBS_KEPT + extra) as u64 {
                state.jobs.insert(id, record(JobState::Running, 2));
                let outcome = if id % 7 == 0 {
                    Err("a point panicked".to_string())
                } else {
                    Ok((1, 1))
                };
                state.finish(id, outcome);
                assert!(state.jobs.len() <= FINISHED_JOBS_KEPT + 2);
            }
            assert_eq!(state.jobs.len(), FINISHED_JOBS_KEPT + 2);
            assert_eq!(state.jobs_dropped, extra as u64);
            assert_eq!(state.jobs[&1].state, JobState::Queued);
            assert_eq!(state.jobs[&2].state, JobState::Running);
            // The finished ones kept are the most recent.
            assert_eq!(*state.jobs.keys().nth(2).unwrap(), 3 + extra as u64);
            // Dropping a record takes nothing out of the lifetime counters.
            let total = (FINISHED_JOBS_KEPT + extra) as u64;
            assert_eq!(state.jobs_completed + state.jobs_failed, total);
            assert_eq!(state.points_run, state.jobs_completed);
        }
        let status = render_status(shared);
        assert!(
            status.contains("(44 older finished jobs no longer listed)"),
            "{status}"
        );
        assert!(status.contains("job-1 "), "{status}");
        assert!(!status.contains("job-3 "), "{status}");
    }

    /// One lookup a submitted point, counted once, for a cold job, a job
    /// that is all hits and a job with both.
    #[test]
    fn cache_counters_advance_once_a_submitted_point() {
        let server = bound();
        let shared = server.shared.clone();
        let addr = server.local_addr().unwrap().to_string();
        let running = std::thread::spawn(move || server.run().expect("server run"));
        let submit = |points: Vec<ExperimentPoint>| {
            let submission = Submission {
                priority: JobPriority::Normal,
                options: options(),
                points,
            };
            crate::submit(&addr, &submission, |_| {}).expect("submission")
        };
        let counters = || {
            let state = shared.lock();
            (state.cache.hits, state.cache.misses)
        };

        let cold = submit(vec![point("a", 1), point("b", 2)]);
        assert_eq!((cold.ran, cold.cache_hits), (2, 0));
        assert_eq!(counters(), (0, 2));

        let hot = submit(vec![point("b2", 2), point("a2", 1), point("a3", 1)]);
        assert_eq!((hot.ran, hot.cache_hits), (0, 3));
        assert_eq!(counters(), (3, 2));

        let mixed = submit(vec![point("a", 1), point("c", 3), point("b", 2)]);
        assert_eq!((mixed.ran, mixed.cache_hits), (1, 2));
        assert_eq!(counters(), (5, 3));

        crate::shutdown(&addr).expect("shutdown");
        let stats = running.join().expect("server thread");
        assert_eq!(stats.jobs_completed, 3);
        assert_eq!((stats.points_run, stats.points_cached), (3, 5));
    }

    #[test]
    fn accepted_sockets_bound_both_directions_of_a_stalled_client() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure(&accepted);
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_TIMEOUT));
        assert_eq!(accepted.write_timeout().unwrap(), Some(WRITE_TIMEOUT));
        assert!(accepted.nodelay().unwrap());
    }

    #[test]
    fn queue_orders_by_priority_then_submission() {
        let mut heap = BinaryHeap::new();
        heap.push(QueuedJob {
            priority: JobPriority::Normal,
            seq: 0,
            job: 1,
        });
        heap.push(QueuedJob {
            priority: JobPriority::Low,
            seq: 1,
            job: 2,
        });
        heap.push(QueuedJob {
            priority: JobPriority::High,
            seq: 2,
            job: 3,
        });
        heap.push(QueuedJob {
            priority: JobPriority::High,
            seq: 3,
            job: 4,
        });
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|q| q.job).collect();
        assert_eq!(order, vec![3, 4, 1, 2]);
    }
}
