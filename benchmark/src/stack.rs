//! Process and socket plumbing: building and locating the measured
//! binaries, spawning them in their own process group, the scratch
//! directory, and the closed-loop line client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Per-request timeout: a reply later than this fails the operation.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// At most this many requests are in flight in a stream phase.
pub const WINDOW: usize = 64;
/// A stream phase sends (and a traced rung times) this many lines at a
/// time: half the window, so between 32 and 64 requests are in flight.
pub const BATCH: usize = WINDOW / 2;
/// `DVS_THREADS` for every spawned server: the client and the server (plus
/// follower or second shard) already fill the two cores.
pub const SERVER_THREADS: &str = "1";

/// The measured binaries.
#[derive(Debug, Clone)]
pub struct Bins {
    pub admitd: PathBuf,
    pub routerd: PathBuf,
    pub reject: PathBuf,
}

/// Builds the measured binaries from the sources in `root` and returns
/// where they are, so a run can never measure a stale `target/release`.
/// Honours `CARGO_TARGET_DIR` exactly as the nested `cargo` does.
pub fn build(root: &Path) -> Result<Bins, String> {
    let status = Command::new("cargo")
        .args(["build", "--release"])
        .args(["-p", "dvs-admit", "-p", "dvs-router", "-p", "dvs-rejection"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build of the measured binaries failed: {status}"
        ));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let bin = |name: &str| {
        let path = target.join("release").join(name);
        path.exists()
            .then_some(path.clone())
            .ok_or_else(|| format!("{} not found after the build", path.display()))
    };
    Ok(Bins {
        admitd: bin("dvs_admitd")?,
        routerd: bin("dvs_routerd")?,
        reject: bin("dvs_reject")?,
    })
}

/// Scratch directory `benchmark/out/tmp-<pid>/`, removed on drop.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn create(out_dir: &Path) -> std::io::Result<TmpDir> {
        // What a killed run of this benchmark left behind.
        for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .and_then(|n| n.strip_prefix("tmp-"))
                .is_some_and(|pid| !Path::new("/proc").join(pid).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn signal_group(pgid: u32, signal: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if let Ok(pgid) = i32::try_from(pgid) {
        // SAFETY: `kill(2)` takes two integers and touches no memory of
        // this process; a negative pid addresses the process group, which
        // only ever contains servers this benchmark spawned.
        unsafe {
            kill(-pgid, signal);
        }
    }
}

const SIGKILL: i32 = 9;

/// Keeps every core out of its idle state while a run measures.
///
/// On this kind of (virtual) machine a blocked thread's wake-up costs
/// 3 µs or 30 µs depending on how recently the core went idle, and the
/// regime flips every few seconds: the same request/response loop reads
/// 7 µs or 58 µs per round trip. One spinning thread per core in the
/// `SCHED_IDLE` class removes the idle state: it runs only when nothing
/// else wants the core and is preempted the moment anything does.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        use std::sync::atomic::Ordering;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let spinners = allowed_cpus()
            .iter()
            .map(|&cpu| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    idle_class_on(cpu);
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// CPU affinity masks cover the first 1024 CPUs, as glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// The CPUs this process may run on, as found by the first call — which
/// `main` makes before any thread is pinned.
pub fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
        // into `mask`, which is exactly that large; pid 0 is the calling
        // thread.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if got != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Restricts the calling thread (and what it spawns from now on) to
/// `cpus`.
fn run_on(cpus: &[usize]) {
    let mut mask: CpuSet = [0; 16];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from `mask`,
    // which is exactly that large; pid 0 is the calling thread. On failure
    // the thread keeps its placement, so the result is not acted on.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask);
    }
}

/// Pins the calling thread to `cpu` and moves it into `SCHED_IDLE`. The
/// load balancer does not spread idle-class threads by itself, and an
/// unpinned pair can leave one core idle.
fn idle_class_on(cpu: usize) {
    const SCHED_IDLE: i32 = 5;
    run_on(&[cpu]);
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: the call reads one `sched_param`, which `param` is for the
    // length of the call; pid 0 is the calling thread. On failure the
    // spinner stays at normal priority, so the result is not acted on.
    unsafe {
        sched_setscheduler(0, SCHED_IDLE, &param);
    }
}

/// Where the load generator and the servers run: the client on the first
/// allowed CPU, every server on the others (on a one-CPU box, both there).
///
/// Left to the scheduler, a request/response pair lands on one core or on
/// two from one repetition to the next, and in a virtual machine the
/// cross-core wake-up costs ten times the same-core one. Separate cores
/// is the placement a remote client has, and it never changes.
fn placement() -> (&'static [usize], &'static [usize]) {
    match allowed_cpus() {
        [first, rest @ ..] if !rest.is_empty() => (std::slice::from_ref(first), rest),
        all => (all, all),
    }
}

/// One pass of the calibration kernel on the calling thread, in
/// nanoseconds: a fixed mix of multiplies, rotates, branches and loads
/// from a 256 KiB table, independent of the code under test.
fn kernel_ns() -> f64 {
    let mut table = vec![0u64; 1 << 15];
    let started = Instant::now();
    let mut lanes = [1u64, 2, 3, 4];
    for i in 0..100_000u64 {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let slot = ((*lane >> 7) as usize + j * 977) & ((1 << 15) - 1);
            *lane = lane.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ table[slot];
            if *lane & 64 == 0 {
                table[slot] = lane.wrapping_add(i);
            }
        }
    }
    std::hint::black_box(&lanes);
    started.elapsed().as_nanos() as f64
}

/// The kernel's time on this class of box when nothing shares the core.
const NOMINAL_KERNEL_NS: f64 = 1_600_000.0;

/// Speed of the calling thread's CPU as a share of nominal: the median of
/// five kernel passes.
fn speed_here() -> f64 {
    let mut ns: Vec<f64> = (0..5).map(|_| kernel_ns()).collect();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("times are not NaN"));
    NOMINAL_KERNEL_NS / ns[2]
}

/// Speed of the servers' CPUs right now, as a share of nominal (`1.0` =
/// nominal, `0.75` = a quarter slower): the mean over them of
/// [`speed_here`], taken on all of them at once.
fn servers_speed() -> f64 {
    let helpers: Vec<_> = placement()
        .1
        .iter()
        .map(|&cpu| {
            std::thread::spawn(move || {
                run_on(&[cpu]);
                speed_here()
            })
        })
        .collect();
    let speeds: Vec<f64> = helpers.into_iter().filter_map(|h| h.join().ok()).collect();
    speeds.iter().sum::<f64>() / speeds.len().max(1) as f64
}

/// One quick sample of the calling thread's CPU speed (a single kernel
/// pass, about 2 ms), for work that can afford to sample often.
pub fn speed_sample() -> f64 {
    NOMINAL_KERNEL_NS / kernel_ns()
}

/// Runs in-process work on the calling thread, which must be on the
/// client's CPU, and returns what it produced, its duration in seconds at
/// nominal machine speed, and the speed (see [`Interval`]).
pub fn at_nominal_speed<T>(work: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = speed_here();
    let started = Instant::now();
    let out = work();
    let wall_s = started.elapsed().as_secs_f64();
    let speed = (before + speed_here()) / 2.0;
    (out, wall_s * speed, speed)
}

/// An interval of server work, as timed and at nominal machine speed.
///
/// The box's cores each flip between two speeds a third apart every few
/// seconds (another tenant on the sibling hyperthread), so wall-clock time
/// alone follows the neighbour more than the code. The share of the
/// interval the servers spent *on a CPU* is scaled by how fast the
/// servers' CPUs ran the calibration kernel just before and just after;
/// time spent waiting (timers, the client, the disk) is left as it is.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub wall_s: f64,
    pub nominal_s: f64,
    /// Servers' CPU speed over the interval, as a share of nominal.
    pub speed: f64,
}

impl Interval {
    /// `nominal_s / wall_s`: what to multiply a duration inside the
    /// interval by.
    pub fn scale(&self) -> f64 {
        self.nominal_s / self.wall_s
    }
}

/// Starts timing an [`Interval`].
pub struct Meter {
    started: Instant,
    speed: f64,
    busy_s: f64,
}

impl Meter {
    /// `servers` are the processes already running whose CPU time counts.
    pub fn start(servers: &[&Proc]) -> Meter {
        let speed = servers_speed();
        Meter {
            busy_s: servers.iter().map(|p| p.cpu_seconds()).sum(),
            speed,
            started: Instant::now(),
        }
    }

    /// `servers` are the processes running now (those spawned inside the
    /// interval count from zero).
    pub fn stop(self, servers: &[&Proc]) -> Interval {
        let wall_s = self.started.elapsed().as_secs_f64();
        let busy_s =
            (servers.iter().map(|p| p.cpu_seconds()).sum::<f64>() - self.busy_s).clamp(0.0, wall_s);
        let speed = (self.speed + servers_speed()) / 2.0;
        Interval {
            wall_s,
            nominal_s: wall_s - busy_s + busy_s * speed,
            speed,
        }
    }
}

/// Moves the calling thread to the client's CPU.
pub fn on_client_cpu() {
    run_on(placement().0);
}

/// Lets the calling thread (and the workers it spawns) use every CPU: the
/// in-process solver workload, where `exec`'s fan-out is under test.
pub fn on_every_cpu() {
    run_on(allowed_cpus());
}

/// Moves the calling thread to the servers' CPUs.
pub fn on_server_cpus() {
    run_on(placement().1);
}

/// A spawned server in its own process group (so `dvs_routerd`'s shard
/// children die with it). Dropping it kills the whole group and reaps the
/// child: no process outlives the benchmark.
pub struct Proc {
    child: Child,
    /// The lines the server printed while starting (its bound addresses).
    pub banners: Vec<String>,
    pub stdin: Option<ChildStdin>,
    pub stdout: Option<BufReader<ChildStdout>>,
}

impl Proc {
    /// Spawns `bin args…` and reads `banners` start-up lines from its
    /// stdout. `pipe_stdin` keeps stdin open for `--stdin` serving.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        banners: usize,
        pipe_stdin: bool,
    ) -> Result<Proc, String> {
        // A child inherits the placement of the thread that forks it.
        on_server_cpus();
        let spawned = Command::new(bin)
            .args(args)
            .env(dvs_exec::THREADS_ENV, SERVER_THREADS)
            .stdin(if pipe_stdin {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .process_group(0)
            .spawn();
        on_client_cpu();
        let mut child = spawned.map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut proc = Proc {
            child,
            banners: Vec::new(),
            stdin,
            stdout: None,
        };
        for _ in 0..banners {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => proc.banners.push(line.trim().to_string()),
                _ => return Err(format!("{} exited before it was ready", bin.display())),
            }
        }
        proc.stdout = Some(stdout);
        Ok(proc)
    }

    /// The address printed after `prefix` in a start-up line.
    pub fn banner_addr(&self, prefix: &str) -> Result<String, String> {
        self.banners
            .iter()
            .find_map(|b| b.strip_prefix(prefix))
            .map(str::to_string)
            .ok_or_else(|| format!("no {prefix:?} line in {:?}", self.banners))
    }

    /// `SIGKILL`s the process group and reaps the child.
    pub fn kill(&mut self) {
        signal_group(self.child.id(), SIGKILL);
        let _ = self.child.wait();
    }

    /// Waits up to `limit` for a clean exit after a `shutdown` request.
    pub fn wait_exit(&mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => {
                    return Err(format!(
                        "the server was still running {limit:?} after shutdown"
                    ))
                }
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }

    /// CPU seconds (user + system) the processes of this group have used.
    pub fn cpu_seconds(&self) -> f64 {
        let pgid = self.child.id().to_string();
        let Ok(entries) = std::fs::read_dir("/proc") else {
            return 0.0;
        };
        let ticks: u64 = entries
            .flatten()
            .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
            .filter_map(|stat| {
                let (_, rest) = stat.rsplit_once(')')?;
                let f: Vec<&str> = rest.split_whitespace().collect();
                (f.get(2) == Some(&pgid.as_str())).then(|| {
                    f.get(11).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0)
                        + f.get(12).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0)
                })
            })
            .sum();
        ticks as f64 / 100.0
    }

    /// Sum of `VmHWM` over the processes of this group, in kB.
    pub fn peak_rss_kb(&self) -> u64 {
        let pgid = self.child.id().to_string();
        let Ok(entries) = std::fs::read_dir("/proc") else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| {
                // /proc/<pid>/stat: `pid (comm) state ppid pgrp …`; comm
                // may contain spaces, so split after the closing paren.
                std::fs::read_to_string(e.path().join("stat")).is_ok_and(|stat| {
                    stat.rsplit_once(')')
                        .and_then(|(_, rest)| rest.split_whitespace().nth(2))
                        .is_some_and(|pgrp| pgrp == pgid)
                })
            })
            .map(|e| vm_hwm_kb(&e.path().join("status")))
            .sum()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A `Vm…:` field of a `/proc/<pid>/status` file, in kB (0 if unreadable).
fn status_kb(status: &Path, field: &str) -> u64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of a process, in kB.
fn vm_hwm_kb(status: &Path) -> u64 {
    status_kb(status, "VmHWM:")
}

/// Resident set of this process now, in kB. The in-process workload
/// samples it after every pass: the process-wide peak (`VmHWM`) would also
/// count whatever a suite ran before it.
pub fn own_rss_kb() -> u64 {
    status_kb(Path::new("/proc/self/status"), "VmRSS:")
}

/// The request lines of one session as a single buffer, so a batch is one
/// contiguous slice and one `write`.
pub struct Lines {
    blob: String,
    /// `ends[i]` is the offset just past line `i`'s newline.
    ends: Vec<usize>,
}

impl Lines {
    pub fn new<I: IntoIterator<Item = String>>(lines: I) -> Lines {
        let mut blob = String::new();
        let mut ends = Vec::new();
        for line in lines {
            blob.push_str(&line);
            blob.push('\n');
            ends.push(blob.len());
        }
        Lines { blob, ends }
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// Line `i` without its newline.
    pub fn line(&self, i: usize) -> &str {
        &self.blob[self.start(i)..self.ends[i] - 1]
    }

    /// Lines `from..to` with their newlines, as sent on the wire.
    pub fn wire(&self, from: usize, to: usize) -> &[u8] {
        &self.blob.as_bytes()[self.start(from)..self.start(to)]
    }
}

/// Counts replies against what the oracle expects: a reply fails when its
/// `ok` differs from the oracle's, and a reply that never came fails too.
pub struct ReplyCheck<'a> {
    expected_ok: &'a [bool],
    seen: usize,
    failed: u64,
}

impl<'a> ReplyCheck<'a> {
    pub fn new(expected_ok: &'a [bool]) -> Self {
        ReplyCheck {
            expected_ok,
            seen: 0,
            failed: 0,
        }
    }

    pub fn push(&mut self, reply: &str) {
        let ok = reply.starts_with("{\"ok\":true");
        if self.expected_ok.get(self.seen) != Some(&ok) {
            self.failed += 1;
        }
        self.seen += 1;
    }

    /// Failed operations, counting every expected reply that is missing.
    pub fn finish(self) -> u64 {
        self.failed + self.expected_ok.len().saturating_sub(self.seen) as u64
    }
}

/// Sends `lines[from..to]` over `tx` with at most [`WINDOW`] requests in
/// flight, reading replies from `rx`; calls `on_batch(done)` each time a
/// batch of replies has been read. Stops at the first transport error or
/// timeout (the caller's [`ReplyCheck`] then counts the rest as failed).
pub fn stream<R: BufRead, W: Write>(
    rx: &mut R,
    tx: &mut W,
    lines: &Lines,
    from: usize,
    to: usize,
    check: &mut ReplyCheck<'_>,
    mut on_batch: impl FnMut(usize),
) -> std::io::Result<()> {
    let mut sent = (from + WINDOW).min(to);
    tx.write_all(lines.wire(from, sent))?;
    tx.flush()?;
    let mut done = from;
    let mut reply = String::new();
    while done < to {
        let upto = (done + BATCH).min(to);
        while done < upto {
            reply.clear();
            if rx.read_line(&mut reply)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            check.push(&reply);
            done += 1;
        }
        on_batch(done);
        if sent < to {
            let next = (sent + BATCH).min(to);
            tx.write_all(lines.wire(sent, next))?;
            tx.flush()?;
            sent = next;
        }
    }
    Ok(())
}

/// A non-blocking socket that spins instead of sleeping.
///
/// The load generator has a core to itself, so it never gives it up: a
/// client that blocks pays a cross-core wake-up on every reply batch, and
/// whether the server then runs dry depends on how long that wake-up took.
/// Spinning takes the client's own scheduling out of the measurement; the
/// server's blocking reads and writes are untouched.
struct Spin {
    stream: TcpStream,
    timeout: Duration,
}

impl Spin {
    fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut TcpStream) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut started = None;
        loop {
            match op(&mut self.stream) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let since = *started.get_or_insert_with(Instant::now);
                    if since.elapsed() > self.timeout {
                        return Err(std::io::ErrorKind::TimedOut.into());
                    }
                    std::hint::spin_loop();
                }
                done => return done,
            }
        }
    }
}

impl Read for Spin {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.retry(|s| s.read(buf))
    }
}

impl Write for Spin {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.retry(|s| s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One closed-loop client connection.
pub struct LineClient {
    rx: BufReader<Spin>,
    tx: Spin,
}

impl LineClient {
    pub fn connect(addr: &str) -> std::io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let half = |stream| Spin {
            stream,
            timeout: REQUEST_TIMEOUT,
        };
        Ok(LineClient {
            rx: BufReader::with_capacity(1 << 16, half(stream.try_clone()?)),
            tx: half(stream),
        })
    }

    /// Sends one request (newline included in `wire`) and waits for its
    /// reply line, returned without the newline.
    pub fn request_wire(&mut self, wire: &[u8], reply: &mut String) -> std::io::Result<()> {
        self.tx.write_all(wire)?;
        reply.clear();
        if self.rx.read_line(reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(())
    }

    /// [`LineClient::request_wire`] for a control request such as `stats`.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut reply = String::new();
        self.request_wire(format!("{line}\n").as_bytes(), &mut reply)?;
        Ok(reply)
    }

    /// Allows a slow control reply (a multi-megabyte `log`) more time.
    pub fn set_timeout(&mut self, limit: Duration) {
        self.rx.get_mut().timeout = limit;
    }

    pub fn stream(
        &mut self,
        lines: &Lines,
        from: usize,
        to: usize,
        check: &mut ReplyCheck<'_>,
        on_batch: impl FnMut(usize),
    ) -> std::io::Result<()> {
        stream(&mut self.rx, &mut self.tx, lines, from, to, check, on_batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_check_counts_a_wrong_ok_and_a_dropped_line() {
        let expected = [true, true, false, true];
        let all = [
            "{\"ok\":true,\"id\":1}",
            "{\"ok\":true}",
            "{\"ok\":false,\"kind\":\"x\"}",
            "{\"ok\":true}",
        ];
        let mut c = ReplyCheck::new(&expected);
        all.iter().for_each(|r| c.push(r));
        assert_eq!(c.finish(), 0);

        // One reply dropped from the middle: the tail shifts against the
        // oracle and the missing reply is counted as well.
        let mut c = ReplyCheck::new(&expected);
        [all[0], all[2], all[3]].iter().for_each(|r| c.push(r));
        assert!(c.finish() >= 1);

        // All replies present but one verdict flipped.
        let mut c = ReplyCheck::new(&expected);
        [all[0], all[2], all[2], all[3]]
            .iter()
            .for_each(|r| c.push(r));
        assert_eq!(c.finish(), 1);
    }

    #[test]
    fn lines_slice_batches_contiguously() {
        let l = Lines::new(["a".to_string(), "bc".to_string(), "d".to_string()]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.line(1), "bc");
        assert_eq!(l.wire(0, 2), b"a\nbc\n");
        assert_eq!(l.wire(2, 3), b"d\n");
    }

    #[test]
    fn stream_keeps_the_window_and_reports_every_batch() {
        // An echo peer over in-memory buffers: replies are pre-written, so
        // the function under test only has to pace and count.
        let n = 100;
        let l = Lines::new((0..n).map(|i| format!("{{\"op\":\"tick\",\"at\":{i}}}")));
        let replies = "{\"ok\":true}\n".repeat(n);
        let expected = vec![true; n];
        let mut check = ReplyCheck::new(&expected);
        let mut sent = Vec::new();
        let mut batches = Vec::new();
        stream(
            &mut replies.as_bytes(),
            &mut sent,
            &l,
            0,
            n,
            &mut check,
            |d| batches.push(d),
        )
        .unwrap();
        assert_eq!(check.finish(), 0);
        assert_eq!(sent, l.wire(0, n));
        assert_eq!(batches, vec![32, 64, 96, 100]);
    }
}
